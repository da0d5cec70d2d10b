open Rbc_intf

type msg =
  | Init of { round : int; payload : string }
  | Echo of { origin : int; round : int; payload : string }
  | Ready of { origin : int; round : int; payload : string }

let encode_msg msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Init { round; payload } ->
    Wire.put_u8 buf 1;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload
  | Echo { origin; round; payload } ->
    Wire.put_u8 buf 2;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload
  | Ready { origin; round; payload } ->
    Wire.put_u8 buf 3;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload);
  Buffer.contents buf

let decode_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Init { round; payload })
      | 2 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Echo { origin; round; payload })
      | 3 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Ready { origin; round; payload })
      | _ -> None)

let msg_bits msg = Wire.bits (encode_msg msg)

(* Votes are counted per payload, compared by value: a string the direct
   network shares between receivers is a pointer compare, a copy decoded
   from a lossy link a memcmp. *)
type instance = {
  mutable echoed : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  echoes : string Tally.t;
  readies : string Tally.t;
}

type t = {
  net : msg Net.Port.t;
  me : int;
  n : int;
  f : int;
  deliver : deliver;
  instances : instance Tbl.t;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let get_instance t key =
  match Tbl.find_opt t.instances key with
  | Some inst -> inst
  | None ->
    let inst =
      { echoed = false;
        ready_sent = false;
        delivered = false;
        echoes = Tally.create t.n;
        readies = Tally.create t.n }
    in
    Tbl.add t.instances key inst;
    inst

let quorum t = (2 * t.f) + 1
let amplify t = t.f + 1

let send_echo t ~origin ~round ~payload =
  phase t ~origin ~round "echo";
  let msg = Echo { origin; round; payload } in
  Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-echo"
    ~bits:(msg_bits msg) msg

let send_ready t inst ~origin ~round ~payload =
  if not inst.ready_sent then begin
    inst.ready_sent <- true;
    phase t ~origin ~round "ready";
    let msg = Ready { origin; round; payload } in
    Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-ready"
      ~bits:(msg_bits msg) msg
  end

let try_deliver t inst ~origin ~round ~payload ~count =
  if (not inst.delivered) && count >= quorum t then begin
    inst.delivered <- true;
    phase t ~origin ~round "deliver";
    t.deliver ~payload ~round ~source:origin
  end

let handle t ~src msg =
  let sp = Prof.enter "rbc.bracha.recv" in
  (try
     match msg with
  | Init { round; payload } ->
    let origin = src in
    let inst = get_instance t (origin, round) in
    if not inst.echoed then begin
      inst.echoed <- true;
      send_echo t ~origin ~round ~payload
    end
  | Echo { origin; round; payload } ->
    let inst = get_instance t (origin, round) in
    let count = Tally.vote inst.echoes ~equal:String.equal ~voter:src payload in
    if count >= quorum t then send_ready t inst ~origin ~round ~payload
  | Ready { origin; round; payload } ->
    let inst = get_instance t (origin, round) in
    let count =
      Tally.vote inst.readies ~equal:String.equal ~voter:src payload
    in
    if count >= amplify t then send_ready t inst ~origin ~round ~payload;
    try_deliver t inst ~origin ~round ~payload ~count
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let create_port ~port ~me ~f ~deliver =
  let t =
    { net = port;
      me;
      n = Net.Port.n port;
      f;
      deliver;
      instances = Tbl.create 64;
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let create ~net ~me ~f ~deliver =
  create_port ~port:(Net.Port.of_network net) ~me ~f ~deliver

let bcast t ~payload ~round =
  let sp = Prof.enter "rbc.bracha.bcast" in
  (try
     phase t ~origin:t.me ~round "init";
     let msg = Init { round; payload } in
     Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-init"
       ~bits:(msg_bits msg) msg
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let inject_init t ~dst ~round ~payload =
  let msg = Init { round; payload } in
  Net.Port.send t.net ~src:t.me ~dst ~kind:"bracha-init" ~bits:(msg_bits msg)
    msg
