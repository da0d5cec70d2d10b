open Rbc_intf

type msg =
  | Disperse of {
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Echo of {
      origin : int;
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Ready of { origin : int; round : int; root : string; data_len : int }

let put_proof buf (proof : Crypto.Merkle.proof) =
  Wire.put_u32 buf proof.Crypto.Merkle.leaf_index;
  Wire.put_u32 buf (List.length proof.Crypto.Merkle.path);
  List.iter (Wire.put_bytes buf) proof.Crypto.Merkle.path

let get_proof r =
  let leaf_index = Wire.get_u32 r in
  let count = Wire.get_u32 r in
  if count > 64 then raise Wire.Bad;
  let path = List.init count (fun _ -> Wire.get_bytes r) in
  if List.exists (fun d -> String.length d <> 32) path then raise Wire.Bad;
  { Crypto.Merkle.leaf_index; path }

let encode_msg msg =
  let buf = Buffer.create 128 in
  (match msg with
  | Disperse { round; root; data_len; frag_index; frag; proof } ->
    Wire.put_u8 buf 1;
    Wire.put_u32 buf round;
    Wire.put_bytes buf root;
    Wire.put_u32 buf data_len;
    Wire.put_u32 buf frag_index;
    Wire.put_bytes buf frag;
    put_proof buf proof
  | Echo { origin; round; root; data_len; frag_index; frag; proof } ->
    Wire.put_u8 buf 2;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf root;
    Wire.put_u32 buf data_len;
    Wire.put_u32 buf frag_index;
    Wire.put_bytes buf frag;
    put_proof buf proof
  | Ready { origin; round; root; data_len } ->
    Wire.put_u8 buf 3;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf root;
    Wire.put_u32 buf data_len);
  Buffer.contents buf

let decode_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        let frag_index = Wire.get_u32 r in
        let frag = Wire.get_bytes r in
        let proof = get_proof r in
        if String.length root <> 32 then None
        else Wire.finish r (Disperse { round; root; data_len; frag_index; frag; proof })
      | 2 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        let frag_index = Wire.get_u32 r in
        let frag = Wire.get_bytes r in
        let proof = get_proof r in
        if String.length root <> 32 then None
        else
          Wire.finish r
            (Echo { origin; round; root; data_len; frag_index; frag; proof })
      | 3 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        if String.length root <> 32 then None
        else Wire.finish r (Ready { origin; round; root; data_len })
      | _ -> None)

let msg_bits msg = Wire.bits (encode_msg msg)

(* All quorum state is keyed by the pair (root, data_len): a Byzantine
   process that lies about either is voting for a different commitment
   and cannot poison the honest one. *)
type commit = { root : string; data_len : int }

let same_commit a b = a.data_len = b.data_len && String.equal a.root b.root

(* What one commitment has gathered: fragment index -> (fragment, the
   leaf digest it was verified with), and the inner-node hashes its
   proofs and its root rebuild share *)
type slot = {
  frags : (int, string * string) Hashtbl.t;
  memo : Crypto.Merkle.memo;
}

type instance = {
  mutable echoed : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  mutable discarded : bool;
  slots : (commit, slot) Hashtbl.t;  (* emptied once finished *)
  echoes : commit Tally.t;
  readies : commit Tally.t;
}

type t = {
  net : msg Net.Port.t;
  me : int;
  n : int;
  f : int;
  k : int;
  coder : Crypto.Reed_solomon.coder;
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
        discarded = false;
        slots = Hashtbl.create 4;
        echoes = Tally.create t.n;
        readies = Tally.create t.n }
    in
    Tbl.add t.instances key inst;
    inst

let quorum t = (2 * t.f) + 1
let amplify t = t.f + 1

(* Delivering or discarding needs 2f+1 counted Readies, so this
   process's own Ready has already gone out by then: nothing a later
   Echo carries can change a message or a decision. A finished instance
   ignores Echoes and keeps no fragments. *)
let finished inst = inst.delivered || inst.discarded

let finish inst ~delivered =
  if delivered then inst.delivered <- true else inst.discarded <- true;
  Hashtbl.reset inst.slots

(* Check that [frag]'s proof places it at [frag_index] under [commit];
   if so, keep it with its leaf digest (unless the instance is
   finished). A commitment gets a slot only once a fragment verifies *)
let accept_fragment t inst ~commit ~frag ~proof ~frag_index =
  if
    frag_index <> proof.Crypto.Merkle.leaf_index
    || String.length frag
       <> Crypto.Reed_solomon.fragment_length t.coder ~data_len:commit.data_len
  then false
  else begin
    let known = Hashtbl.find_opt inst.slots commit in
    let slot =
      match known with
      | Some slot -> slot
      | None ->
        { frags = Hashtbl.create 8; memo = Crypto.Merkle.memo ~leaf_count:t.n }
    in
    let leaf = Crypto.Merkle.leaf_digest frag in
    let ok =
      Crypto.Merkle.verify_digest ~memo:slot.memo ~root:commit.root
        ~leaf_count:t.n ~leaf_digest:leaf proof
    in
    if ok && not (finished inst) then begin
      if Option.is_none known then Hashtbl.add inst.slots commit slot;
      if not (Hashtbl.mem slot.frags frag_index) then
        Hashtbl.add slot.frags frag_index (frag, leaf)
    end;
    ok
  end

let send_ready t inst ~origin ~round ~commit =
  if not inst.ready_sent then begin
    inst.ready_sent <- true;
    phase t ~origin ~round "ready";
    let msg =
      Ready { origin; round; root = commit.root; data_len = commit.data_len }
    in
    Net.Port.broadcast t.net ~src:t.me ~kind:"avid-ready"
      ~bits:(msg_bits msg) msg
  end

let try_deliver t inst ~origin ~round ~commit =
  if
    (not (finished inst))
    && Tally.count inst.readies ~equal:same_commit commit >= quorum t
  then
    match Hashtbl.find_opt inst.slots commit with
    | Some { frags; memo } when Hashtbl.length frags >= t.k -> begin
      let pieces =
        Hashtbl.fold (fun i (frag, _) acc -> (i, frag) :: acc) frags []
      in
      match
        Crypto.Reed_solomon.decode t.coder ~data_len:commit.data_len pieces
      with
      | exception Invalid_argument _ ->
        finish inst ~delivered:false;
        phase t ~origin ~round "discard"
      | payload ->
        (* re-encode and check the committed root: rejects Byzantine
           non-codeword dispersals deterministically, so every correct
           process makes the same deliver/discard decision. A stored
           fragment's verified leaf digest stands in for hashing the
           re-encoded one only where the two are byte-equal, and inner
           nodes whose children the proofs already hashed come from
           the memo *)
        let re_frags = Crypto.Reed_solomon.encode t.coder payload in
        let leaves =
          Array.mapi
            (fun i frag ->
              match Hashtbl.find_opt frags i with
              | Some (stored, leaf) when String.equal stored frag -> leaf
              | _ -> Crypto.Merkle.leaf_digest frag)
            re_frags
        in
        let tree = Crypto.Merkle.of_leaf_digests ~memo leaves in
        if String.equal (Crypto.Merkle.root tree) commit.root then begin
          finish inst ~delivered:true;
          phase t ~origin ~round "deliver";
          t.deliver ~payload ~round ~source:origin
        end
        else begin
          finish inst ~delivered:false;
          phase t ~origin ~round "discard"
        end
    end
    | _ -> ()

let handle t ~src msg =
  let sp = Prof.enter "rbc.avid.recv" in
  (try
     match msg with
  | Disperse { round; root; data_len; frag_index; frag; proof } ->
    let origin = src in
    let commit = { root; data_len } in
    let inst = get_instance t (origin, round) in
    if
      frag_index = t.me
      && (not inst.echoed)
      && accept_fragment t inst ~commit ~frag ~proof ~frag_index
    then begin
      inst.echoed <- true;
      phase t ~origin ~round "echo";
      let msg = Echo { origin; round; root; data_len; frag_index; frag; proof } in
      Net.Port.broadcast t.net ~src:t.me ~kind:"avid-echo"
        ~bits:(msg_bits msg) msg
    end
  | Echo { origin; round; root; data_len; frag_index; frag; proof } ->
    let commit = { root; data_len } in
    let inst = get_instance t (origin, round) in
    if
      (not (finished inst))
      && accept_fragment t inst ~commit ~frag ~proof ~frag_index
    then begin
      let count = Tally.vote inst.echoes ~equal:same_commit ~voter:src commit in
      if count >= quorum t then send_ready t inst ~origin ~round ~commit;
      try_deliver t inst ~origin ~round ~commit
    end
  | Ready { origin; round; root; data_len } ->
    let commit = { root; data_len } in
    let inst = get_instance t (origin, round) in
    let count = Tally.vote inst.readies ~equal:same_commit ~voter:src commit in
    if count >= amplify t then send_ready t inst ~origin ~round ~commit;
    try_deliver t inst ~origin ~round ~commit
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let create_port ~port ~me ~f ~deliver =
  let n = Net.Port.n port in
  let k = f + 1 in
  let t =
    { net = port;
      me;
      n;
      f;
      k;
      coder = Crypto.Reed_solomon.make ~k ~n;
      deliver;
      instances = Tbl.create 64;
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let create ~net ~me ~f ~deliver =
  create_port ~port:(Net.Port.of_network net) ~me ~f ~deliver

let disperse t ~round ~frags ~data_len =
  phase t ~origin:t.me ~round "disperse";
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree in
  Array.iteri
    (fun i frag ->
      let proof = Crypto.Merkle.prove tree i in
      let msg = Disperse { round; root; data_len; frag_index = i; frag; proof } in
      Net.Port.send t.net ~src:t.me ~dst:i ~kind:"avid-disperse"
        ~bits:(msg_bits msg) msg)
    frags

let bcast t ~payload ~round =
  let sp = Prof.enter "rbc.avid.bcast" in
  (try
     let frags = Crypto.Reed_solomon.encode t.coder payload in
     disperse t ~round ~frags ~data_len:(String.length payload)
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let inject_disperse t ~dsts ~round ~payload =
  let frags = Crypto.Reed_solomon.encode t.coder payload in
  let data_len = String.length payload in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree in
  List.iter
    (fun i ->
      if i >= 0 && i < t.n then begin
        let proof = Crypto.Merkle.prove tree i in
        let msg =
          Disperse { round; root; data_len; frag_index = i; frag = frags.(i); proof }
        in
        Net.Port.send t.net ~src:t.me ~dst:i ~kind:"avid-disperse"
          ~bits:(msg_bits msg) msg
      end)
    dsts

let bcast_inconsistent t ~payload ~round =
  let frags = Crypto.Reed_solomon.encode t.coder payload in
  (* corrupt one parity fragment before committing: the vector is no
     longer a codeword, so the re-encode check must fail everywhere *)
  let last = Array.length frags - 1 in
  frags.(last) <-
    String.map (fun c -> Char.chr (Char.code c lxor 0xFF)) frags.(last);
  disperse t ~round ~frags ~data_len:(String.length payload)
