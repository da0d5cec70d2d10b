open Rbc.Rbc_intf

type msg =
  | Bval of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decided of { value : bool }
      (* halting layer: on deciding, broadcast Decided; f+1 matching
         Decided messages let stragglers decide without more rounds;
         2f+1 let a process halt entirely (quiescence) *)

let encode_msg msg =
  let buf = Buffer.create 8 in
  (match msg with
  | Bval { round; value } ->
    Wire.put_u8 buf 1;
    Wire.put_u32 buf round;
    Wire.put_bool buf value
  | Aux { round; value } ->
    Wire.put_u8 buf 2;
    Wire.put_u32 buf round;
    Wire.put_bool buf value
  | Decided { value } ->
    Wire.put_u8 buf 3;
    Wire.put_bool buf value);
  Buffer.contents buf

let msg_bits msg = Wire.bits (encode_msg msg)

type round_state = {
  bval_received : Voters.t * Voters.t; (* senders for false, true *)
  mutable bval_sent : bool * bool; (* relayed false / true *)
  mutable bin_values : bool list;
  mutable aux_sent : bool;
  aux_received : bool Tally.t; (* first AUX per sender *)
  mutable done_ : bool;
}

type t = {
  net : msg Net.Network.t;
  coin : Crypto.Threshold_coin.t;
  me : int;
  n : int;
  f : int;
  tag : int;
  decide_cb : bool -> unit;
  rounds : (int, round_state) Hashtbl.t;
  mutable round : int;
  mutable est : bool;
  mutable decided : bool option;
  mutable halted : bool;
  mutable started : bool;
  decided_senders : Voters.t * Voters.t; (* Decided senders per value *)
}

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some st -> st
  | None ->
    let st =
      { bval_received = (Voters.create t.n, Voters.create t.n);
        bval_sent = (false, false);
        bin_values = [];
        aux_sent = false;
        aux_received = Tally.create t.n;
        done_ = false }
    in
    Hashtbl.add t.rounds r st;
    st

let quorum t = (2 * t.f) + 1

(* The common coin for this instance's round r. The coin returns a
   process index; its parity is an unpredictable fair bit. *)
let coin_bit t ~round =
  let instance = (((t.tag * 1_000_003) + round) * 7) + 3 in
  let shares =
    (* local deterministic derivation: every process can compute every
       share, so the combine is a pure function of (tag, round) — this
       models the "coin already set up" case; the DAG-Rider stack uses
       the full share-exchange transport instead *)
    List.init
      (Crypto.Threshold_coin.threshold t.coin)
      (fun holder -> Crypto.Threshold_coin.make_share t.coin ~holder ~instance)
  in
  match Crypto.Threshold_coin.combine t.coin ~instance shares with
  | Some leader -> leader land 1 = 1
  | None -> false (* unreachable: threshold shares supplied *)

let send_bval t ~round ~value =
  let st = round_state t round in
  let sent_f, sent_t = st.bval_sent in
  let already = if value then sent_t else sent_f in
  if not already then begin
    st.bval_sent <- (if value then (sent_f, true) else (true, sent_t));
    let msg = Bval { round; value } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-bval"
      ~bits:(msg_bits msg) msg
  end

let send_aux t ~round ~value =
  let st = round_state t round in
  if not st.aux_sent then begin
    st.aux_sent <- true;
    let msg = Aux { round; value } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-aux"
      ~bits:(msg_bits msg) msg
  end

let announce_decide t v =
  if t.decided = None then begin
    t.decided <- Some v;
    let msg = Decided { value = v } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-decided"
      ~bits:(msg_bits msg) msg;
    t.decide_cb v
  end

let rec try_progress t ~round =
  if round = t.round then begin
    let st = round_state t round in
    (* step 2: first value entering bin_values triggers our AUX *)
    (match st.bin_values with
    | v :: _ when not st.aux_sent -> send_aux t ~round ~value:v
    | _ -> ());
    (* step 3: 2f+1 AUX from distinct senders, all carrying values that
       made it into bin_values *)
    if (not st.done_) && st.aux_sent then begin
      let aux v = Tally.count st.aux_received ~equal:Bool.equal v in
      let vals = List.filter (fun v -> aux v > 0) st.bin_values in
      if List.fold_left (fun acc v -> acc + aux v) 0 vals >= quorum t then begin
        st.done_ <- true;
        let c = coin_bit t ~round in
        (match vals with
        | [ v ] ->
          if v = c then announce_decide t v;
          t.est <- v
        | _ -> t.est <- c);
        (* advance even after deciding: stragglers' rounds must be able
           to complete; quiescence comes when everyone stops sending *)
        t.round <- round + 1;
        start_round t
      end
    end
  end

and start_round t =
  let round = t.round in
  send_bval t ~round ~value:t.est;
  (* messages for this round may have arrived early *)
  try_progress t ~round

let handle t ~src msg =
  if not t.halted then
  match msg with
  | Decided { value } ->
    let df, dt = t.decided_senders in
    let set = if value then dt else df in
    ignore (Voters.add set src);
    let count = Voters.count set in
    (* f+1 distinct deciders include a correct one: safe to adopt *)
    if count >= t.f + 1 then announce_decide t value;
    (* 2f+1: every correct process will reach f+1 without us *)
    if count >= quorum t && t.decided = Some value then t.halted <- true
  | Bval { round; value } ->
    let st = round_state t round in
    let rf, rt = st.bval_received in
    let set = if value then rt else rf in
    ignore (Voters.add set src);
    let count = Voters.count set in
    (* f+1: a correct process backs the value — relay it *)
    if count >= t.f + 1 then send_bval t ~round ~value;
    (* 2f+1: the value is anchored — it may be AUXed and decided *)
    if count >= quorum t && not (List.mem value st.bin_values) then begin
      st.bin_values <- value :: st.bin_values;
      try_progress t ~round
    end;
    try_progress t ~round
  | Aux { round; value } ->
    let st = round_state t round in
    if Tally.vote st.aux_received ~equal:Bool.equal ~voter:src value > 0 then
      try_progress t ~round

let create ~net ~coin ~me ~f ~tag ~decide () =
  let n = Net.Network.n net in
  let t =
    { net;
      coin;
      me;
      n;
      f;
      tag;
      decide_cb = decide;
      rounds = Hashtbl.create 8;
      round = 1;
      est = false;
      decided = None;
      halted = false;
      started = false;
      decided_senders = (Voters.create n, Voters.create n) }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t

let propose t value =
  if t.started then invalid_arg "Abba.propose: already proposed";
  t.started <- true;
  t.est <- value;
  start_round t

let decided t = t.decided

let rounds_used t = t.round - 1
