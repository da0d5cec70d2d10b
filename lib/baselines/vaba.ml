open Rbc.Rbc_intf

type msg =
  | Stage of { view : int; stage : int; promoter : int; value : string }
  | Ack of { view : int; stage : int; promoter : int }
  | Done of { view : int; promoter : int }
  | Coin_share of { view : int; share : Crypto.Threshold_coin.share }
  | View_change of {
      view : int;
      leader : int;
      stage_seen : int; (* 0 = nothing seen *)
      value : string option;
    }
  | Decide of { value : string; view : int }

(* Wire codec: quorum certificates attached to stage >= 2 / done /
   decide messages are encoded as 2f+1 64-byte signature placeholders
   (the size a BLS multisig bundle would occupy); everything else is the
   actual content. Senders charge the exact encoded size. *)

let cert_placeholder_bytes = 64

let encode_msg ~quorum msg =
  let buf = Buffer.create 64 in
  let put_cert () =
    Buffer.add_string buf (String.make (quorum * cert_placeholder_bytes) '\000')
  in
  (match msg with
  | Stage { view; stage; promoter; value } ->
    Wire.put_u8 buf 1;
    Wire.put_u32 buf view;
    Wire.put_u8 buf stage;
    Wire.put_u32 buf promoter;
    Wire.put_bytes buf value;
    if stage > 1 then put_cert ()
  | Ack { view; stage; promoter } ->
    Wire.put_u8 buf 2;
    Wire.put_u32 buf view;
    Wire.put_u8 buf stage;
    Wire.put_u32 buf promoter;
    (* the ack is itself a signature share *)
    Buffer.add_string buf (String.make cert_placeholder_bytes '\000')
  | Done { view; promoter } ->
    Wire.put_u8 buf 3;
    Wire.put_u32 buf view;
    Wire.put_u32 buf promoter;
    put_cert ()
  | Coin_share { view; share } ->
    Wire.put_u8 buf 4;
    Wire.put_u32 buf view;
    Wire.put_u32 buf share.Crypto.Threshold_coin.holder;
    Wire.put_u32 buf share.Crypto.Threshold_coin.instance;
    Wire.put_u32 buf share.Crypto.Threshold_coin.value
  | View_change { view; leader; stage_seen; value } ->
    Wire.put_u8 buf 5;
    Wire.put_u32 buf view;
    Wire.put_u32 buf leader;
    Wire.put_u8 buf stage_seen;
    (match value with
    | None -> Wire.put_bool buf false
    | Some v ->
      Wire.put_bool buf true;
      Wire.put_bytes buf v;
      put_cert ())
  | Decide { value; view } ->
    Wire.put_u8 buf 6;
    Wire.put_u32 buf view;
    Wire.put_bytes buf value;
    put_cert ());
  Buffer.contents buf

(* What party i remembers about view v. *)
type view_state = {
  mutable my_value : string;
  mutable my_stage : int; (* stage currently collecting acks for; 0 = not started *)
  mutable acks : Voters.t; (* acks for my current stage *)
  (* promoter -> (highest stage acked, its value): our key/lock/commit
     memory, reported at view change *)
  promotions : (int, int * string) Hashtbl.t;
  dones : Voters.t; (* promoters that completed stage 4 *)
  mutable shares : Crypto.Threshold_coin.share list;
  mutable share_sent : bool;
  mutable leader : int option;
  mutable vc_sent : bool;
  vc_reporters : Voters.t;
  mutable vc_reports : (int * string option) list; (* stage, value *)
  mutable vc_resolved : bool;
  mutable adopted : bool; (* my_value was adopted from a leader: keep it *)
}

type t = {
  net : msg Net.Network.t;
  auth : Crypto.Auth.t;
  coin : Crypto.Threshold_coin.t;
  me : int;
  n : int;
  f : int;
  tag : int;
  proposal : me:int -> string;
  valid : string -> bool;
  decide_cb : value:string -> view:int -> unit;
  views : (int, view_state) Hashtbl.t;
  mutable current_view : int;
  mutable decided : string option;
  mutable started : bool;
}

let quorum t = (2 * t.f) + 1

let coin_instance t ~view = (t.tag * 1_000_003) + view

let fresh_view_state t value =
  { my_value = value;
    my_stage = 0;
    acks = Voters.create t.n;
    promotions = Hashtbl.create 8;
    dones = Voters.create t.n;
    shares = [];
    share_sent = false;
    leader = None;
    vc_sent = false;
    vc_reporters = Voters.create t.n;
    vc_reports = [];
    vc_resolved = false;
    adopted = false }

let view_state t view =
  match Hashtbl.find_opt t.views view with
  | Some vs -> vs
  | None ->
    (* created on demand: messages for future views arrive early; the
       proposal is overwritten with the adopted value when we enter it *)
    let vs = fresh_view_state t (t.proposal ~me:t.me) in
    Hashtbl.add t.views view vs;
    vs

let broadcast_stage t vs ~view ~stage =
  vs.my_stage <- stage;
  vs.acks <- Voters.create t.n;
  let msg = Stage { view; stage; promoter = t.me; value = vs.my_value } in
  Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-stage"
    ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
    msg

let enter_view t view =
  if t.decided = None then begin
    t.current_view <- view;
    let vs = view_state t view in
    if vs.my_stage = 0 then begin
      (* the proposal may have changed since this view's state was
         created on demand (e.g. Dumbo's certificate arriving late);
         adopted values take precedence *)
      if not vs.adopted then vs.my_value <- t.proposal ~me:t.me;
      broadcast_stage t vs ~view ~stage:1
    end
  end

let do_decide t ~value ~view =
  if t.decided = None then begin
    t.decided <- Some value;
    let msg = Decide { value; view } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-decide"
      ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
      msg;
    t.decide_cb ~value ~view
  end

let resolve_view_change t vs ~view =
  if (not vs.vc_resolved) && Voters.count vs.vc_reporters >= quorum t then begin
    vs.vc_resolved <- true;
    let best =
      List.fold_left
        (fun acc (stage, value) ->
          match (acc, value) with
          | Some (bs, _), Some v when stage > bs -> Some (stage, v)
          | None, Some v when stage > 0 -> Some (stage, v)
          | _ -> acc)
        None vs.vc_reports
    in
    (match best with
    | Some (stage, value) when stage >= 4 -> do_decide t ~value ~view
    | Some (stage, value) when stage >= 2 ->
      (* adopt the leader's value for the next view (key/lock seen) *)
      let next = view_state t (view + 1) in
      if next.my_stage = 0 then begin
        next.my_value <- value;
        next.adopted <- true
      end
    | Some _ | None -> ());
    if t.decided = None then enter_view t (view + 1)
  end

let try_elect t vs ~view =
  if vs.leader = None then begin
    match
      Crypto.Threshold_coin.combine t.coin ~instance:(coin_instance t ~view)
        vs.shares
    with
    | None -> ()
    | Some leader ->
      vs.leader <- Some leader;
      if not vs.vc_sent then begin
        vs.vc_sent <- true;
        let stage_seen, value =
          match Hashtbl.find_opt vs.promotions leader with
          | Some (s, v) -> (s, Some v)
          | None -> (0, None)
        in
        let msg = View_change { view; leader; stage_seen; value } in
        Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-viewchange"
          ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
          msg
      end
  end

let handle t ~src msg =
  if t.decided = None then
    match msg with
    | Stage { view; stage; promoter; value } when view >= t.current_view ->
      let vs = view_state t view in
      (* remember the highest stage we acknowledge per promoter *)
      let known =
        match Hashtbl.find_opt vs.promotions promoter with
        | Some (s, _) -> s
        | None -> 0
      in
      if stage > known && t.valid value then begin
        Hashtbl.replace vs.promotions promoter (stage, value);
        let msg = Ack { view; stage; promoter } in
        Net.Network.send t.net ~src:t.me ~dst:promoter ~kind:"vaba-ack"
          ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
          msg
      end
    | Stage _ -> ()
    | Ack { view; stage; promoter } when promoter = t.me ->
      let vs = view_state t view in
      if stage = vs.my_stage then begin
        ignore (Voters.add vs.acks src);
        if Voters.count vs.acks >= quorum t then
          if stage < 4 then broadcast_stage t vs ~view ~stage:(stage + 1)
          else begin
            vs.my_stage <- 5;
            let msg = Done { view; promoter = t.me } in
            Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-done"
              ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
              msg
          end
      end
    | Ack _ -> ()
    | Done { view; promoter } ->
      let vs = view_state t view in
      ignore (Voters.add vs.dones promoter);
      if Voters.count vs.dones >= quorum t && not vs.share_sent then begin
        vs.share_sent <- true;
        (* the coin is flipped only after 2f+1 promotions completed *)
        let share =
          Crypto.Threshold_coin.make_share t.coin ~holder:t.me
            ~instance:(coin_instance t ~view)
        in
        let msg = Coin_share { view; share } in
        Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-coin"
          ~bits:(Wire.bits (encode_msg ~quorum:(quorum t) msg))
          msg
      end
    | Coin_share { view; share } ->
      let vs = view_state t view in
      if Crypto.Threshold_coin.verify_share t.coin share then begin
        vs.shares <- share :: vs.shares;
        try_elect t vs ~view
      end
    | View_change { view; leader = _; stage_seen; value } ->
      let vs = view_state t view in
      if Voters.add vs.vc_reporters src then begin
        vs.vc_reports <- (stage_seen, value) :: vs.vc_reports;
        resolve_view_change t vs ~view
      end
    | Decide { value; view } -> do_decide t ~value ~view

let create ~net ~auth ~coin ~me ~f ~tag ?(valid = fun _ -> true) ~proposal ~decide () =
  let n = Net.Network.n net in
  let t =
    { net;
      auth;
      coin;
      me;
      n;
      f;
      tag;
      proposal;
      valid;
      decide_cb = decide;
      views = Hashtbl.create 8;
      current_view = 1;
      decided = None;
      started = false }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    enter_view t 1
  end

let decided t = t.decided

let view t = t.current_view
