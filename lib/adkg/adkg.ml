open Rbc.Rbc_intf

type msg =
  | Commit of { dealer : int; commitment : string array }
      (* commitment.(j) = H(P_dealer(j+1)); broadcast *)
  | Deal of { dealer : int; share : int } (* private: P_dealer(me+1) *)
  | Ack of { dealer : int } (* broadcast: my share verified *)
  | Recover_req of { dealer : int }
  | Recover_share of { dealer : int; x : int; y : int }

type dealing = {
  mutable commitment : string array option;
  mutable my_share : int option; (* verified against the commitment *)
  mutable pending_share : int option; (* arrived before the commitment *)
  ackers : Voters.t;
  mutable acked : bool;
  mutable recovery_points : (int * int) list; (* verified (x, y) pairs *)
  mutable recover_requested : bool;
}

type t = {
  net : msg Net.Network.t;
  rng : Stdx.Rng.t;
  me : int;
  n : int;
  f : int;
  on_key : key:int -> qualified:int list -> unit;
  mutable my_poly : int array; (* degree f; coeffs.(0) is my secret *)
  dealings : (int, dealing) Hashtbl.t;
  certified : Voters.t; (* dealers with 2f+1 acks *)
  mutable vaba : Baselines.Vaba.t option;
  mutable vaba_started : bool;
  mutable qualified : int list option;
  mutable key : int option;
  mutable started : bool;
}

let share_digest y = Crypto.Sha256.digest_string (Printf.sprintf "adkg:%d" y)

let dealing t dealer =
  match Hashtbl.find_opt t.dealings dealer with
  | Some d -> d
  | None ->
    let d =
      { commitment = None;
        my_share = None;
        pending_share = None;
        ackers = Voters.create t.n;
        acked = false;
        recovery_points = [];
        recover_requested = false }
    in
    Hashtbl.add t.dealings dealer d;
    d

(* ---- qualified-set serialization (rides through VABA) ---- *)

let set_to_string ids = String.concat "," (List.map string_of_int ids)

let set_of_string ~n ~f s =
  match
    List.map int_of_string_opt (String.split_on_char ',' s)
    |> List.fold_left
         (fun acc x ->
           match (acc, x) with Some acc, Some x -> Some (x :: acc) | _ -> None)
         (Some [])
  with
  | Some ids ->
    let ids = List.rev ids in
    let sorted_distinct = List.sort_uniq compare ids = ids in
    if
      sorted_distinct
      && List.length ids >= f + 1
      && List.for_all (fun i -> i >= 0 && i < n) ids
    then Some ids
    else None
  | None -> None

(* ---- completion ---- *)

let try_finish t =
  match (t.qualified, t.key) with
  | Some q, None ->
    let shares =
      List.map (fun dealer -> (dealing t dealer).my_share) q
    in
    if List.for_all Option.is_some shares then begin
      let key =
        List.fold_left
          (fun acc s -> Crypto.Field.add acc (Option.get s))
          0 shares
      in
      t.key <- Some key;
      t.on_key ~key ~qualified:q
    end
    else
      (* ask the network to recover the missing shares *)
      List.iter
        (fun dealer ->
          let d = dealing t dealer in
          if d.my_share = None && not d.recover_requested then begin
            d.recover_requested <- true;
            (* u8 tag + u32 dealer *)
            Net.Network.broadcast t.net ~src:t.me ~kind:"adkg-recover-req"
              ~bits:(8 * 5)
              (Recover_req { dealer })
          end)
        q
  | _ -> ()

let on_vaba_decide t ~value =
  if t.qualified = None then
    match set_of_string ~n:t.n ~f:t.f value with
    | Some q ->
      t.qualified <- Some q;
      try_finish t
    | None -> () (* unreachable: VABA's validity predicate filters *)

(* ---- share verification ---- *)

let verify_and_store t ~dealer (d : dealing) =
  match (d.commitment, d.pending_share) with
  | Some commitment, Some share when d.my_share = None ->
    if
      t.me < Array.length commitment
      && String.equal (share_digest share) commitment.(t.me)
    then begin
      d.my_share <- Some share;
      if not d.acked then begin
        d.acked <- true;
        (* u8 tag + u32 dealer + 64-byte signature share *)
        Net.Network.broadcast t.net ~src:t.me ~kind:"adkg-ack"
          ~bits:(8 * (5 + 64))
          (Ack { dealer })
      end;
      try_finish t
    end
  | _ -> ()

let maybe_start_vaba t =
  if Voters.count t.certified >= t.f + 1 && not t.vaba_started then begin
    t.vaba_started <- true;
    match t.vaba with Some v -> Baselines.Vaba.start v | None -> ()
  end

let handle t ~src msg =
  match msg with
  | Commit { dealer; commitment } when dealer = src ->
    let d = dealing t dealer in
    if d.commitment = None && Array.length commitment = t.n then begin
      d.commitment <- Some commitment;
      verify_and_store t ~dealer d
    end
  | Commit _ -> () (* relayed commitments are ignored: source must match *)
  | Deal { dealer; share } when dealer = src ->
    let d = dealing t dealer in
    if d.pending_share = None then begin
      d.pending_share <- Some (Crypto.Field.of_int share);
      verify_and_store t ~dealer d
    end
  | Deal _ -> ()
  | Ack { dealer } ->
    let d = dealing t dealer in
    ignore (Voters.add d.ackers src);
    if Voters.count d.ackers >= (2 * t.f) + 1 && Voters.add t.certified dealer
    then maybe_start_vaba t
  | Recover_req { dealer } -> (
    let d = dealing t dealer in
    match d.my_share with
    | Some y ->
      (* u8 tag + u32 dealer + u32 x + u32 y *)
      Net.Network.send t.net ~src:t.me ~dst:src ~kind:"adkg-recover-share"
        ~bits:(8 * 13)
        (Recover_share { dealer; x = t.me + 1; y })
    | None -> ())
  | Recover_share { dealer; x; y } -> (
    let d = dealing t dealer in
    match (d.commitment, d.my_share) with
    | Some commitment, None
      when x = src + 1
           && x - 1 < Array.length commitment
           && String.equal (share_digest y) commitment.(x - 1)
           && not (List.mem_assoc x d.recovery_points) ->
      d.recovery_points <- (x, y) :: d.recovery_points;
      if List.length d.recovery_points >= t.f + 1 then begin
        let mine =
          Crypto.Field.interpolate_at d.recovery_points ~x:(t.me + 1)
        in
        (* cross-check the interpolated point against the commitment:
           a Byzantine dealer whose committed values are not on one
           degree-f polynomial is detected here *)
        if String.equal (share_digest mine) commitment.(t.me) then begin
          d.my_share <- Some mine;
          try_finish t
        end
      end
    | _ -> ())

let create ~net ~vaba_net ~auth ~bootstrap_coin ~rng ~me ~f ~on_key () =
  let n = Net.Network.n net in
  let t =
    { net;
      rng;
      me;
      n;
      f;
      on_key;
      my_poly = Array.init (f + 1) (fun _ -> Stdx.Rng.int rng Crypto.Field.p);
      dealings = Hashtbl.create 16;
      certified = Voters.create n;
      vaba = None;
      vaba_started = false;
      qualified = None;
      key = None;
      started = false }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t.vaba <-
    Some
      (Baselines.Vaba.create ~net:vaba_net ~auth ~coin:bootstrap_coin ~me ~f
         ~tag:424_242
         ~valid:(fun v -> set_of_string ~n ~f v <> None)
         ~proposal:(fun ~me:_ -> set_to_string (Voters.elements t.certified))
         ~decide:(fun ~value ~view:_ -> on_vaba_decide t ~value)
         ());
  t

let start t =
  if not t.started then begin
    t.started <- true;
    let commitment =
      Array.init t.n (fun j ->
          share_digest (Crypto.Field.eval_poly t.my_poly (j + 1)))
    in
    (* u8 tag + u32 dealer + n 32-byte digests *)
    Net.Network.broadcast t.net ~src:t.me ~kind:"adkg-commit"
      ~bits:(8 * (5 + (t.n * 36)))
      (Commit { dealer = t.me; commitment });
    for j = 0 to t.n - 1 do
      (* u8 tag + u32 dealer + u32 share *)
      Net.Network.send t.net ~src:t.me ~dst:j ~kind:"adkg-deal"
        ~bits:(8 * 9)
        (Deal { dealer = t.me; share = Crypto.Field.eval_poly t.my_poly (j + 1) })
    done
  end

let key t = t.key

let qualified t = t.qualified

let derived_secret t =
  match t.qualified with
  | Some q when List.mem t.me q -> Some t.my_poly.(0)
  | _ -> None
