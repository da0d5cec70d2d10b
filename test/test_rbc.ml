(* Tests for the three reliable-broadcast instantiations: the
   abstraction's Agreement / Integrity / Validity properties under
   random asynchronous schedules, plus Byzantine-sender attacks. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

type backend = B_bracha | B_avid | B_gossip

let backend_name = function
  | B_bracha -> "bracha"
  | B_avid -> "avid"
  | B_gossip -> "gossip"

(* A fleet of RBC endpoints over one network; returns per-process
   delivery logs and broadcast handles. *)
type fleet = {
  engine : Sim.Engine.t;
  deliveries : (string * int * int) list ref array; (* payload, round, source *)
  bcast : int -> payload:string -> round:int -> unit;
  counters : Metrics.Counters.t;
}

let make_fleet ?(seed = 9) ~backend ~n ~f () =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let rng = Stdx.Rng.create seed in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
  let deliveries = Array.init n (fun _ -> ref []) in
  let deliver_to i ~payload ~round ~source =
    deliveries.(i) := (payload, round, source) :: !(deliveries.(i))
  in
  let bcast =
    match backend with
    | B_bracha ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let eps =
        Array.init n (fun me ->
            Rbc.Bracha.create ~net ~me ~f ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Bracha.bcast eps.(i) ~payload ~round
    | B_avid ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let eps =
        Array.init n (fun me ->
            Rbc.Avid.create ~net ~me ~f ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Avid.bcast eps.(i) ~payload ~round
    | B_gossip ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let eps =
        Array.init n (fun me ->
            Rbc.Gossip.create ~net ~rng:(Stdx.Rng.split rng) ~me ~f
              ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Gossip.bcast eps.(i) ~payload ~round
  in
  { engine; deliveries; bcast; counters }

let run fleet = ignore (Sim.Engine.run fleet.engine ())

(* -- generic properties, instantiated per backend -- *)

let test_validity backend () =
  let n = 7 and f = 2 in
  let fleet = make_fleet ~backend ~n ~f () in
  fleet.bcast 3 ~payload:"hello" ~round:1;
  run fleet;
  Array.iteri
    (fun i log ->
      checki
        (Printf.sprintf "%s: p%d delivered once" (backend_name backend) i)
        1 (List.length !log);
      let payload, round, source = List.hd !log in
      checks "payload" "hello" payload;
      checki "round" 1 round;
      checki "source" 3 source)
    fleet.deliveries

let test_all_senders backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  for i = 0 to n - 1 do
    fleet.bcast i ~payload:(Printf.sprintf "m%d" i) ~round:1
  done;
  run fleet;
  Array.iter
    (fun log ->
      checki "four instances delivered" 4 (List.length !log);
      let sources = List.sort compare (List.map (fun (_, _, s) -> s) !log) in
      Alcotest.(check (list int)) "one per source" [ 0; 1; 2; 3 ] sources)
    fleet.deliveries

let test_multiple_rounds backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  for r = 1 to 5 do
    fleet.bcast 0 ~payload:(Printf.sprintf "r%d" r) ~round:r
  done;
  run fleet;
  Array.iter
    (fun log ->
      checki "five rounds" 5 (List.length !log);
      List.iter
        (fun (payload, round, _) ->
          checks "round matches payload" (Printf.sprintf "r%d" round) payload)
        !log)
    fleet.deliveries

let test_agreement_on_logs backend () =
  (* same multiset of (payload, round, source) everywhere *)
  let n = 7 and f = 2 in
  let fleet = make_fleet ~seed:77 ~backend ~n ~f () in
  for i = 0 to n - 1 do
    for r = 1 to 3 do
      fleet.bcast i ~payload:(Printf.sprintf "p%d-r%d" i r) ~round:r
    done
  done;
  run fleet;
  let canon log = List.sort compare !log in
  let reference = canon fleet.deliveries.(0) in
  checki "reference complete" 21 (List.length reference);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "p%d log" i)
        reference (canon log))
    fleet.deliveries

let test_empty_payload backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  fleet.bcast 2 ~payload:"" ~round:1;
  run fleet;
  Array.iter
    (fun log ->
      checki "delivered" 1 (List.length !log);
      let payload, _, _ = List.hd !log in
      checks "empty payload survives" "" payload)
    fleet.deliveries

let test_large_payload backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  let big = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  fleet.bcast 1 ~payload:big ~round:1;
  run fleet;
  Array.iter
    (fun log ->
      let payload, _, _ = List.hd !log in
      checkb "large payload intact" true (String.equal big payload))
    fleet.deliveries

(* -- Bracha-specific Byzantine tests -- *)

let make_bracha_raw ~n ~f ~seed =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create seed) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Bracha.create ~net ~me ~f ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  (engine, net, deliveries, eps)

let test_bracha_equivocation_no_split () =
  (* Byzantine p0 sends Init "A" to half the processes and Init "B" to
     the other half. Agreement: correct processes must not deliver
     different payloads (delivering nothing is allowed). *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:5 in
  for dst = 0 to n - 1 do
    let payload = if dst < n / 2 then "A" else "B" in
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-init" ~bits:128
      (Rbc.Bracha.Init { round = 1; payload })
  done;
  ignore (Sim.Engine.run engine ());
  let delivered =
    Array.to_list deliveries
    |> List.concat_map (fun log -> List.map (fun (p, _, _) -> p) !log)
    |> List.sort_uniq compare
  in
  checkb "at most one payload delivered" true (List.length delivered <= 1)

let test_bracha_equivocation_majority_converges () =
  (* 2f+1 processes get "A": A can gather an echo quorum, so if anything
     is delivered it is "A" everywhere *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:6 in
  for dst = 0 to n - 1 do
    let payload = if dst < 3 then "A" else "B" in
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-init" ~bits:128
      (Rbc.Bracha.Init { round = 1; payload })
  done;
  ignore (Sim.Engine.run engine ());
  Array.iteri
    (fun i log ->
      match !log with
      | [] -> Alcotest.fail (Printf.sprintf "p%d should deliver A" i)
      | [ (p, _, _) ] -> checks "A delivered" "A" p
      | _ -> Alcotest.fail "duplicate delivery")
    deliveries

let test_bracha_no_delivery_without_quorum () =
  (* READYs forged by the (single, f = 1) Byzantine process stay below
     the f+1 amplification threshold: no correct process echoes them and
     nothing is delivered. (With two forgers the fault bound would be
     violated and amplification would rightly fire.) *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:7 in
  for dst = 1 to 3 do
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-ready" ~bits:128
      (Rbc.Bracha.Ready { origin = 0; round = 1; payload = "forged" })
  done;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "nothing delivered" 0 (List.length !log)) deliveries

let test_bracha_integrity_duplicate_init () =
  (* re-sending the same INIT must not cause duplicate delivery *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:8 in
  Rbc.Bracha.bcast eps.(2) ~payload:"x" ~round:1;
  ignore (Sim.Engine.run engine ());
  (* replay the init *)
  Net.Network.broadcast net ~src:2 ~kind:"bracha-init" ~bits:128
    (Rbc.Bracha.Init { round = 1; payload = "x" });
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "exactly once" 1 (List.length !log)) deliveries

let test_bracha_silent_faults_tolerated () =
  (* f silent processes: the rest still deliver *)
  let n = 7 and f = 2 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:9 in
  Net.Network.register net 5 (fun ~src:_ _ -> ());
  Net.Network.register net 6 (fun ~src:_ _ -> ());
  Rbc.Bracha.bcast eps.(0) ~payload:"live" ~round:1;
  ignore (Sim.Engine.run engine ());
  for i = 0 to 4 do
    checki (Printf.sprintf "p%d delivers" i) 1 (List.length !(deliveries.(i)))
  done

let test_bracha_fplus1_faults_stall () =
  (* with f+1 silent processes the quorum is unreachable: nothing can be
     delivered (the resilience bound is tight) *)
  let n = 7 and f = 2 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:10 in
  List.iter (fun i -> Net.Network.register net i (fun ~src:_ _ -> ())) [ 4; 5; 6 ];
  Rbc.Bracha.bcast eps.(0) ~payload:"stuck" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "no delivery" 0 (List.length !log)) deliveries

let test_bracha_vote_flood () =
  (* Byzantine p3 sends every process 1,000 distinct Echo and Ready
     payloads for p0's instance. Only its first vote of each kind counts,
     so the flood opens one bucket per kind and cannot push any payload
     toward a quorum: the honest payload is delivered, no flood payload *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:11 in
  Net.Network.register net 3 (fun ~src:_ _ -> ());
  for i = 1 to 1000 do
    let payload = Printf.sprintf "flood-%d" i in
    Net.Network.broadcast net ~src:3 ~kind:"bracha-echo" ~bits:128
      (Rbc.Bracha.Echo { origin = 0; round = 1; payload });
    Net.Network.broadcast net ~src:3 ~kind:"bracha-ready" ~bits:128
      (Rbc.Bracha.Ready { origin = 0; round = 1; payload })
  done;
  Rbc.Bracha.bcast eps.(0) ~payload:"honest" ~round:1;
  ignore (Sim.Engine.run engine ());
  for i = 0 to 2 do
    match !(deliveries.(i)) with
    | [ (p, 1, 0) ] -> checks (Printf.sprintf "p%d delivers" i) "honest" p
    | _ -> Alcotest.fail (Printf.sprintf "p%d: expected one delivery" i)
  done

let test_bracha_second_ready_not_counted () =
  (* p0 is the only live process; Readies for p1's instance are injected
     one at a time. Byzantine p3's first Ready names a forged payload,
     its second the honest one: the second must not count, or p3 plus
     one honest Ready would reach f+1, p0 would amplify, and its own
     Ready would complete a 2f+1 quorum with a single honest vote *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:12 in
  List.iter (fun i -> Net.Network.register net i (fun ~src:_ _ -> ())) [ 1; 2; 3 ];
  let ready ~src payload =
    Net.Network.send net ~src ~dst:0 ~kind:"bracha-ready" ~bits:128
      (Rbc.Bracha.Ready { origin = 1; round = 1; payload });
    ignore (Sim.Engine.run engine ())
  in
  ready ~src:3 "forged";
  ready ~src:3 "honest";
  ready ~src:1 "honest";
  checki "one honest Ready is not enough" 0 (List.length !(deliveries.(0)));
  ready ~src:2 "honest";
  match !(deliveries.(0)) with
  | [ (p, 1, 1) ] -> checks "two honest Readies amplify and deliver" "honest" p
  | _ -> Alcotest.fail "expected exactly one delivery"

(* -- AVID-specific tests -- *)

let make_avid_raw ~n ~f ~seed =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create seed) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Avid.create ~net ~me ~f ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  (engine, net, deliveries, eps)

let test_avid_inconsistent_dispersal_discarded () =
  let n = 4 and f = 1 in
  let engine, _, deliveries, eps = make_avid_raw ~n ~f ~seed:11 in
  Rbc.Avid.bcast_inconsistent eps.(0) ~payload:"evil payload" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter
    (fun log -> checki "non-codeword discarded everywhere" 0 (List.length !log))
    deliveries;
  (* and an honest dispersal on the same instance space still works *)
  Rbc.Avid.bcast eps.(1) ~payload:"good" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter
    (fun log ->
      checki "honest instance unaffected" 1 (List.length !log);
      let p, _, s = List.hd !log in
      checks "payload" "good" p;
      checki "source" 1 s)
    deliveries

let test_avid_fragment_size_economy () =
  (* AVID's total traffic for a large payload must be far below
     Bracha's (each process relays |m|/(f+1) + proofs instead of |m|) *)
  let n = 10 and f = 3 in
  let payload = String.make 100_000 'z' in
  let bracha = make_fleet ~backend:B_bracha ~n ~f () in
  bracha.bcast 0 ~payload ~round:1;
  run bracha;
  let avid = make_fleet ~backend:B_avid ~n ~f () in
  avid.bcast 0 ~payload ~round:1;
  run avid;
  let bracha_bits = Metrics.Counters.total_bits bracha.counters in
  let avid_bits = Metrics.Counters.total_bits avid.counters in
  checkb
    (Printf.sprintf "avid (%d) < bracha (%d) / 2" avid_bits bracha_bits)
    true
    (avid_bits * 2 < bracha_bits)

(* The Echo (valid fragment and proof) and the Ready process [src]
   would send for an n=4, k=2 dispersal of [payload] in [origin]'s
   round-1 instance *)
let avid_votes ~origin ~src payload =
  let coder = Crypto.Reed_solomon.make ~k:2 ~n:4 in
  let frags = Crypto.Reed_solomon.encode coder payload in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree and data_len = String.length payload in
  ( Rbc.Avid.Echo
      { origin;
        round = 1;
        root;
        data_len;
        frag_index = src;
        frag = frags.(src);
        proof = Crypto.Merkle.prove tree src },
    Rbc.Avid.Ready { origin; round = 1; root; data_len } )

let test_avid_vote_flood () =
  (* Byzantine p3 sends every process 1,000 valid Echoes and Readies for
     distinct dispersals of p0's instance: only its first vote of each
     kind counts, and the honest payload is still the one delivered *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_avid_raw ~n ~f ~seed:11 in
  Net.Network.register net 3 (fun ~src:_ _ -> ());
  for i = 1 to 1000 do
    let echo, ready =
      avid_votes ~origin:0 ~src:3 (Printf.sprintf "flood-%d" i)
    in
    Net.Network.broadcast net ~src:3 ~kind:"avid-echo" ~bits:128 echo;
    Net.Network.broadcast net ~src:3 ~kind:"avid-ready" ~bits:128 ready
  done;
  Rbc.Avid.bcast eps.(0) ~payload:"honest" ~round:1;
  ignore (Sim.Engine.run engine ());
  for i = 0 to 2 do
    match !(deliveries.(i)) with
    | [ (p, 1, 0) ] -> checks (Printf.sprintf "p%d delivers" i) "honest" p
    | _ -> Alcotest.fail (Printf.sprintf "p%d: expected one delivery" i)
  done

let test_avid_second_ready_not_counted () =
  (* as for Bracha: p0 is the only live process and holds k = f+1
     fragments of p1's dispersal from two Echoes (below the 2f+1 echo
     quorum). Byzantine p3's second Ready, for the honest commitment,
     must not count, or it and one honest Ready would reach f+1 *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_avid_raw ~n ~f ~seed:12 in
  List.iter (fun i -> Net.Network.register net i (fun ~src:_ _ -> ())) [ 1; 2; 3 ];
  let send ~src msg =
    Net.Network.send net ~src ~dst:0 ~kind:"avid" ~bits:128 msg;
    ignore (Sim.Engine.run engine ())
  in
  let echo src = fst (avid_votes ~origin:1 ~src "honest") in
  let honest = snd (avid_votes ~origin:1 ~src:1 "honest") in
  send ~src:1 (echo 1);
  send ~src:2 (echo 2);
  send ~src:3 (snd (avid_votes ~origin:1 ~src:3 "forged"));
  send ~src:3 honest;
  send ~src:1 honest;
  checki "one honest Ready is not enough" 0 (List.length !(deliveries.(0)));
  send ~src:2 honest;
  match !(deliveries.(0)) with
  | [ (p, 1, 1) ] -> checks "two honest Readies amplify and deliver" "honest" p
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_avid_finished_instance_ignores_echoes () =
  (* once p0's instance has delivered everywhere, replaying every Echo
     of it to every process sends nothing, delivers nothing again and
     hashes nothing: a finished instance skips the Merkle check *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_avid_raw ~n ~f ~seed:13 in
  Rbc.Avid.bcast eps.(0) ~payload:"honest" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "delivered once" 1 (List.length !log)) deliveries;
  let echoes =
    List.init n (fun src -> (src, fst (avid_votes ~origin:0 ~src "honest")))
  in
  let before = Net.Network.delivered_count net in
  let blocks = Crypto.Sha256.blocks () in
  List.iter
    (fun (src, echo) ->
      Net.Network.broadcast net ~src ~kind:"avid-echo" ~bits:128 echo)
    echoes;
  ignore (Sim.Engine.run engine ());
  checki "only the n * n replayed Echoes were delivered" (before + (n * n))
    (Net.Network.delivered_count net);
  checki "no hashing on a finished instance" blocks (Crypto.Sha256.blocks ());
  Array.iter (fun log -> checki "no second delivery" 1 (List.length !log)) deliveries

(* -- gossip-specific tests -- *)

let test_gossip_subquadratic_messages () =
  (* per-broadcast message count must scale well below n^2 for large n
     (the O(n log n) constant only separates from n^2 once n is big) *)
  let n = 100 and f = 33 in
  let fleet = make_fleet ~backend:B_gossip ~n ~f () in
  fleet.bcast 0 ~payload:"m" ~round:1;
  run fleet;
  let msgs = Metrics.Counters.total_messages fleet.counters in
  checkb (Printf.sprintf "messages (%d) < n^2 (%d)" msgs (n * n)) true
    (msgs < n * n);
  (* and well below Bracha's 2n^2 + n payload-bearing messages *)
  checkb "less than half of bracha's count" true (2 * msgs < (2 * n * n) + n);
  (* and it still delivered everywhere (whp property, fixed seed) *)
  Array.iter (fun log -> checki "delivered" 1 (List.length !log)) fleet.deliveries

let test_gossip_eventual_delivery_many_seeds () =
  (* the epsilon-failure is bounded: across seeds, deliveries happen at
     every process with these parameters — a regression canary for the
     sample-size tuning *)
  List.iter
    (fun seed ->
      let n = 16 and f = 5 in
      let fleet = make_fleet ~seed ~backend:B_gossip ~n ~f () in
      fleet.bcast (seed mod n) ~payload:"g" ~round:1;
      run fleet;
      let delivered =
        Array.fold_left (fun acc log -> acc + List.length !log) 0 fleet.deliveries
      in
      checki (Printf.sprintf "seed %d: all delivered" seed) n delivered)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* n = 4: every sample covers the whole network, so Gossip's thresholds
   are Bracha's (2f+1 echoes and readies, f+1 ready feedback) *)
let make_gossip_raw ~n ~f ~seed =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let rng = Stdx.Rng.create seed in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Gossip.create ~net ~rng:(Stdx.Rng.split rng) ~me ~f
          ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  (engine, net, deliveries, eps)

let test_gossip_vote_flood () =
  (* Byzantine p3 sends every process 1,000 distinct Echo and Ready
     digests for p0's instance: only its first vote of each kind counts,
     and the honest payload is delivered *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_gossip_raw ~n ~f ~seed:11 in
  Net.Network.register net 3 (fun ~src:_ _ -> ());
  for i = 1 to 1000 do
    let digest = Crypto.Sha256.digest_string (Printf.sprintf "flood-%d" i) in
    Net.Network.broadcast net ~src:3 ~kind:"gossip-echo" ~bits:128
      (Rbc.Gossip.Echo { origin = 0; round = 1; digest });
    Net.Network.broadcast net ~src:3 ~kind:"gossip-ready" ~bits:128
      (Rbc.Gossip.Ready { origin = 0; round = 1; digest })
  done;
  Rbc.Gossip.bcast eps.(0) ~payload:"honest" ~round:1;
  ignore (Sim.Engine.run engine ());
  for i = 0 to 2 do
    match !(deliveries.(i)) with
    | [ (p, 1, 0) ] -> checks (Printf.sprintf "p%d delivers" i) "honest" p
    | _ -> Alcotest.fail (Printf.sprintf "p%d: expected one delivery" i)
  done

let test_gossip_second_ready_not_counted () =
  (* as for Bracha: p0 is the only live process and holds p1's payload.
     Byzantine p3's second Ready, for the honest digest, must not count,
     or it and one honest Ready would reach the f+1 feedback threshold *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_gossip_raw ~n ~f ~seed:12 in
  List.iter (fun i -> Net.Network.register net i (fun ~src:_ _ -> ())) [ 1; 2; 3 ];
  let send ~src msg =
    Net.Network.send net ~src ~dst:0 ~kind:"gossip" ~bits:128 msg;
    ignore (Sim.Engine.run engine ())
  in
  let ready ~src payload =
    let digest = Crypto.Sha256.digest_string payload in
    send ~src (Rbc.Gossip.Ready { origin = 1; round = 1; digest })
  in
  send ~src:1 (Rbc.Gossip.Gossip { origin = 1; round = 1; payload = "honest" });
  ready ~src:3 "forged";
  ready ~src:3 "honest";
  ready ~src:1 "honest";
  checki "one honest Ready is not enough" 0 (List.length !(deliveries.(0)));
  ready ~src:2 "honest";
  match !(deliveries.(0)) with
  | [ (p, 1, 1) ] -> checks "two honest Readies amplify and deliver" "honest" p
  | _ -> Alcotest.fail "expected exactly one delivery"

(* -- quorum counting against a reference model -- *)

module Ref_set = Set.Make (Int)

(* A random n and a stream of (voter, value) votes: ids run past both
   ends of [0, n) and repeat, values come from a few distinct ones *)
let gen_votes =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let vote = pair (int_range (-3) (n + 3)) (int_range 0 3) in
    let* votes = list_size (int_range 0 60) vote in
    return (n, votes))

let print_votes (n, votes) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map (fun (voter, v) -> Printf.sprintf "%d:%d" voter v) votes))

(* The reference keeps the voters seen as a set and counts each value's
   votes in an association list; only a voter's first vote counts, and
   only for ids in [0, n). After every vote, [Voters] and [Tally] must
   agree with it on every query. *)
let prop_voters_tally =
  QCheck.Test.make ~name:"Voters and Tally match a set-based reference"
    ~count:500
    (QCheck.make ~print:print_votes gen_votes)
    (fun (n, votes) ->
      let open Rbc.Rbc_intf in
      let voters = Voters.create n in
      let tally = Tally.create n in
      let equal = Int.equal in
      let ids = List.init (n + 8) (fun i -> i - 4) in
      let values = [ 0; 1; 2; 3 ] in
      let seen = ref Ref_set.empty and counts = ref [] in
      let ref_count v = Option.value ~default:0 (List.assoc_opt v !counts) in
      List.for_all
        (fun (voter, v) ->
          let fresh =
            voter >= 0 && voter < n && not (Ref_set.mem voter !seen)
          in
          if fresh then begin
            seen := Ref_set.add voter !seen;
            counts := (v, ref_count v + 1) :: List.remove_assoc v !counts
          end;
          let expected_vote = if fresh then ref_count v else 0 in
          let added = Voters.add voters voter in
          let counted = Tally.vote tally ~equal ~voter v in
          let elements = Voters.elements voters in
          added = fresh
          && counted = expected_vote
          && Voters.count voters = Ref_set.cardinal !seen
          && elements = Ref_set.elements !seen
          && List.sort_uniq compare elements = elements
          && List.for_all
               (fun id -> Voters.mem voters id = Ref_set.mem id !seen)
               ids
          && List.for_all
               (fun v -> Tally.count tally ~equal v = ref_count v)
               values
          && List.for_all
               (fun k ->
                 match Tally.find tally (fun _ votes -> votes >= k) with
                 | Some v -> ref_count v >= k
                 | None -> List.for_all (fun v -> ref_count v < k) values)
               [ 1; 2; 3 ])
        votes)

(* -- wire codec property tests -- *)

let gen_payload = QCheck.Gen.string_size (QCheck.Gen.int_range 0 200)

let gen_bracha_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* payload = gen_payload in
    return
      (match tag with
      | 0 -> Rbc.Bracha.Init { round; payload }
      | 1 -> Rbc.Bracha.Echo { origin; round; payload }
      | _ -> Rbc.Bracha.Ready { origin; round; payload }))

let prop_bracha_codec =
  QCheck.Test.make ~name:"bracha wire codec roundtrip" ~count:300
    (QCheck.make gen_bracha_msg) (fun msg ->
      Rbc.Bracha.decode_msg (Rbc.Bracha.encode_msg msg) = Some msg)

let gen_digest = QCheck.Gen.map Crypto.Sha256.digest_string gen_payload

let gen_gossip_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* payload = gen_payload in
    let* digest = gen_digest in
    return
      (match tag with
      | 0 -> Rbc.Gossip.Gossip { origin; round; payload }
      | 1 -> Rbc.Gossip.Echo { origin; round; digest }
      | _ -> Rbc.Gossip.Ready { origin; round; digest }))

let prop_gossip_codec =
  QCheck.Test.make ~name:"gossip wire codec roundtrip" ~count:300
    (QCheck.make gen_gossip_msg) (fun msg ->
      Rbc.Gossip.decode_msg (Rbc.Gossip.encode_msg msg) = Some msg)

let gen_avid_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* data_len = int_range 0 100_000 in
    let* frag_index = int_range 0 50 in
    let* frag = gen_payload in
    let* root = gen_digest in
    let* path_len = int_range 0 6 in
    let* path_seed = int_range 0 1_000_000 in
    let path =
      List.init path_len (fun i ->
          Crypto.Sha256.digest_string (Printf.sprintf "%d-%d" path_seed i))
    in
    let proof = { Crypto.Merkle.leaf_index = frag_index; path } in
    return
      (match tag with
      | 0 -> Rbc.Avid.Disperse { round; root; data_len; frag_index; frag; proof }
      | 1 -> Rbc.Avid.Echo { origin; round; root; data_len; frag_index; frag; proof }
      | _ -> Rbc.Avid.Ready { origin; round; root; data_len }))

let prop_avid_codec =
  QCheck.Test.make ~name:"avid wire codec roundtrip" ~count:300
    (QCheck.make gen_avid_msg) (fun msg ->
      Rbc.Avid.decode_msg (Rbc.Avid.encode_msg msg) = Some msg)

let test_codecs_reject_garbage () =
  List.iter
    (fun s ->
      checkb "bracha rejects" true (Rbc.Bracha.decode_msg s = None);
      checkb "avid rejects" true (Rbc.Avid.decode_msg s = None);
      checkb "gossip rejects" true (Rbc.Gossip.decode_msg s = None))
    [ ""; "\x00"; "\x09zzz"; String.make 3 '\x01'; "\x01\x00\x00\x00" ]

let test_codec_truncation_rejected () =
  let msg = Rbc.Bracha.Init { round = 7; payload = "hello world" } in
  let enc = Rbc.Bracha.encode_msg msg in
  for cut = 0 to String.length enc - 1 do
    checkb
      (Printf.sprintf "prefix of length %d rejected" cut)
      true
      (Rbc.Bracha.decode_msg (String.sub enc 0 cut) = None)
  done;
  checkb "trailing byte rejected" true (Rbc.Bracha.decode_msg (enc ^ "x") = None)

let backend_suite backend =
  let name = backend_name backend in
  [ Alcotest.test_case (name ^ ": validity") `Quick (test_validity backend);
    Alcotest.test_case (name ^ ": all senders") `Quick (test_all_senders backend);
    Alcotest.test_case (name ^ ": multiple rounds") `Quick
      (test_multiple_rounds backend);
    Alcotest.test_case (name ^ ": agreement") `Quick (test_agreement_on_logs backend);
    Alcotest.test_case (name ^ ": empty payload") `Quick (test_empty_payload backend);
    Alcotest.test_case (name ^ ": large payload") `Quick (test_large_payload backend)
  ]

let () =
  Alcotest.run "rbc"
    [ ("bracha-generic", backend_suite B_bracha);
      ("avid-generic", backend_suite B_avid);
      ("gossip-generic", backend_suite B_gossip);
      ( "bracha-byzantine",
        [ Alcotest.test_case "equivocation no split" `Quick
            test_bracha_equivocation_no_split;
          Alcotest.test_case "equivocation majority" `Quick
            test_bracha_equivocation_majority_converges;
          Alcotest.test_case "no delivery without quorum" `Quick
            test_bracha_no_delivery_without_quorum;
          Alcotest.test_case "integrity duplicate init" `Quick
            test_bracha_integrity_duplicate_init;
          Alcotest.test_case "f silent tolerated" `Quick
            test_bracha_silent_faults_tolerated;
          Alcotest.test_case "f+1 silent stalls" `Quick test_bracha_fplus1_faults_stall;
          Alcotest.test_case "vote flood" `Quick test_bracha_vote_flood;
          Alcotest.test_case "second ready not counted" `Quick
            test_bracha_second_ready_not_counted
        ] );
      ( "avid",
        [ Alcotest.test_case "inconsistent dispersal discarded" `Quick
            test_avid_inconsistent_dispersal_discarded;
          Alcotest.test_case "fragment economy" `Quick test_avid_fragment_size_economy;
          Alcotest.test_case "vote flood" `Quick test_avid_vote_flood;
          Alcotest.test_case "second ready not counted" `Quick
            test_avid_second_ready_not_counted;
          Alcotest.test_case "finished instance ignores echoes" `Quick
            test_avid_finished_instance_ignores_echoes ] );
      ( "gossip",
        [ Alcotest.test_case "subquadratic messages" `Quick
            test_gossip_subquadratic_messages;
          Alcotest.test_case "eventual delivery across seeds" `Quick
            test_gossip_eventual_delivery_many_seeds;
          Alcotest.test_case "vote flood" `Quick test_gossip_vote_flood;
          Alcotest.test_case "second ready not counted" `Quick
            test_gossip_second_ready_not_counted ] );
      ("quorum-counting", [ QCheck_alcotest.to_alcotest prop_voters_tally ]);
      ( "wire-codecs",
        [ QCheck_alcotest.to_alcotest prop_bracha_codec;
          QCheck_alcotest.to_alcotest prop_gossip_codec;
          QCheck_alcotest.to_alcotest prop_avid_codec;
          Alcotest.test_case "garbage rejected" `Quick test_codecs_reject_garbage;
          Alcotest.test_case "truncation rejected" `Quick
            test_codec_truncation_rejected ] )
    ]
