(* Tests for the baseline protocols: VABA single-shot agreement, the
   Dumbo-MVBA dispersal pipeline, and the slot-parallel SMR driver. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

type env = {
  engine : Sim.Engine.t;
  counters : Metrics.Counters.t;
  sched : Net.Sched.t;
  auth : Crypto.Auth.t;
  coin : Crypto.Threshold_coin.t;
  n : int;
  f : int;
}

let make_env ?(seed = 21) ~n () =
  let f = (n - 1) / 3 in
  let rng = Stdx.Rng.create seed in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.split rng) ~n in
  let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.split rng) ~n ~f in
  { engine; counters; sched; auth; coin; n; f }

(* ---- VABA ---- *)

let run_vaba ?(seed = 21) ?(mute = []) ~n () =
  let env = make_env ~seed ~n () in
  let net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n
  in
  let decisions = Array.make n None in
  let views = Array.make n 0 in
  let parties =
    List.init n (fun me ->
        Baselines.Vaba.create ~net ~auth:env.auth ~coin:env.coin ~me ~f:env.f
          ~tag:1
          ~proposal:(fun ~me -> Printf.sprintf "value-%d" me)
          ~decide:(fun ~value ~view ->
            decisions.(me) <- Some value;
            views.(me) <- view)
          ())
  in
  List.iteri
    (fun i p ->
      if List.mem i mute then
        Net.Network.register net i (fun ~src:_ _ -> ())
      else Baselines.Vaba.start p)
    parties;
  ignore (Sim.Engine.run env.engine ~until:300.0 ());
  (decisions, views, env)

let test_vaba_agreement_and_termination () =
  let decisions, _, _ = run_vaba ~n:4 () in
  Array.iteri
    (fun i d -> checkb (Printf.sprintf "p%d decided" i) true (d <> None))
    decisions;
  let values =
    Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  checki "single decision value" 1 (List.length values)

let test_vaba_decides_a_proposed_value () =
  let decisions, _, _ = run_vaba ~n:4 () in
  match decisions.(0) with
  | Some v ->
    checkb "value is someone's proposal" true
      (List.exists
         (fun i -> String.equal v (Printf.sprintf "value-%d" i))
         [ 0; 1; 2; 3 ])
  | None -> Alcotest.fail "undecided"

let test_vaba_many_seeds () =
  List.iter
    (fun seed ->
      let decisions, views, _ = run_vaba ~seed ~n:4 () in
      let values =
        Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
      in
      checki (Printf.sprintf "seed %d agreement" seed) 1 (List.length values);
      (* expected ~1.5 views; assert a loose upper bound *)
      Array.iter
        (fun v -> checkb "few views" true (v >= 1 && v <= 6))
        views)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_vaba_with_f_silent () =
  let n = 7 in
  let decisions, _, _ = run_vaba ~seed:30 ~mute:[ 5; 6 ] ~n () in
  for i = 0 to 4 do
    checkb (Printf.sprintf "p%d decided despite silence" i) true
      (decisions.(i) <> None)
  done;
  let values =
    Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  checki "agreement" 1 (List.length values)

let test_vaba_validity_predicate_blocks_invalid () =
  (* proposals failing the validity predicate can never be decided *)
  let env = make_env ~seed:31 ~n:4 () in
  let net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n:4
  in
  let decisions = Array.make 4 None in
  let parties =
    List.init 4 (fun me ->
        Baselines.Vaba.create ~net ~auth:env.auth ~coin:env.coin ~me ~f:env.f
          ~tag:2
          ~valid:(fun v -> not (String.equal v "poison"))
          ~proposal:(fun ~me ->
            if me = 0 then "poison" else Printf.sprintf "good-%d" me)
          ~decide:(fun ~value ~view:_ -> decisions.(me) <- Some value)
          ())
  in
  List.iter Baselines.Vaba.start parties;
  ignore (Sim.Engine.run env.engine ~until:300.0 ());
  Array.iter
    (fun d ->
      match d with
      | Some v -> checkb "never the invalid value" false (String.equal v "poison")
      | None -> Alcotest.fail "should still decide (some view elects a good leader)")
    decisions

(* Four VABA parties of which none is started, so the only traffic is
   what a test injects into p0 *)
let idle_vaba () =
  let env = make_env ~n:4 () in
  let net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n:4
  in
  let parties =
    Array.init 4 (fun me ->
        Baselines.Vaba.create ~net ~auth:env.auth ~coin:env.coin ~me ~f:env.f
          ~tag:3
          ~proposal:(fun ~me -> Printf.sprintf "value-%d" me)
          ~decide:(fun ~value:_ ~view:_ -> ())
          ())
  in
  let inject sent =
    List.iter
      (fun (src, msg) ->
        Net.Network.send net ~src ~dst:0 ~kind:"vaba" ~bits:128 msg)
      sent;
    ignore (Sim.Engine.run env.engine ~until:300.0 ())
  in
  (env, parties, inject)

let test_vaba_done_ids_out_of_range () =
  (* Byzantine p3 sends p0 2f+1 Dones naming promoters 4, 5, 6 (and -1),
     which do not exist: they must not count toward the 2f+1 completed
     promotions that release p0's coin share. Dones from three real
     promoters do release it *)
  let env, _, inject = idle_vaba () in
  let dones sent =
    inject
      (List.map
         (fun (src, promoter) ->
           (src, Baselines.Vaba.Done { view = 1; promoter }))
         sent);
    List.mem_assoc "vaba-coin" (Metrics.Counters.bits_by_kind env.counters)
  in
  checkb "ids outside [0, n) release no coin share" false
    (dones [ (3, 4); (3, 5); (3, 6); (3, -1) ]);
  checkb "three real promoters release it" true
    (dones [ (1, 1); (2, 2); (3, 3) ])

let test_vaba_view_change_reports_once () =
  (* 2f+1 View_change reports from Byzantine p3 alone must not resolve
     p0's view 1; reports from two more parties do, and p0 moves on *)
  let _, parties, inject = idle_vaba () in
  let report src =
    ( src,
      Baselines.Vaba.View_change
        { view = 1; leader = 0; stage_seen = 0; value = None } )
  in
  inject [ report 3; report 3; report 3 ];
  checki "one reporter resolves nothing" 1 (Baselines.Vaba.view parties.(0));
  inject [ report 1; report 2 ];
  checki "three reporters resolve view 1" 2 (Baselines.Vaba.view parties.(0))

(* ---- Dispersal ---- *)

let test_dispersal_cert_then_recast () =
  let env = make_env ~seed:32 ~n:4 () in
  let net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n:4
  in
  let reconstructed = Array.make 4 None in
  let parties =
    Array.init 4 (fun me ->
        Baselines.Dispersal.create ~net ~auth:env.auth ~me ~f:env.f
          ~on_reconstruct:(fun ~id:_ ~payload -> reconstructed.(me) <- Some payload))
  in
  let payload = String.init 999 (fun i -> Char.chr ((i * 31) mod 256)) in
  let cert = ref None in
  Baselines.Dispersal.disperse parties.(0) ~id:"x" ~payload
    ~on_cert:(fun c -> cert := Some c);
  ignore (Sim.Engine.run env.engine ());
  (match !cert with
  | None -> Alcotest.fail "no certificate"
  | Some c ->
    checkb "2f+1 signers" true (List.length c.Baselines.Dispersal.signers >= 3);
    (* nothing reconstructed until recast *)
    Array.iter (fun r -> checkb "not yet" true (r = None)) reconstructed;
    Baselines.Dispersal.recast parties.(2) c;
    ignore (Sim.Engine.run env.engine ());
    Array.iteri
      (fun i r ->
        match r with
        | Some p -> checkb (Printf.sprintf "p%d payload" i) true (String.equal p payload)
        | None -> Alcotest.fail (Printf.sprintf "p%d did not reconstruct" i))
      reconstructed)

let test_dispersal_cert_roundtrip () =
  let cert =
    { Baselines.Dispersal.id = "3:1";
      root = Crypto.Sha256.digest_string "root";
      data_len = 12345;
      signers = [ 0; 2; 3 ] }
  in
  (match Baselines.Dispersal.cert_of_string (Baselines.Dispersal.cert_to_string cert) with
  | Some c -> checkb "roundtrip" true (c = cert)
  | None -> Alcotest.fail "parse failed");
  checkb "garbage rejected" true (Baselines.Dispersal.cert_of_string "zzz" = None);
  checkb "empty rejected" true (Baselines.Dispersal.cert_of_string "" = None)

(* ---- Dumbo ---- *)

let run_dumbo ?(seed = 40) ~n () =
  let env = make_env ~seed ~n () in
  let disp_net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n
  in
  let vaba_net =
    Net.Network.create ~engine:env.engine ~sched:env.sched
      ~counters:env.counters ~n
  in
  let decisions = Array.make n None in
  let parties =
    List.init n (fun me ->
        Baselines.Dumbo.create ~disp_net ~vaba_net ~auth:env.auth ~coin:env.coin
          ~me ~f:env.f ~tag:7
          ~batch:(Printf.sprintf "batch-of-%d" me)
          ~decide:(fun ~batch -> decisions.(me) <- Some batch)
          ())
  in
  List.iter Baselines.Dumbo.start parties;
  ignore (Sim.Engine.run env.engine ~until:500.0 ());
  decisions

let test_dumbo_agreement () =
  let decisions = run_dumbo ~n:4 () in
  Array.iteri
    (fun i d -> checkb (Printf.sprintf "p%d decided" i) true (d <> None))
    decisions;
  let values =
    Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  checki "single batch decided" 1 (List.length values);
  checkb "batch is someone's" true
    (List.exists
       (fun i -> values = [ Printf.sprintf "batch-of-%d" i ])
       [ 0; 1; 2; 3 ])

let test_dumbo_many_seeds () =
  List.iter
    (fun seed ->
      let decisions = run_dumbo ~seed ~n:4 () in
      let values =
        Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
      in
      checki (Printf.sprintf "seed %d" seed) 1 (List.length values))
    [ 41; 42; 43; 44; 45 ]

let test_dumbo_bits_beat_vaba_on_large_batches () =
  (* the whole point of Dumbo: for large batches, dispersal + agree-on-
     digest + recast moves far fewer bits than VABA carrying batches *)
  let n = 7 in
  let batch_bytes = 20_000 in
  let batch me = Printf.sprintf "b%d:" me ^ String.make batch_bytes 'q' in
  let run_v () =
    let env = make_env ~seed:50 ~n () in
    let net =
      Net.Network.create ~engine:env.engine ~sched:env.sched
        ~counters:env.counters ~n
    in
    let parties =
      List.init n (fun me ->
          Baselines.Vaba.create ~net ~auth:env.auth ~coin:env.coin ~me ~f:env.f
            ~tag:1
            ~proposal:(fun ~me -> batch me)
            ~decide:(fun ~value:_ ~view:_ -> ())
            ())
    in
    List.iter Baselines.Vaba.start parties;
    ignore (Sim.Engine.run env.engine ~until:500.0 ());
    Metrics.Counters.total_bits env.counters
  in
  let run_d () =
    let env = make_env ~seed:50 ~n () in
    let disp_net =
      Net.Network.create ~engine:env.engine ~sched:env.sched
        ~counters:env.counters ~n
    in
    let vaba_net =
      Net.Network.create ~engine:env.engine ~sched:env.sched
        ~counters:env.counters ~n
    in
    let parties =
      List.init n (fun me ->
          Baselines.Dumbo.create ~disp_net ~vaba_net ~auth:env.auth
            ~coin:env.coin ~me ~f:env.f ~tag:7 ~batch:(batch me)
            ~decide:(fun ~batch:_ -> ())
            ())
    in
    List.iter Baselines.Dumbo.start parties;
    ignore (Sim.Engine.run env.engine ~until:500.0 ());
    Metrics.Counters.total_bits env.counters
  in
  let vaba_bits = run_v () and dumbo_bits = run_d () in
  checkb
    (Printf.sprintf "dumbo %d < vaba %d" dumbo_bits vaba_bits)
    true (dumbo_bits < vaba_bits)

(* ---- SMR driver ---- *)

let run_smr ?(seed = 60) ~protocol ~n ~slots () =
  let env = make_env ~seed ~n () in
  let outputs = ref [] in
  let smr =
    Baselines.Smr.create ~engine:env.engine ~counters:env.counters
      ~sched:env.sched ~auth:env.auth ~coin:env.coin ~protocol ~n ~f:env.f
      ~concurrency:n ~total_slots:slots
      ~batch:(fun ~slot ~me -> Printf.sprintf "s%d-p%d" slot me)
      ~on_output:(fun ~slot ~value ~time ->
        outputs := (slot, value, time) :: !outputs)
      ()
  in
  Baselines.Smr.start smr;
  ignore (Sim.Engine.run env.engine ~until:1000.0 ());
  (smr, List.rev !outputs)

let test_smr_outputs_all_slots_in_order ~protocol () =
  let smr, outputs = run_smr ~protocol ~n:4 ~slots:10 () in
  checki "all slots output" 10 (Baselines.Smr.output_count smr);
  List.iteri
    (fun i (slot, _, _) -> checki "in order, no gaps" i slot)
    outputs;
  (* output times are monotone *)
  let times = List.map (fun (_, _, t) -> t) outputs in
  checkb "monotone times" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < 9) times)
       (List.tl times))

let test_smr_decisions_stable () =
  let smr, outputs = run_smr ~protocol:Baselines.Smr.Vaba_smr ~n:4 ~slots:6 () in
  List.iter
    (fun (slot, value, _) ->
      checks "query matches output" value
        (Option.get (Baselines.Smr.decided_value smr slot)))
    outputs

let test_smr_winner_takes_slot () =
  (* the fairness-relevant structural fact: each slot outputs exactly
     one party's batch; the other n-1 proposals are discarded *)
  let _, outputs = run_smr ~protocol:Baselines.Smr.Vaba_smr ~n:4 ~slots:8 () in
  List.iter
    (fun (slot, value, _) ->
      checkb "value names its slot" true
        (String.length value >= 2
        && String.sub value 0 (String.index value '-') = Printf.sprintf "s%d" slot))
    outputs

let () =
  Alcotest.run "baselines"
    [ ( "vaba",
        [ Alcotest.test_case "agreement + termination" `Quick
            test_vaba_agreement_and_termination;
          Alcotest.test_case "decides a proposal" `Quick
            test_vaba_decides_a_proposed_value;
          Alcotest.test_case "many seeds" `Slow test_vaba_many_seeds;
          Alcotest.test_case "f silent" `Quick test_vaba_with_f_silent;
          Alcotest.test_case "validity predicate" `Quick
            test_vaba_validity_predicate_blocks_invalid;
          Alcotest.test_case "done ids out of range" `Quick
            test_vaba_done_ids_out_of_range;
          Alcotest.test_case "view-change reports once" `Quick
            test_vaba_view_change_reports_once ] );
      ( "dispersal",
        [ Alcotest.test_case "cert then recast" `Quick test_dispersal_cert_then_recast;
          Alcotest.test_case "cert roundtrip" `Quick test_dispersal_cert_roundtrip ] );
      ( "dumbo",
        [ Alcotest.test_case "agreement" `Quick test_dumbo_agreement;
          Alcotest.test_case "many seeds" `Slow test_dumbo_many_seeds;
          Alcotest.test_case "bits beat vaba" `Slow
            test_dumbo_bits_beat_vaba_on_large_batches ] );
      ( "smr",
        [ Alcotest.test_case "vaba smr slots in order" `Quick
            (test_smr_outputs_all_slots_in_order ~protocol:Baselines.Smr.Vaba_smr);
          Alcotest.test_case "dumbo smr slots in order" `Slow
            (test_smr_outputs_all_slots_in_order ~protocol:Baselines.Smr.Dumbo_smr);
          Alcotest.test_case "decisions stable" `Quick test_smr_decisions_stable;
          Alcotest.test_case "winner takes slot" `Quick test_smr_winner_takes_slot ] )
    ]
