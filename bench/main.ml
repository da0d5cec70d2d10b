(* Benchmark and experiment driver.

   Usage:
     dune exec bench/main.exe                  -- everything: all paper
                                                  tables + micro benches
     dune exec bench/main.exe -- table1-comm   -- one experiment
     dune exec bench/main.exe -- micro         -- Bechamel microbenches
     dune exec bench/main.exe -- list          -- list experiment names
     dune exec bench/main.exe -- baseline      -- write perf baseline
                                                  (BENCH.json, committed)
     dune exec bench/main.exe -- diff          -- compare a fresh run
                                                  against the baseline;
                                                  exit 1 on regression
                                                  (--advisory-time: report
                                                  time misses but gate only
                                                  alloc/count metrics)
     dune exec bench/main.exe -- diff --self-test
                                               -- hermetic gate check: an
                                                  unmodified rerun passes
                                                  and an injected 2x
                                                  slowdown, count drop
                                                  and count rise each
                                                  fail

   Add "--json [FILE]" to any experiment invocation to also serialize
   the table(s) — rows, notes, and the runs' metrics snapshots
   (per-kind bit counters, latency percentiles, engine gauges) — as a
   JSON array. FILE defaults to BENCH_TABLES.json (BENCH.json is the
   committed perf baseline owned by `baseline`; EXPERIMENTS.md documents
   its schema).

   Each table regenerates one artifact of the paper (DESIGN.md §4 maps
   table/figure -> experiment id); EXPERIMENTS.md records paper-claimed
   vs measured values. *)

let experiments :
    (string * string * (unit -> Harness.Experiments.table)) list =
  [ ( "table1-comm",
      "Table 1 communication complexity column (E1)",
      fun () -> Harness.Experiments.table1_communication () );
    ( "table1-time",
      "Table 1 expected time complexity column (E2)",
      fun () -> Harness.Experiments.table1_time () );
    ( "table1-fairness",
      "Table 1 eventual fairness + post-quantum columns (E3)",
      fun () -> Harness.Experiments.table1_fairness () );
    ( "table1",
      "Table 1 combined reproduction",
      fun () -> Harness.Experiments.table1_combined () );
    ( "claim6-waves",
      "Claim 6: expected waves per commit (E6)",
      fun () -> Harness.Experiments.claim6_waves () );
    ( "chain-quality",
      "Chain quality bound of section 3 (E7)",
      fun () -> Harness.Experiments.chain_quality () );
    ( "batching",
      "Section 6.2 batching amortization (E8)",
      fun () -> Harness.Experiments.batching () );
    ( "ablation-waves",
      "Ablation: wave length 2..6",
      fun () -> Harness.Experiments.ablation_wave_length () );
    ( "ablation-rbc",
      "Ablation: reliable-broadcast backends",
      fun () -> Harness.Experiments.ablation_rbc () );
    ( "ablation-weak-edges",
      "Ablation: weak edges vs censorship",
      fun () -> Harness.Experiments.ablation_weak_edges () );
    ( "ablation-coin",
      "Ablation: coin transport (footnote 1 in-DAG shares)",
      fun () -> Harness.Experiments.ablation_coin () );
    ( "latency",
      "Proposal-to-delivery latency distribution",
      fun () -> Harness.Experiments.latency () );
    ( "ablation-gc",
      "Ablation: garbage collection window",
      fun () -> Harness.Experiments.ablation_gc () );
    ( "throughput",
      "Throughput scaling with n (DAG-Rider+AVID)",
      fun () -> Harness.Experiments.throughput () );
    ( "sustained-load",
      "Sustained load over time: monitored n=10 fleet, DAG growth",
      fun () -> Harness.Experiments.sustained_load () );
    ( "related-work",
      "Section 7: Aleph-style baseline vs DAG-Rider",
      fun () -> Harness.Experiments.related_work () );
    ( "rules-latency",
      "Commit rules on one substrate: Bullshark vs DAG-Rider latency",
      fun () -> Harness.Experiments.rules_latency () ) ]

(* ---- Bechamel microbenches (E9) plus one Test.make per paper table:
   each table's test runs a scaled-down instance of the simulation that
   regenerates it, so the cost of reproducing every artifact is itself
   tracked. ---- *)

let micro_tests () =
  let open Bechamel in
  let payload_1k = String.init 1024 (fun i -> Char.chr (i mod 256)) in
  let rs_coder = Crypto.Reed_solomon.make ~k:3 ~n:10 in
  let rs_frags = Crypto.Reed_solomon.encode rs_coder payload_1k in
  let rs_pieces = [ (0, rs_frags.(0)); (4, rs_frags.(4)); (9, rs_frags.(9)) ] in
  let merkle_leaves =
    Array.init 16 (fun i -> Printf.sprintf "leaf-%d-%s" i payload_1k)
  in
  let merkle_tree = Crypto.Merkle.build merkle_leaves in
  let merkle_proof = Crypto.Merkle.prove merkle_tree 7 in
  let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.create 1) ~n:10 ~f:3 in
  let coin_shares =
    List.init 4 (fun holder ->
        Crypto.Threshold_coin.make_share coin ~holder ~instance:5)
  in
  (* a 40-round full DAG for path/history queries *)
  let dag =
    let dag = Dagrider.Dag.create ~n:4 in
    for round = 1 to 40 do
      let prev =
        List.map Dagrider.Vertex.vref_of
          (Dagrider.Dag.round_vertices dag (round - 1))
      in
      for source = 0 to 3 do
        Dagrider.Dag.add dag
          { Dagrider.Vertex.round; source; block = "b"; strong_edges = prev;
            weak_edges = [] }
      done
    done;
    dag
  in
  let vx =
    { Dagrider.Vertex.round = 9;
      source = 2;
      block = payload_1k;
      strong_edges =
        List.init 7 (fun source -> { Dagrider.Vertex.round = 8; source });
      weak_edges = [ { Dagrider.Vertex.round = 3; source = 1 } ] }
  in
  let vx_payload = Dagrider.Vertex.encode vx in
  let mini_run backend () =
    let opts =
      { (Harness.Runner.default_options ~n:4) with backend; block_bytes = 32 }
    in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:10.0
  in
  let mini_smr protocol () =
    let rng = Stdx.Rng.create 3 in
    let engine = Sim.Engine.create () in
    let counters = Metrics.Counters.create () in
    let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
    let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.split rng) ~n:4 in
    let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.split rng) ~n:4 ~f:1 in
    let smr =
      Baselines.Smr.create ~engine ~counters ~sched ~auth ~coin ~protocol ~n:4
        ~f:1 ~concurrency:4 ~total_slots:4
        ~batch:(fun ~slot ~me -> Printf.sprintf "s%d-p%d" slot me)
        ~on_output:(fun ~slot:_ ~value:_ ~time:_ -> ())
        ()
    in
    Baselines.Smr.start smr;
    ignore (Sim.Engine.run engine ~until:100.0 ())
  in
  [ Test.make ~name:"sha256/1KiB"
      (Staged.stage (fun () -> ignore (Crypto.Sha256.digest_string payload_1k)));
    Test.make ~name:"rs/encode-1KiB-k3n10"
      (Staged.stage (fun () ->
           ignore (Crypto.Reed_solomon.encode rs_coder payload_1k)));
    Test.make ~name:"rs/decode-1KiB-k3n10"
      (Staged.stage (fun () ->
           ignore (Crypto.Reed_solomon.decode rs_coder ~data_len:1024 rs_pieces)));
    Test.make ~name:"merkle/build-16"
      (Staged.stage (fun () -> ignore (Crypto.Merkle.build merkle_leaves)));
    Test.make ~name:"merkle/verify"
      (Staged.stage (fun () ->
           ignore
             (Crypto.Merkle.verify
                ~root:(Crypto.Merkle.root merkle_tree)
                ~leaf_count:16 ~leaf:merkle_leaves.(7) merkle_proof)));
    Test.make ~name:"coin/combine-f3"
      (Staged.stage (fun () ->
           ignore (Crypto.Threshold_coin.combine coin ~instance:5 coin_shares)));
    Test.make ~name:"vertex/encode"
      (Staged.stage (fun () -> ignore (Dagrider.Vertex.encode vx)));
    Test.make ~name:"vertex/decode"
      (Staged.stage (fun () ->
           ignore (Dagrider.Vertex.decode ~round:9 ~source:2 vx_payload)));
    Test.make ~name:"dag/strong-path-depth-39"
      (Staged.stage (fun () ->
           ignore
             (Dagrider.Dag.strong_path dag
                { Dagrider.Vertex.round = 40; source = 0 }
                { Dagrider.Vertex.round = 1; source = 3 })));
    Test.make ~name:"dag/causal-history-r40"
      (Staged.stage (fun () ->
           ignore
             (Dagrider.Dag.causal_history dag
                { Dagrider.Vertex.round = 40; source = 0 })));
    (* one Test.make per paper table: scaled-down regeneration cost *)
    Test.make ~name:"table1-comm/dagrider-bracha-n4"
      (Staged.stage (mini_run Harness.Runner.Bracha));
    Test.make ~name:"table1-comm/dagrider-avid-n4"
      (Staged.stage (mini_run Harness.Runner.Avid));
    Test.make ~name:"table1-comm/dagrider-gossip-n4"
      (Staged.stage (mini_run Harness.Runner.Gossip));
    Test.make ~name:"table1-time/vaba-smr-n4"
      (Staged.stage (mini_smr Baselines.Smr.Vaba_smr));
    Test.make ~name:"table1-time/dumbo-smr-n4"
      (Staged.stage (mini_smr Baselines.Smr.Dumbo_smr)) ]

let run_micro () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) () in
  print_endline "== E9 / microbenchmarks (Bechamel, monotonic clock) ==";
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name result ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              instance result
          in
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Printf.printf "%-36s %11.0f ns\n" name t
          | Some _ | None -> Printf.printf "%-36s %14s\n" name "n/a")
        results)
    (micro_tests ())

(* ---- performance baseline & regression diff (E10) ----

   `baseline` measures a fixed set of scaled-down, fixed-seed scenarios
   and writes schema-versioned medians + MADs to BENCH.json (committed).
   `diff` reruns the same scenarios and gates each metric against the
   baseline: wall-time thresholds are rescaled by a CPU calibration spin
   measured on both machines, allocation and logical counts are held to
   much tighter bounds because fixed seeds make them near-deterministic. *)

module Regress = struct
  type kind = Time | Alloc | Count

  let kind_name = function Time -> "time" | Alloc -> "alloc" | Count -> "count"

  let kind_of_name = function
    | "time" -> Some Time
    | "alloc" -> Some Alloc
    | "count" -> Some Count
    | _ -> None

  let schema = "dagrider-bench/1"

  let default_time_threshold = 0.5

  (* relative headroom per kind: wall time is noisy, allocation nearly
     deterministic. Counts get none: they are exactly reproducible with
     the seed, so [diff] gates them on any change in either direction *)
  let threshold ~time_threshold = function
    | Time -> time_threshold
    | Alloc -> 0.10
    | Count -> 0.0

  (* absolute slack floors so microscopic metrics don't gate on noise *)
  let slack = function Time -> 0.005 | Alloc -> 65536.0 | Count -> 0.0

  (* -- scenarios: each run returns (metric, kind, value) rows -- *)

  (* OCaml 5's [Gc.allocated_bytes] is quantized to whole minor-heap
     arenas; flushing the young generation first makes the counter
     byte-exact, which is what lets Alloc metrics gate at 10% *)
  let alloc_now () =
    Gc.minor ();
    Gc.allocated_bytes ()

  let fleet ?(trace = false) ?link_faults ?rule ?schedule ~backend ~n ~until ()
      =
    let tracer =
      if trace then Some (Trace.create ~capacity:4096 ()) else None
    in
    let base = Harness.Runner.default_options ~n in
    let fleet =
      Harness.Runner.build
        { base with
          backend;
          block_bytes = 32;
          link_faults;
          rule = Option.value rule ~default:base.Harness.Runner.rule;
          schedule = Option.value schedule ~default:base.Harness.Runner.schedule;
          trace = tracer }
    in
    let a0 = alloc_now () in
    let t0 = Unix.gettimeofday () in
    Harness.Runner.run fleet ~until;
    let dt = Unix.gettimeofday () -. t0 in
    let da = alloc_now () -. a0 in
    [ ("time_s", Time, dt);
      ("alloc_bytes", Alloc, da);
      ( "delivered",
        Count,
        float_of_int
          (Dagrider.Ordering.delivered_count
             (Dagrider.Node.ordering (Harness.Runner.node fleet 0))) );
      ("honest_bits", Count, float_of_int (Harness.Runner.honest_bits fleet))
    ]

  let dag_paths () =
    let dag = Dagrider.Dag.create ~n:4 in
    for round = 1 to 40 do
      let prev =
        List.map Dagrider.Vertex.vref_of
          (Dagrider.Dag.round_vertices dag (round - 1))
      in
      for source = 0 to 3 do
        Dagrider.Dag.add dag
          { Dagrider.Vertex.round;
            source;
            block = "b";
            strong_edges = prev;
            weak_edges = [] }
      done
    done;
    let a0 = alloc_now () in
    let t0 = Unix.gettimeofday () in
    let reached = ref 0 in
    for i = 0 to 499 do
      if
        Dagrider.Dag.strong_path dag
          { Dagrider.Vertex.round = 40; source = i mod 4 }
          { Dagrider.Vertex.round = 1; source = (i + 1) mod 4 }
      then incr reached
    done;
    let history = ref 0 in
    for _ = 1 to 5 do
      for source = 0 to 3 do
        history :=
          !history
          + List.length
              (Dagrider.Dag.causal_history dag
                 { Dagrider.Vertex.round = 40; source })
      done
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let da = alloc_now () -. a0 in
    [ ("time_s", Time, dt);
      ("alloc_bytes", Alloc, da);
      ("reached", Count, float_of_int !reached);
      ("history_len", Count, float_of_int !history) ]

  (* the critical-path tracer at fleet scale: a traced synchronous n=10
     run plus the full per-commit reconstruction, with the
     reconciliation counters (segment sums vs end-to-end latency) gated
     as exact Counts — a reconstruction regression shows up as a count
     drop before it shows up as wrong attributions *)
  let critpath_sync () =
    let tracer = Trace.create ~capacity:4096 () in
    let fleet =
      Harness.Runner.build
        { (Harness.Runner.default_options ~n:10) with
          backend = Harness.Runner.Bracha;
          schedule = Harness.Runner.Synchronous;
          block_bytes = 32;
          trace = Some tracer }
    in
    let a0 = alloc_now () in
    let t0 = Unix.gettimeofday () in
    Harness.Runner.run fleet ~until:60.0;
    let report =
      match Harness.Runner.critpath_report fleet with
      | Some r -> r
      | None -> failwith "critpath.n10.sync: traced fleet has no collector"
    in
    let dt = Unix.gettimeofday () -. t0 in
    let da = alloc_now () -. a0 in
    [ ("time_s", Time, dt);
      ("alloc_bytes", Alloc, da);
      ("commits", Count, float_of_int (List.length report.Critpath.r_paths));
      ("complete", Count, float_of_int report.Critpath.r_complete);
      ("reconciled", Count, float_of_int report.Critpath.r_reconciled) ]

  let scenarios =
    [ ( "bracha.n4",
        fun () -> fleet ~backend:Harness.Runner.Bracha ~n:4 ~until:60.0 () );
      (* sha256_blocks counts every SHA-256 compression of the run
         exactly: fragment verification, the delivery-time Merkle
         rebuild and the coin, so hashing work that comes back (or
         goes away) moves a Count *)
      ( "avid.n4",
        fun () ->
          let b0 = Crypto.Sha256.blocks () in
          let rows = fleet ~backend:Harness.Runner.Avid ~n:4 ~until:40.0 () in
          rows
          @ [ ( "sha256_blocks",
                Count,
                float_of_int (Crypto.Sha256.blocks () - b0) ) ] );
      ( "gossip.n4",
        fun () -> fleet ~backend:Harness.Runner.Gossip ~n:4 ~until:60.0 () );
      ( "bracha.n7.lossy",
        fun () ->
          fleet ~backend:Harness.Runner.Bracha ~n:7 ~until:25.0
            ~link_faults:
              { Harness.Runner.default_link_faults with
                lf_drop = 0.05;
                lf_duplicate = 0.02 }
            () );
      ( "bracha.n4.traced",
        fun () ->
          fleet ~trace:true ~backend:Harness.Runner.Bracha ~n:4 ~until:60.0 ()
      );
      (* the Bullshark rule at fleet scale, on the same substrate the
         dagrider scenarios measure. "sync" is its best case — a
         synchronous period where every round-robin leader commits
         directly; "fallback" slows process 0 heavily, so every wave it
         leads misses its votes and is skipped (the timeout path),
         exercising the chain-back recovery the rule leans on *)
      ( "bullshark.n10.sync",
        fun () ->
          fleet
            ~rule:Dagrider.Ordering.bullshark
            ~schedule:Harness.Runner.Synchronous ~backend:Harness.Runner.Bracha
            ~n:10 ~until:60.0 () );
      ( "bullshark.n10.fallback",
        fun () ->
          fleet
            ~rule:Dagrider.Ordering.bullshark
            ~schedule:
              (Harness.Runner.Custom
                 (fun rng ->
                   Net.Sched.delay_process
                     ~inner:(Net.Sched.uniform_random ~rng)
                     ~victim:0 ~factor:12.0))
            ~backend:Harness.Runner.Bracha ~n:10 ~until:60.0 () );
      ( "dagrider.n10.sync",
        fun () ->
          fleet ~schedule:Harness.Runner.Synchronous
            ~backend:Harness.Runner.Bracha ~n:10 ~until:60.0 () );
      ("critpath.n10.sync", critpath_sync);
      ("dag.paths", dag_paths) ]

  (* -- statistics -- *)

  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = Array.length a in
    if k = 0 then 0.0
    else if k mod 2 = 1 then a.(k / 2)
    else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

  let mad xs =
    let m = median xs in
    median (List.map (fun x -> Float.abs (x -. m)) xs)

  (* fixed CPU-bound spin, measured when the baseline is written and
     again at diff time: the ratio rescales wall-time bounds so a
     committed baseline transfers across machines *)
  let calibrate () =
    let spin () =
      let t0 = Unix.gettimeofday () in
      let acc = ref 0 in
      for i = 1 to 20_000_000 do
        acc := (!acc + i) land 0xFFFFFF
      done;
      ignore (Sys.opaque_identity !acc);
      Unix.gettimeofday () -. t0
    in
    ignore (spin ());
    Float.min (spin ()) (spin ())

  type metric = { m_kind : kind; m_median : float; m_mad : float }

  type record = {
    r_calibration : float;
    r_repeats : int;
    r_scenarios : (string * (string * metric) list) list;
  }

  let measure ?(progress = false) ~repeats () =
    let cal = calibrate () in
    let scen =
      List.map
        (fun (name, run) ->
          if progress then Printf.printf "  %s x%d...\n%!" name repeats;
          let samples = Hashtbl.create 8 in
          let order = ref [] in
          for _ = 1 to repeats do
            List.iter
              (fun (m, kind, v) ->
                match Hashtbl.find_opt samples m with
                | Some (k, vs) -> Hashtbl.replace samples m (k, v :: vs)
                | None ->
                  order := m :: !order;
                  Hashtbl.add samples m (kind, [ v ]))
              (run ())
          done;
          let metrics =
            List.rev_map
              (fun m ->
                let kind, vs = Hashtbl.find samples m in
                (m, { m_kind = kind; m_median = median vs; m_mad = mad vs }))
              !order
          in
          (name, metrics))
        scenarios
    in
    { r_calibration = cal; r_repeats = repeats; r_scenarios = scen }

  (* -- (de)serialization -- *)

  let to_json r =
    let open Stdx.Json in
    let metric_json (name, m) =
      ( name,
        Obj
          [ ("kind", String (kind_name m.m_kind));
            ("median", Float m.m_median);
            ("mad", Float m.m_mad) ] )
    in
    Obj
      [ ("schema", String schema);
        ("calibration_s", Float r.r_calibration);
        ("repeats", Int r.r_repeats);
        ( "scenarios",
          Obj
            (List.map
               (fun (n, ms) -> (n, Obj (List.map metric_json ms)))
               r.r_scenarios) ) ]

  let of_json j =
    let getf name obj =
      match Option.bind (Stdx.Json.member name obj) Stdx.Json.to_float_opt with
      | Some f -> f
      | None -> failwith name
    in
    match Stdx.Json.member "schema" j with
    | Some (Stdx.Json.String s) when s = schema -> (
      try
        let repeats =
          match
            Option.bind (Stdx.Json.member "repeats" j) Stdx.Json.to_int_opt
          with
          | Some k -> k
          | None -> failwith "repeats"
        in
        let scen =
          match Stdx.Json.member "scenarios" j with
          | Some (Stdx.Json.Obj scen) ->
            List.map
              (fun (sname, sobj) ->
                match sobj with
                | Stdx.Json.Obj ms ->
                  ( sname,
                    List.map
                      (fun (mname, mobj) ->
                        let kind =
                          match Stdx.Json.member "kind" mobj with
                          | Some (Stdx.Json.String k) -> (
                            match kind_of_name k with
                            | Some k -> k
                            | None -> failwith "kind")
                          | _ -> failwith "kind"
                        in
                        ( mname,
                          { m_kind = kind;
                            m_median = getf "median" mobj;
                            m_mad = getf "mad" mobj } ))
                      ms )
                | _ -> failwith "scenario")
              scen
          | _ -> failwith "scenarios"
        in
        Ok
          { r_calibration = getf "calibration_s" j;
            r_repeats = repeats;
            r_scenarios = scen }
      with Failure m -> Error ("bad baseline field: " ^ m))
    | Some (Stdx.Json.String s) ->
      Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
    | _ -> Error "missing schema"

  (* -- the gate -- *)

  type verdict = {
    v_scenario : string;
    v_metric : string;
    v_kind : kind;
    v_base : float;
    v_fresh : float;
    v_allowed : float;
    v_regressed : bool;
  }

  (* [inject] multiplies fresh Time medians and [count_shift] is added to
     fresh Count medians before the comparison — the self-test's
     artificial slowdown and count drift, applied after measurement so
     the check is deterministic and costs nothing *)
  let diff ?(inject = 1.0) ?(count_shift = 0.0) ~time_threshold ~base ~fresh
      () =
    let scale_time =
      if base.r_calibration > 0.0 then
        fresh.r_calibration /. base.r_calibration
      else 1.0
    in
    List.concat_map
      (fun (sname, metrics) ->
        let fresh_metrics =
          Option.value ~default:[] (List.assoc_opt sname fresh.r_scenarios)
        in
        List.map
          (fun (mname, bm) ->
            match List.assoc_opt mname fresh_metrics with
            | None ->
              (* a vanished metric is itself a regression of coverage *)
              { v_scenario = sname;
                v_metric = mname;
                v_kind = bm.m_kind;
                v_base = bm.m_median;
                v_fresh = nan;
                v_allowed = nan;
                v_regressed = true }
            | Some fm ->
              let scale =
                match bm.m_kind with Time -> scale_time | _ -> 1.0
              in
              let measured =
                match bm.m_kind with
                | Time -> fm.m_median *. inject
                | Count -> fm.m_median +. count_shift
                | Alloc -> fm.m_median
              in
              let thr = threshold ~time_threshold bm.m_kind in
              let allowed =
                (scale *. ((bm.m_median *. (1.0 +. thr)) +. (3.0 *. bm.m_mad)))
                +. slack bm.m_kind
              in
              { v_scenario = sname;
                v_metric = mname;
                v_kind = bm.m_kind;
                v_base = bm.m_median;
                v_fresh = measured;
                v_allowed = allowed;
                v_regressed =
                  (match bm.m_kind with
                  | Count -> measured <> bm.m_median
                  | Time | Alloc -> measured > allowed) })
          metrics)
      base.r_scenarios

  let regressions vs = List.filter (fun v -> v.v_regressed) vs

  let render_verdicts vs =
    Printf.printf "%-18s %-12s %-6s %12s %12s %12s  %s\n" "scenario" "metric"
      "kind" "baseline" "fresh" "allowed" "verdict";
    List.iter
      (fun v ->
        Printf.printf "%-18s %-12s %-6s %12.4g %12.4g %12.4g  %s\n"
          v.v_scenario v.v_metric (kind_name v.v_kind) v.v_base v.v_fresh
          v.v_allowed
          (if v.v_regressed then "REGRESSED" else "ok"))
      vs
end

(* numeric flag values get a clean usage error, not an uncaught
   [Failure "int_of_string"] stack trace *)
let int_flag ~cmd ~flag v =
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    Printf.eprintf "%s: %s expects an integer, got %S\n" cmd flag v;
    exit 2

let float_flag ~cmd ~flag v =
  match float_of_string_opt v with
  | Some f -> f
  | None ->
    Printf.eprintf "%s: %s expects a number, got %S\n" cmd flag v;
    exit 2

let run_baseline args =
  let out = ref "BENCH.json" in
  let repeats = ref 5 in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--repeats" :: v :: rest ->
      repeats := int_flag ~cmd:"baseline" ~flag:"--repeats" v;
      parse rest
    | a :: _ ->
      Printf.eprintf "baseline: unknown argument %S\n" a;
      exit 2
  in
  parse args;
  Printf.printf "measuring %d scenarios x %d repeats...\n%!"
    (List.length Regress.scenarios) !repeats;
  let record = Regress.measure ~progress:true ~repeats:!repeats () in
  let oc = open_out !out in
  output_string oc (Stdx.Json.to_string (Regress.to_json record));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (schema %s, calibration %.3fs)\n" !out Regress.schema
    record.Regress.r_calibration

let run_diff args =
  let file = ref "BENCH.json" in
  let repeats = ref 5 in
  let time_threshold = ref Regress.default_time_threshold in
  let inject = ref 1.0 in
  let self_test = ref false in
  let advisory_time = ref false in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      file := v;
      parse rest
    | "--repeats" :: v :: rest ->
      repeats := int_flag ~cmd:"diff" ~flag:"--repeats" v;
      parse rest
    | "--threshold" :: v :: rest ->
      time_threshold := float_flag ~cmd:"diff" ~flag:"--threshold" v;
      parse rest
    | "--inject-slowdown" :: v :: rest ->
      inject := float_flag ~cmd:"diff" ~flag:"--inject-slowdown" v;
      parse rest
    | "--self-test" :: rest ->
      self_test := true;
      parse rest
    | "--advisory-time" :: rest ->
      advisory_time := true;
      parse rest
    | a :: _ ->
      Printf.eprintf "diff: unknown argument %S\n" a;
      exit 2
  in
  parse args;
  if !self_test then begin
    (* hermetic: both records come from this machine and binary, so the
       check does not depend on the committed baseline's hardware *)
    Printf.printf "self-test: deriving a fresh baseline...\n%!";
    let base = Regress.measure ~repeats:!repeats () in
    Printf.printf "self-test: rerunning unmodified...\n%!";
    let fresh = Regress.measure ~repeats:!repeats () in
    let clean =
      Regress.diff ~time_threshold:!time_threshold ~base ~fresh ()
    in
    let slowed =
      Regress.diff ~inject:2.0 ~time_threshold:!time_threshold ~base ~fresh ()
    in
    let clean_bad = Regress.regressions clean in
    let slow_hit =
      List.exists
        (fun v -> v.Regress.v_regressed && v.Regress.v_kind = Regress.Time)
        slowed
    in
    if clean_bad <> [] then begin
      print_endline "self-test FAILED: unmodified rerun was flagged:";
      Regress.render_verdicts clean_bad;
      exit 1
    end;
    if not slow_hit then begin
      print_endline
        "self-test FAILED: an injected 2x slowdown was not detected:";
      Regress.render_verdicts slowed;
      exit 1
    end;
    let counts_flagged count_shift =
      List.for_all
        (fun v -> v.Regress.v_kind <> Regress.Count || v.Regress.v_regressed)
        (Regress.diff ~count_shift ~time_threshold:!time_threshold ~base ~fresh
           ())
    in
    if not (counts_flagged (-1.0) && counts_flagged 1.0) then begin
      print_endline
        "self-test FAILED: an injected count drop or rise was not detected";
      exit 1
    end;
    Printf.printf
      "self-test OK: unmodified rerun passes (%d metrics), injected 2x \
       slowdown detected (%d time regressions), count drop and rise \
       flagged on every count metric\n"
      (List.length clean)
      (List.length
         (List.filter (fun v -> v.Regress.v_regressed) slowed))
  end
  else begin
    let base =
      match
        Stdx.Json.of_string (In_channel.with_open_bin !file In_channel.input_all)
      with
      | Ok json -> (
        match Regress.of_json json with
        | Ok base -> base
        | Error e ->
          Printf.eprintf "diff: %s: %s\n" !file e;
          exit 2)
      | Error e ->
        Printf.eprintf "diff: %s: %s\n" !file e;
        exit 2
      | exception Sys_error e ->
        Printf.eprintf "diff: %s (run `baseline` first)\n" e;
        exit 2
    in
    Printf.printf "measuring %d scenarios x %d repeats against %s...\n%!"
      (List.length Regress.scenarios) !repeats !file;
    let fresh = Regress.measure ~progress:true ~repeats:!repeats () in
    let verdicts =
      Regress.diff ~inject:!inject ~time_threshold:!time_threshold ~base
        ~fresh ()
    in
    Regress.render_verdicts verdicts;
    Printf.printf
      "calibration: baseline %.3fs, here %.3fs (time bounds scaled %.2fx)\n"
      base.Regress.r_calibration fresh.Regress.r_calibration
      (if base.Regress.r_calibration > 0.0 then
         fresh.Regress.r_calibration /. base.Regress.r_calibration
       else 1.0);
    let bad = Regress.regressions verdicts in
    (* --advisory-time: wall time on a shared machine (a CI runner) is
       subject to co-tenant jitter the calibration spin cannot see, so
       time misses are reported but only the near-deterministic
       alloc/count metrics decide the exit status *)
    let gating, advisory =
      if !advisory_time then
        List.partition (fun v -> v.Regress.v_kind <> Regress.Time) bad
      else (bad, [])
    in
    if advisory <> [] then
      Printf.printf "%d time regression(s) — advisory only, not gating\n"
        (List.length advisory);
    if gating = [] then print_endline "no gating regressions"
    else begin
      Printf.printf "%d metric(s) regressed\n" (List.length gating);
      exit 1
    end
  end

let run_experiment (name, _desc, f) =
  let t0 = Sys.time () in
  let table = f () in
  let dt = Sys.time () -. t0 in
  print_string (Harness.Experiments.render table);
  Printf.printf "  (regenerated in %.1fs cpu)\n\n" dt;
  (name, table)

let write_json path named_tables =
  let entry (name, table) =
    match Harness.Experiments.to_json table with
    | Stdx.Json.Obj fields ->
      Stdx.Json.Obj (("experiment", Stdx.Json.String name) :: fields)
    | other -> other
  in
  let json = Stdx.Json.List (List.map entry named_tables) in
  let oc = open_out path in
  output_string oc (Stdx.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d experiment%s)\n" path
    (List.length named_tables)
    (if List.length named_tables = 1 then "" else "s")

(* experiment tables go to a separate default file: BENCH.json is the
   committed perf baseline written by the `baseline` subcommand *)
let default_json_file = "BENCH_TABLES.json"

(* pull "--json [FILE]" out of the argument list; the remaining
   arguments parse as before *)
let rec extract_json acc = function
  | [] -> (None, List.rev acc)
  | "--json" :: rest -> (
    match rest with
    | file :: more when file = "" || file.[0] <> '-' ->
      (Some file, List.rev_append acc more)
    | _ -> (Some default_json_file, List.rev_append acc rest))
  | a :: rest -> extract_json (a :: acc) rest

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json_out, args = extract_json [] args in
  let maybe_write tables =
    match json_out with None -> () | Some path -> write_json path tables
  in
  match args with
  | [ "list" ] ->
    List.iter
      (fun (name, desc, _) -> Printf.printf "%-22s %s\n" name desc)
      experiments;
    print_endline "micro                  Bechamel microbenchmarks (E9)";
    print_endline
      "baseline               write the perf baseline BENCH.json (E10)";
    print_endline
      "diff                   gate a fresh run against BENCH.json (E10)"
  | [ "micro" ] -> run_micro ()
  | "baseline" :: rest -> run_baseline rest
  | "diff" :: rest -> run_diff rest
  | [ name ] -> (
    match List.find_opt (fun (n, _, _) -> n = name) experiments with
    | Some exp -> maybe_write [ run_experiment exp ]
    | None ->
      Printf.eprintf "unknown experiment %S; try 'list'\n" name;
      exit 1)
  | [] ->
    print_endline
      "DAG-Rider reproduction: regenerating every paper table/figure\n";
    let tables = List.map run_experiment experiments in
    run_micro ();
    maybe_write tables
  | _ ->
    prerr_endline
      "usage: main.exe [list | micro | baseline | diff | <experiment>] \
       [--json [FILE]]";
    exit 1
