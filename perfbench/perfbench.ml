(* The layered benchmark's measuring program (see README.md for the
   workloads and what each metric should move).

   One invocation is one measured execution, in its own process, so that
   the heap high-water mark belongs to that execution alone:

     perfbench.exe rep WORKLOAD SEED     timed run: end-to-end metrics
     perfbench.exe bare WORKLOAD SEED    [rep] without the workload's
                                         tracer (the untraced baseline of
                                         obs.overhead_share)
     perfbench.exe layers WORKLOAD SEED  profiled run plus layer probes:
                                         per-layer metrics

   Each prints one JSON object as its last line; run.py aggregates them.
   Only the libraries' public interfaces are called: no library file
   knows this benchmark exists. *)

module R = Harness.Runner
module D = Dagrider
module J = Stdx.Json

let now = Unix.gettimeofday

(* Exact allocation count: a minor collection first, so that the counter
   includes everything allocated since the last one. *)
let allocated () =
  Gc.minor ();
  Gc.allocated_bytes ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let per a b = if b = 0 then 0.0 else a /. float_of_int b

(* ---- workloads ---- *)

type workload = {
  w_name : string;
  w_until : float;  (** simulated horizon *)
  w_options : seed:int -> traced:bool -> R.options;
      (** [traced] only matters to [observed], whose tracer is part of
          the workload; [bare] turns it off *)
}

(* The threshold coin's dealer key is fixed, so every seed elects the
   same wave leaders; the seed drives the message schedule and the link
   faults. Leader choice alone moves commit latency by more than the
   benchmark's bounds from one seed to the next (a wave whose leader is
   the crashed process never commits). *)
let options ~n ~seed =
  let o = R.default_options ~n in
  { o with
    seed;
    coin_override =
      Some (Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.create 1) ~n ~f:o.R.f) }

(* Why each workload exists, and the layer it loads, is in README.md. *)
let workloads =
  [ { w_name = "wide";
      w_until = 20.0;
      w_options = (fun ~seed ~traced:_ -> options ~n:31 ~seed) };
    { w_name = "deep";
      w_until = 245.0;
      w_options = (fun ~seed ~traced:_ -> options ~n:10 ~seed) };
    { w_name = "avid-load";
      w_until = 60.0;
      w_options =
        (fun ~seed ~traced:_ ->
          { (options ~n:10 ~seed) with
            backend = R.Avid;
            workload = Some R.default_workload })
    };
    { w_name = "observed";
      w_until = 100.0;
      w_options =
        (fun ~seed ~traced ->
          { (options ~n:10 ~seed) with
            faults = [ R.Crash 9 ];
            link_faults =
              Some
                { R.default_link_faults with lf_drop = 0.05; lf_duplicate = 0.02 };
            trace = (if traced then Some (Trace.create ()) else None) })
    } ]

let find_workload name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.w_name) workloads));
    exit 2

(* ---- correctness of a finished run ---- *)

type outcome = {
  committed : int;  (** delivered count at the slowest correct node *)
  attempted : int;  (** a_deliver events at correct nodes *)
  failed : int;  (** ...that break agreement, total order or integrity *)
}

(* Every correct node's log is compared position by position against the
   longest one (agreement and total order) and scanned for repeats
   (integrity). The library's own checks must agree with the count. *)
let check_run fleet =
  let logs =
    List.map
      (fun i ->
        Array.of_list
          (List.map D.Vertex.vref_of (D.Node.delivered_log (R.node fleet i))))
      (R.correct_indices fleet)
  in
  let reference =
    List.fold_left
      (fun best l -> if Array.length l > Array.length best then l else best)
      [||] logs
  in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun log ->
      let seen = Hashtbl.create 256 in
      Array.iteri
        (fun j r ->
          incr attempted;
          if r <> reference.(j) || Hashtbl.mem seen r then incr failed;
          Hashtbl.replace seen r ())
        log)
    logs;
  let library_ok =
    R.check_total_order fleet = Ok () && R.check_integrity fleet = Ok ()
  in
  if (not library_ok) && !failed = 0 then failed := 1;
  let committed =
    List.fold_left (fun m l -> min m (Array.length l)) max_int logs
  in
  { committed = (if logs = [] then 0 else committed);
    attempted = !attempted;
    failed = !failed }

(* ---- host-speed reference ----

   The host is shared: the same execution has been seen to take 1.6x as
   long a few minutes later, in CPU time as well as wall time, so no
   number of repetitions makes raw wall time steady across runs. A fixed
   reference computation is therefore timed over and over while an
   execution runs, and the execution's times are multiplied by
   [reference_s] / (median reference time): the result is the time the
   work would take on a host where the reference takes [reference_s].
   One reference sample varies by about 20% (it is short), so the
   median of many is used, not the samples next to each timed piece.
   The reference is benchmark code: it calls no library function,
   allocates nothing (so it is blind to the heap a run built) and walks
   a 1 MiB table while mixing integers, a blend of the cache and ALU
   work the protocol does. *)

let ref_mask = (1 lsl 17) - 1

let ref_table =
  Array.init (ref_mask + 1) (fun i -> ((i * 40503) + 12345) land ref_mask)

let reference_s = 0.006

let reference () =
  let t0 = now () in
  let x = ref 1 and acc = ref 0 in
  for i = 1 to 400_000 do
    x := Array.unsafe_get ref_table ((!x + i) land ref_mask);
    acc := ((!acc lxor !x) * 31) + (i lsr 3)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* ---- timed run: end-to-end metrics ---- *)

let dag_vertices fleet =
  List.fold_left
    (fun acc i -> acc + D.Dag.size (D.Node.dag (R.node fleet i)))
    0 (R.correct_indices fleet)

let slices = 32

(* The horizon runs in [slices] equal slices with a reference sample
   before each and after the last. Allocation and DAG insertions at
   correct nodes are read at each quarter: per-round allocation is a
   quarter's bytes over its insertions, exactly. Returns raw wall
   seconds, the host factor [reference_s] / (median reference time), and
   the bytes and insertions of each quarter. *)
let run_sliced fleet ~until =
  let a = Array.make 5 0.0 and v = Array.make 5 0 in
  a.(0) <- allocated ();
  v.(0) <- dag_vertices fleet;
  let raw = ref 0.0 and refs = ref [ reference () ] in
  for s = 1 to slices do
    let t0 = now () in
    R.run fleet ~until:(until *. float_of_int s /. float_of_int slices);
    raw := !raw +. (now () -. t0);
    if s mod (slices / 4) = 0 then begin
      let q = s / (slices / 4) in
      a.(q) <- allocated ();
      v.(q) <- dag_vertices fleet
    end;
    refs := reference () :: !refs
  done;
  ( !raw,
    reference_s /. median !refs,
    List.init 4 (fun q -> a.(q + 1) -. a.(q)),
    List.init 4 (fun q -> v.(q + 1) - v.(q)) )

let setup_builds = 25

(* Median time of [Runner.build] over [setup_builds] builds. Measured
   after the run, so that the discarded fleets do not raise the run's
   heap high-water mark. *)
let setup_time wl ~seed ~traced =
  median
    (List.init setup_builds (fun _ ->
         let options = wl.w_options ~seed ~traced in
         let t0 = now () in
         ignore (Sys.opaque_identity (R.build options));
         now () -. t0))

(* One execution. run.py pools the counts of several seeds, so this
   reports sums and samples rather than ratios. *)
let rep wl ~seed ~traced =
  let fleet = R.build (wl.w_options ~seed ~traced) in
  let raw, host, q_alloc, q_vertices = run_sliced fleet ~until:wl.w_until in
  let wall = raw *. host in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let o = check_run fleet in
  let c = o.committed in
  (* latency samples: the committed prefix every correct node delivered *)
  let prefix =
    match R.correct_indices fleet with
    | i :: _ -> List.filteri (fun j _ -> j < c) (D.Node.delivered_log (R.node fleet i))
    | [] -> []
  in
  let latencies =
    List.filter_map
      (fun (v : D.Vertex.t) ->
        if v.block = "" then None
        else Metrics.Latency.first_delivery_latency (R.latency fleet) v.block)
      prefix
  in
  let floats l = J.List (List.map (fun x -> J.Float x) l) in
  J.Obj
    [ ("ok", J.Bool (o.failed = 0 && c > 0));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("committed", J.Int c);
      ("setup_s", J.Float (setup_time wl ~seed ~traced *. host));
      ("wall_s", J.Float raw);
      ("ref_wall_s", J.Float wall);
      ("raw_us_per_commit", J.Float (per (raw *. 1e6) c));
      ("wall_us_per_commit", J.Float (per (wall *. 1e6) c));
      ("peak_heap_mb",
       J.Float (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6));
      ("quarter_alloc_b", floats q_alloc);
      ("quarter_vertices", J.List (List.map (fun v -> J.Int v) q_vertices));
      ("latencies", floats latencies);
      ("honest_bits", J.Int (R.honest_bits fleet)) ]

(* ---- layer probes ---- *)

(* Each probe times a public function over repeated calls and checks
   the output, so a faster but wrong layer fails the benchmark. *)

let checks = ref []

let check name ok = checks := (name, ok) :: !checks

(* Repeat [f] until at least [min_s] seconds have passed; returns the
   seconds and the bytes allocated per call. *)
let time_calls ?(min_s = 0.05) f =
  let calls = ref 0 in
  let a0 = allocated () in
  let t0 = now () in
  while now () -. t0 < min_s || !calls = 0 do
    f ();
    incr calls
  done;
  let dt = now () -. t0 in
  let da = allocated () -. a0 in
  (dt /. float_of_int !calls, da /. float_of_int !calls)

let crypto_probes ~n ~f ~payload =
  let open Crypto in
  (* FIPS 180-4 examples: one-block and two-block messages *)
  check "sha256.fips"
    (Sha256.to_hex (Sha256.digest_string "abc")
     = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    && Sha256.to_hex
         (Sha256.digest_string
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
       = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  let len = String.length payload in
  let kib = float_of_int len /. 1024.0 in
  let blocks = (len + 9 + 63) / 64 in
  let sha_s, sha_b =
    time_calls (fun () -> ignore (Sys.opaque_identity (Sha256.digest_string payload)))
  in
  let k = f + 1 in
  let coder = Reed_solomon.make ~k ~n in
  let frags = Reed_solomon.encode coder payload in
  (* decode from the last k fragments: the most parity the code allows *)
  let subset = List.init k (fun i -> (n - k + i, frags.(n - k + i))) in
  check "rs.roundtrip" (Reed_solomon.decode coder ~data_len:len subset = payload);
  let enc_s, _ =
    time_calls (fun () -> ignore (Sys.opaque_identity (Reed_solomon.encode coder payload)))
  in
  let dec_s, _ =
    time_calls (fun () ->
        ignore (Sys.opaque_identity (Reed_solomon.decode coder ~data_len:len subset)))
  in
  let tree = Merkle.build frags in
  let root = Merkle.root tree in
  let proofs = Array.init n (Merkle.prove tree) in
  check "merkle.verify"
    (Array.for_all
       (fun p ->
         Merkle.verify ~root ~leaf_count:n ~leaf:frags.(p.Merkle.leaf_index) p)
       proofs);
  let build_s, _ = time_calls (fun () -> ignore (Sys.opaque_identity (Merkle.build frags))) in
  let verify_s, _ =
    time_calls (fun () ->
        Array.iter
          (fun p ->
            ignore (Merkle.verify ~root ~leaf_count:n ~leaf:frags.(p.Merkle.leaf_index) p))
          proofs)
  in
  let coin = Threshold_coin.setup ~rng:(Stdx.Rng.create 7) ~n ~f in
  let shares lo = List.init (f + 1) (fun i -> Threshold_coin.make_share coin ~holder:(lo + i) ~instance:3) in
  let first = shares 0 and last = shares (n - f - 1) in
  let leader = Threshold_coin.combine coin ~instance:3 first in
  check "coin.agreement"
    (leader <> None && leader = Threshold_coin.combine coin ~instance:3 last);
  let coin_s, _ =
    time_calls (fun () -> ignore (Sys.opaque_identity (Threshold_coin.combine coin ~instance:3 first)))
  in
  [ ("crypto.sha256.ns_per_kib", sha_s *. 1e9 /. kib);
    ("crypto.sha256.alloc_b_per_block", sha_b /. float_of_int blocks);
    ("crypto.rs.encode_ns_per_kib", enc_s *. 1e9 /. kib);
    ("crypto.rs.decode_ns_per_kib", dec_s *. 1e9 /. kib);
    ("crypto.merkle.build_us", build_s *. 1e6);
    ("crypto.merkle.verify_us", verify_s *. 1e6 /. float_of_int n);
    ("crypto.coin.combine_us", coin_s *. 1e6) ]

(* One reliable broadcast at a time from process 0 over a fresh fleet of
   [n] endpoints; every endpoint must deliver the payload once. *)
let rbc_probe ~backend ~n ~f ~payload =
  let instances = 8 in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 11) in
  let got = Array.make n 0 and wrong = ref 0 in
  let deliver me ~payload:p ~round:_ ~source =
    if p = payload && source = 0 then got.(me) <- got.(me) + 1 else incr wrong
  in
  let bcast =
    match backend with
    | `Bracha ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let eps = Array.init n (fun me -> Rbc.Bracha.create ~net ~me ~f ~deliver:(deliver me)) in
      fun round -> Rbc.Bracha.bcast eps.(0) ~payload ~round
    | `Avid ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let eps = Array.init n (fun me -> Rbc.Avid.create ~net ~me ~f ~deliver:(deliver me)) in
      fun round -> Rbc.Avid.bcast eps.(0) ~payload ~round
  in
  let a0 = allocated () in
  let t0 = now () in
  for round = 1 to instances do
    bcast round;
    ignore (Sim.Engine.run engine ())
  done;
  let dt = now () -. t0 in
  let da = allocated () -. a0 in
  let name = match backend with `Bracha -> "bracha" | `Avid -> "avid" in
  check ("rbc." ^ name ^ ".delivery")
    (!wrong = 0 && Array.for_all (fun c -> c = instances) got);
  let per_i x = x /. float_of_int instances in
  [ ("rbc." ^ name ^ ".us_per_instance", per_i (dt *. 1e6));
    ("rbc." ^ name ^ ".alloc_b_per_instance", per_i da);
    ("rbc." ^ name ^ ".msgs_per_instance",
     per_i (float_of_int (Metrics.Counters.total_messages counters))) ]

let encoding (v : D.Vertex.t) = (v.round, v.source, D.Vertex.encode v)

(* DAG queries and an ordering replay on node 0's final DAG. Replaying
   waves 1..decided with node 0's leaders must reproduce node 0's
   delivered log byte for byte: support only grows as a DAG grows, and
   any wave with a 2f+1 supporter set is reached by the next committed
   leader's chain-back, so the committed leader set up to the decided
   wave is the same as node 0 saw. *)
let dag_probes fleet =
  let node = R.node fleet 0 in
  let dag = D.Node.dag node in
  let n = D.Dag.n dag in
  let vs = D.Dag.vertices dag in
  let add_s, _ =
    time_calls (fun () ->
        let d = D.Dag.create ~n in
        List.iter (D.Dag.add d) vs)
  in
  let top = D.Dag.round_vertices dag (D.Dag.highest_round dag) in
  let refs = List.map D.Vertex.vref_of top in
  let per_ref x = x /. float_of_int (max 1 (List.length refs)) in
  let reach_s, _ =
    time_calls (fun () ->
        List.iter (fun r -> ignore (D.Dag.reachable_from dag r ~via_strong_only:false)) refs)
  in
  let hist_s, _ =
    time_calls (fun () -> List.iter (fun r -> ignore (D.Dag.causal_history dag r)) refs)
  in
  let ord0 = D.Node.ordering node in
  let decided = D.Ordering.decided_wave ord0 in
  let wave_length = D.Ordering.wave_length ord0 in
  let leader w =
    match D.Node.leader_of node ~wave:w with
    | Some l -> l
    | None -> failwith "leader of a decided wave is unknown"
  in
  (* the Line 36 query: each last-round vertex of a wave to its leader *)
  let pairs =
    List.concat_map
      (fun w ->
        let lr = { D.Vertex.round = D.Ordering.round_of ~wave_length ~wave:w ~k:1; source = leader w } in
        List.map
          (fun v -> (D.Vertex.vref_of v, lr))
          (D.Dag.round_vertices dag (D.Ordering.round_of ~wave_length ~wave:w ~k:wave_length)))
      (List.init decided (fun i -> i + 1))
  in
  let sp_s, _ =
    time_calls (fun () -> List.iter (fun (a, b) -> ignore (D.Dag.strong_path dag a b)) pairs)
  in
  let f = (R.options fleet).f in
  let rule = D.Ordering.rule ord0 in
  let replay () =
    let o = D.Ordering.create ~rule ~wave_length ~f () in
    for w = 1 to decided do
      ignore (D.Ordering.process_wave o ~dag ~wave:w ~choose_leader:leader)
    done;
    o
  in
  check "order.replay"
    (List.map encoding (D.Ordering.delivered_log (replay ()))
     = List.map encoding (D.Node.delivered_log node));
  let order_s, order_b = time_calls (fun () -> ignore (replay ())) in
  let per_wave x = x /. float_of_int (max 1 decided) in
  let encoded = List.map D.Vertex.encode vs in
  check "vertex.roundtrip"
    (List.for_all2
       (fun (v : D.Vertex.t) e -> D.Vertex.decode ~round:v.round ~source:v.source e = Some v)
       vs encoded);
  let nv = float_of_int (max 1 (List.length vs)) in
  let enc_s, _ = time_calls (fun () -> List.iter (fun v -> ignore (D.Vertex.encode v)) vs) in
  let dec_s, _ =
    time_calls (fun () ->
        List.iter2
          (fun (v : D.Vertex.t) e -> ignore (D.Vertex.decode ~round:v.round ~source:v.source e))
          vs encoded)
  in
  let metrics =
    [ ("dag.add_us", add_s *. 1e6 /. nv);
      ("dag.reachable_us", per_ref (reach_s *. 1e6));
      ("dag.causal_history_us", per_ref (hist_s *. 1e6));
      ("dag.strong_path_us", sp_s *. 1e6 /. float_of_int (max 1 (List.length pairs)));
      ("order.us_per_wave", per_wave (order_s *. 1e6));
      ("order.alloc_b_per_wave", per_wave order_b);
      ("vertex.encode_ns", enc_s *. 1e9 /. nv);
      ("vertex.decode_ns", dec_s *. 1e9 /. nv) ]
  in
  (* the payload the layer probes use: node 0's median vertex encoding *)
  let sorted = List.sort (fun a b -> compare (String.length a) (String.length b)) encoded in
  (metrics, List.nth sorted (List.length sorted / 2))

(* The critical-path stages reported, as named by [Critpath.segment_means]. *)
let critpath_stages =
  [ ("transit", "transit"); ("quorum_wait", "quorum-wait"); ("dag_wait", "dag-wait");
    ("order_wait", "order-wait"); ("retransmit_stall", "retransmit-stall") ]

let observer_metric_names =
  [ "trace.events_per_commit"; "obs.analyze.ns_per_event"; "obs.critpath.ns_per_event";
    "obs.forensics.ns_per_event" ]
  @ List.map (fun (k, _) -> "critpath." ^ k ^ "_mean") critpath_stages

(* Each trace consumer replays the captured stream on its own, so each
   has its own cost; the replay must match the live sinks Runner fed. *)
let observer_probes fleet tracer ~committed events =
  let ne = List.length events in
  let per_event s = s *. 1e9 /. float_of_int (max 1 ne) in
  let vantage = 0 in
  let analyze_s, _ =
    time_calls (fun () ->
        let acc = Analyze.create () in
        List.iter (Analyze.feed acc) events;
        ignore (Analyze.finalize acc))
  in
  let critpath_s, _ =
    time_calls (fun () ->
        let acc = Critpath.create ~observer:vantage () in
        List.iter (Critpath.feed acc) events;
        ignore (Critpath.finalize acc))
  in
  let forensics_s, _ =
    time_calls (fun () ->
        let acc = Forensics.create () in
        List.iter (Forensics.feed acc) events;
        ignore (Forensics.stories acc ~node:vantage))
  in
  let cp = Critpath.create ~observer:vantage () in
  List.iter (Critpath.feed cp) events;
  let live = Option.get (R.critpath fleet) in
  check "obs.critpath.replay" (Critpath.segment_means cp = Critpath.segment_means live);
  let fx = Forensics.create () in
  List.iter (Forensics.feed fx) events;
  let live_fx = Option.get (R.forensics fleet) in
  check "obs.forensics.replay"
    (List.length (Forensics.stories fx ~node:vantage)
     = List.length (Forensics.stories live_fx ~node:vantage));
  let means = Critpath.segment_means live in
  let mean (_, seg) =
    Option.value ~default:0.0 (List.assoc_opt ("critpath." ^ seg ^ ".mean") means)
  in
  List.combine observer_metric_names
    ([ per (float_of_int (Trace.emitted tracer)) committed; per_event analyze_s;
       per_event critpath_s; per_event forensics_s ]
    @ List.map mean critpath_stages)

(* The client path at the workload's settings: submit, batch, retire. *)
let mempool_probe (wl : R.workload) =
  let txs = 4096 in
  let gen = Workload.Txgen.gen ~owner:0 ~body_bytes:wl.R.wl_body_bytes in
  let batch = Array.init txs (fun _ -> Workload.Txgen.next_tx gen) in
  let ok = ref true in
  let s, _ =
    time_calls (fun () ->
        let pool = Workload.Mempool.create ~max_batch:wl.R.wl_max_batch ~owner:0 () in
        Array.iter (fun tx -> ignore (Workload.Mempool.submit pool tx)) batch;
        let rec drain () =
          let b = Workload.Mempool.assemble_block pool in
          if b <> "" then begin
            ignore (Workload.Mempool.retire_block pool b);
            drain ()
          end
        in
        drain ();
        if Workload.Mempool.retired pool <> txs || Workload.Mempool.pending pool <> 0
        then ok := false)
  in
  check "mempool.retire" !ok;
  s *. 1e9 /. float_of_int txs

(* the existing spans the profiled run reports *)
let prof_spans =
  [ "rbc.bracha.recv"; "rbc.avid.recv"; "node.r_deliver"; "node.coin";
    "engine.dispatch"; "dag.causal_history"; "dag.path"; "order.wave.dagrider";
    "analyze.feed"; "link.on_frame" ]

let layers wl ~seed =
  let options = wl.w_options ~seed ~traced:true in
  let fleet = R.build options in
  let captured = ref [] in
  (match options.R.trace with
  | Some tr -> Trace.add_sink tr (fun ev -> captured := ev :: !captured)
  | None -> ());
  let prof = Prof.create () in
  let refs = List.init 8 (fun _ -> reference ()) in
  Prof.install prof;
  Prof.time "run" (fun () -> R.run fleet ~until:wl.w_until);
  Prof.uninstall ();
  let host = reference_s /. median (refs @ List.init 8 (fun _ -> reference ())) in
  let o = check_run fleet in
  let c = o.committed in
  let rows = Prof.rows prof in
  let observed = Prof.observed_s prof in
  let span name =
    match List.find_opt (fun r -> r.Prof.r_name = name) rows with
    | Some r -> (r.Prof.r_self_s, r.Prof.r_self_alloc_bytes, r.Prof.r_count)
    | None -> (0.0, 0.0, 0)
  in
  let prof_metrics =
    List.concat_map
      (fun name ->
        let self_s, self_b, _ = span name in
        [ ("prof." ^ name ^ ".self_us_per_commit", per (self_s *. 1e6) c);
          ("prof." ^ name ^ ".self_b_per_commit", per self_b c);
          ("prof." ^ name ^ ".self_share",
           if observed > 0.0 then self_s /. observed else 0.0) ])
      prof_spans
    @ [ ("prof.coverage", Prof.coverage prof) ]
  in
  let dispatch_s, _, dispatches = span "engine.dispatch" in
  let counters = R.counters fleet in
  let msgs = Metrics.Counters.total_messages counters in
  let fc = float_of_int in
  let run_metrics =
    [ ("engine.events_per_commit", per (fc (Sim.Engine.events_executed (R.engine fleet))) c);
      ("engine.ns_per_event", per (dispatch_s *. 1e9) dispatches);
      ("net.msgs_per_commit", per (fc msgs) c);
      ("net.bits_per_msg", per (fc (Metrics.Counters.total_bits counters)) msgs);
      ("link.retransmits_per_commit", per (fc (R.link_stats fleet).Net.Link.retransmits) c);
      ("check.failed_share", per (fc o.failed) o.attempted) ]
  in
  let dag_metrics, payload = dag_probes fleet in
  let opts = R.options fleet in
  let n = opts.R.n and f = opts.R.f in
  let crypto = crypto_probes ~n ~f ~payload in
  let rbc =
    rbc_probe ~backend:`Bracha ~n ~f ~payload @ rbc_probe ~backend:`Avid ~n ~f ~payload
  in
  let observers =
    match options.R.trace with
    | Some tr -> observer_probes fleet tr ~committed:c (List.rev !captured)
    | None ->
      (* no tracer, so no observer runs: these are zero by construction *)
      List.map (fun k -> (k, 0.0)) observer_metric_names
  in
  let mempool =
    match (options.R.workload, R.mempools fleet) with
    | Some w, Some pools ->
      (* a pool's [retired] counts every transaction its node ordered,
         foreign ones included: the slowest correct node's count over
         everything the fleet submitted is the share ordered everywhere *)
      let submitted = Array.fold_left (fun acc p -> acc + Workload.Mempool.submitted p) 0 pools in
      let ordered =
        List.fold_left
          (fun m i -> min m (Workload.Mempool.retired pools.(i)))
          max_int (R.correct_indices fleet)
      in
      [ ("mempool.ns_per_tx", mempool_probe w);
        ("tx.ordered_share", per (fc ordered) submitted) ]
    | _ -> [ ("mempool.ns_per_tx", 0.0); ("tx.ordered_share", 0.0) ]
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) !checks in
  List.iter (fun (name, _) -> Printf.eprintf "layer check failed: %s\n" name) failed_checks;
  J.Obj
    [ ("ok", J.Bool (o.failed = 0 && c > 0 && failed_checks = []));
      ("attempted", J.Int (o.attempted + List.length !checks));
      ("failed", J.Int (o.failed + List.length failed_checks));
      ("committed", J.Int c);
      ("prof_ref_wall_s", J.Float (observed *. host));
      ("metrics",
       J.Obj
         (List.map (fun (k, v) -> (k, J.Float v))
            (prof_metrics @ run_metrics @ dag_metrics @ crypto @ rbc @ observers
           @ mempool))) ]

let () =
  match Sys.argv with
  | [| _; mode; name; seed |] ->
    let wl = find_workload name in
    let seed = int_of_string seed in
    let result =
      match mode with
      | "rep" -> rep wl ~seed ~traced:true
      | "bare" -> rep wl ~seed ~traced:false
      | "layers" -> layers wl ~seed
      | _ ->
        prerr_endline "mode must be rep, bare or layers";
        exit 2
    in
    print_endline (J.to_string result)
  | _ ->
    prerr_endline "usage: perfbench.exe (rep|bare|layers) WORKLOAD SEED";
    exit 2
