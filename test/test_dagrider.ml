(* Unit and property tests for the DAG layer: vertex codec and
   validation (Algorithm 1 / Algorithm 2 line 25), and the DAG store's
   reachability semantics (Claim 1's invariant). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let vref round source = { Dagrider.Vertex.round; source }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let mkv ~round ~source ?(block = "") ?(strong = []) ?(weak = []) () =
  { Dagrider.Vertex.round;
    source;
    block;
    strong_edges = List.map (fun (r, s) -> vref r s) strong;
    weak_edges = List.map (fun (r, s) -> vref r s) weak }

(* ---- Vertex codec ---- *)

let test_codec_roundtrip_simple () =
  let v =
    mkv ~round:3 ~source:1 ~block:"transactions here"
      ~strong:[ (2, 0); (2, 1); (2, 2) ]
      ~weak:[ (1, 3) ] ()
  in
  match Dagrider.Vertex.decode ~round:3 ~source:1 (Dagrider.Vertex.encode v) with
  | Some v' -> checkb "identical" true (v = v')
  | None -> Alcotest.fail "decode failed"

let test_codec_envelope_wins () =
  (* round/source come from the RBC envelope, not the payload *)
  let v = mkv ~round:3 ~source:1 ~strong:[ (2, 0); (2, 1); (2, 2) ] () in
  match Dagrider.Vertex.decode ~round:9 ~source:2 (Dagrider.Vertex.encode v) with
  | Some v' ->
    checki "envelope round" 9 v'.Dagrider.Vertex.round;
    checki "envelope source" 2 v'.Dagrider.Vertex.source
  | None -> Alcotest.fail "decode failed"

let test_codec_rejects_garbage () =
  checkb "empty" true (Dagrider.Vertex.decode ~round:1 ~source:0 "" = None);
  checkb "truncated" true
    (Dagrider.Vertex.decode ~round:1 ~source:0 "\x00\x00\x00\xFFxx" = None);
  checkb "trailing junk" true
    (let v = mkv ~round:1 ~source:0 ~strong:[ (0, 0) ] () in
     Dagrider.Vertex.decode ~round:1 ~source:0 (Dagrider.Vertex.encode v ^ "z")
     = None)

let test_codec_binary_block () =
  let block = String.init 257 (fun i -> Char.chr (i mod 256)) in
  let v = mkv ~round:2 ~source:0 ~block ~strong:[ (1, 0); (1, 1); (1, 2) ] () in
  match Dagrider.Vertex.decode ~round:2 ~source:0 (Dagrider.Vertex.encode v) with
  | Some v' -> checks "binary block survives" block v'.Dagrider.Vertex.block
  | None -> Alcotest.fail "decode failed"

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let* round = int_range 2 40 in
      let* source = int_range 0 9 in
      let* block = string_size (int_range 0 300) in
      let* n_strong = int_range 3 10 in
      let* strong_sources = list_repeat n_strong (int_range 0 9) in
      let* weak_rounds = list_size (int_range 0 4) (int_range 1 (max 1 (round - 2))) in
      let strong =
        List.mapi (fun i s -> (round - 1, (s + i) mod 10)) strong_sources
        |> List.sort_uniq compare
      in
      let weak =
        List.mapi (fun i r -> (r, i mod 10)) weak_rounds |> List.sort_uniq compare
      in
      (* drop weak refs colliding with strong refs *)
      let weak = List.filter (fun w -> not (List.mem w strong)) weak in
      return (round, source, block, strong, weak))
  in
  QCheck.Test.make ~name:"vertex codec roundtrip" ~count:300
    (QCheck.make gen) (fun (round, source, block, strong, weak) ->
      let v = mkv ~round ~source ~block ~strong ~weak () in
      Dagrider.Vertex.decode ~round ~source (Dagrider.Vertex.encode v) = Some v)

(* ---- Vertex validation ---- *)

let ok = function Ok () -> true | Error _ -> false

let test_validate_accepts_good () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ~weak:[ (1, 3) ] ()
  in
  checkb "valid" true (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_too_few_strong () =
  let v = mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1) ] () in
  checkb "2 < 2f+1" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_wrong_round_strong () =
  let v = mkv ~round:3 ~source:0 ~strong:[ (1, 0); (2, 1); (2, 2) ] () in
  checkb "strong edge to r-2" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_weak_to_previous_round () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ~weak:[ (2, 3) ] ()
  in
  checkb "weak edge to r-1" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_weak_in_round_one () =
  let v =
    mkv ~round:1 ~source:0 ~strong:[ (0, 0); (0, 1); (0, 2) ] ~weak:[ (1, 3) ] ()
  in
  checkb "round-1 vertex cannot have weak edges" false
    (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_round_zero () =
  let v = mkv ~round:0 ~source:0 () in
  checkb "round 0 not broadcastable" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_bad_source () =
  let v = mkv ~round:3 ~source:7 ~strong:[ (2, 0); (2, 1); (2, 2) ] () in
  checkb "source out of range" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v));
  let v2 = mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 9) ] () in
  checkb "edge source out of range" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v2))

let test_validate_rejects_duplicate_edges () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 0); (2, 1) ] ()
  in
  checkb "duplicate strong" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_error_messages_name_rule () =
  (match
     Dagrider.Vertex.validate ~n:4 ~f:1
       (mkv ~round:3 ~source:0 ~strong:[ (2, 0) ] ())
   with
  | Error msg -> checkb "mentions strong edges" true
      (contains msg "strong")
  | Ok () -> Alcotest.fail "should reject")

(* ---- Dag store ---- *)

let full_round dag ~n ~round =
  (* add n vertices at [round], each pointing to all of round-1 *)
  let prev =
    List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag (round - 1))
  in
  for source = 0 to n - 1 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round;
        source;
        block = Printf.sprintf "b%d.%d" round source;
        strong_edges = prev;
        weak_edges = [] }
  done

let test_dag_genesis () =
  let dag = Dagrider.Dag.create ~n:4 in
  checki "genesis size" 4 (Dagrider.Dag.round_size dag 0);
  checki "round 1 empty" 0 (Dagrider.Dag.round_size dag 1);
  checki "highest" 0 (Dagrider.Dag.highest_round dag);
  checkb "genesis present" true (Dagrider.Dag.contains dag (vref 0 2))

let test_dag_add_and_lookup () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  checki "round 1 full" 4 (Dagrider.Dag.round_size dag 1);
  checki "highest" 1 (Dagrider.Dag.highest_round dag);
  match Dagrider.Dag.find dag (vref 1 2) with
  | Some v -> checks "block" "b1.2" v.Dagrider.Vertex.block
  | None -> Alcotest.fail "vertex missing"

let test_dag_missing_predecessor_rejected () =
  let dag = Dagrider.Dag.create ~n:4 in
  let orphan =
    mkv ~round:2 ~source:0 ~strong:[ (1, 0); (1, 1); (1, 2) ] ()
  in
  checkb "can_add false" false (Dagrider.Dag.can_add dag orphan);
  Alcotest.check_raises "add raises"
    (Invalid_argument "Dag.add: missing predecessor") (fun () ->
      Dagrider.Dag.add dag orphan)

let test_dag_conflicting_vertex_rejected () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let conflicting =
    mkv ~round:1 ~source:0 ~block:"different"
      ~strong:[ (0, 0); (0, 1); (0, 2); (0, 3) ] ()
  in
  Alcotest.check_raises "equivocation caught"
    (Invalid_argument "Dag.add: conflicting vertex for (round, source)")
    (fun () -> Dagrider.Dag.add dag conflicting)

let test_dag_readd_identical_noop () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let v = Option.get (Dagrider.Dag.find dag (vref 1 0)) in
  Dagrider.Dag.add dag v;
  checki "still 4" 4 (Dagrider.Dag.round_size dag 1)

let test_dag_strong_path_reflexive_and_transitive () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  full_round dag ~n:4 ~round:3;
  checkb "reflexive" true (Dagrider.Dag.strong_path dag (vref 2 1) (vref 2 1));
  checkb "one hop" true (Dagrider.Dag.strong_path dag (vref 2 1) (vref 1 3));
  checkb "two hops" true (Dagrider.Dag.strong_path dag (vref 3 0) (vref 1 2));
  checkb "no forward path" false (Dagrider.Dag.strong_path dag (vref 1 0) (vref 2 0));
  checkb "absent target" false (Dagrider.Dag.strong_path dag (vref 3 0) (vref 2 9))

let test_dag_weak_edges_only_in_path () =
  let dag = Dagrider.Dag.create ~n:4 in
  (* round 1: only 3 vertices (p3 slow) *)
  let prev = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 0) in
  for source = 0 to 2 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round = 1; source; block = ""; strong_edges = prev;
        weak_edges = [] }
  done;
  (* round 2: 3 vertices pointing to those *)
  let r1 = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 1) in
  for source = 0 to 2 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round = 2; source; block = ""; strong_edges = r1;
        weak_edges = [] }
  done;
  (* now p3's round-1 vertex arrives late *)
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 1; source = 3; block = "late"; strong_edges = prev;
      weak_edges = [] };
  (* a round-3 vertex weak-links it *)
  let r2 = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 2) in
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 3; source = 0; block = ""; strong_edges = r2;
      weak_edges = [ vref 1 3 ] };
  checkb "strong_path misses late vertex" false
    (Dagrider.Dag.strong_path dag (vref 3 0) (vref 1 3));
  checkb "path reaches via weak edge" true
    (Dagrider.Dag.path dag (vref 3 0) (vref 1 3))

let test_dag_causal_history_complete_and_sorted () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  full_round dag ~n:4 ~round:3;
  let hist = Dagrider.Dag.causal_history dag (vref 3 1) in
  (* full DAG: history of a round-3 vertex = rounds 1,2 fully + itself *)
  checki "size" 9 (List.length hist);
  let refs = List.map Dagrider.Vertex.vref_of hist in
  checkb "sorted" true (refs = List.sort Dagrider.Vertex.compare_vref refs);
  checkb "excludes genesis" true
    (List.for_all (fun (r : Dagrider.Vertex.vref) -> r.Dagrider.Vertex.round >= 1) refs);
  checkb "includes itself" true (List.mem (vref 3 1) refs)

let test_dag_causal_history_partial () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  (* round 2: vertex from p0 pointing to only 3 of round 1 *)
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 2; source = 0; block = "";
      strong_edges = [ vref 1 0; vref 1 1; vref 1 2 ];
      weak_edges = [] };
  let hist = Dagrider.Dag.causal_history dag (vref 2 0) in
  checki "only reachable vertices" 4 (List.length hist);
  checkb "p3's round-1 vertex excluded" true
    (not (List.exists (fun v -> Dagrider.Vertex.vref_of v = vref 1 3) hist))

let test_dag_vertices_listing () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  checki "8 non-genesis" 8 (List.length (Dagrider.Dag.vertices dag))

let test_dag_prune () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 6 do
    full_round dag ~n:4 ~round:r
  done;
  Dagrider.Dag.prune_below dag ~round:3;
  checki "round 2 gone" 0 (Dagrider.Dag.round_size dag 2);
  checki "round 3 kept" 4 (Dagrider.Dag.round_size dag 3);
  (* a new vertex whose edges point into pruned rounds can still be
     added (its targets were delivered before pruning) *)
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ()
  in
  checkb "edges into pruned rounds satisfied" true (Dagrider.Dag.can_add dag v);
  (* reachability stops at the pruned frontier instead of crashing *)
  checkb "path query safe" false (Dagrider.Dag.path dag (vref 4 0) (vref 1 1))

(* random partial rounds, each vertex points to 3 random vertices of the
   previous round when available. With [weak], strong edges go to the
   previous round's three lowest sources instead, so a fourth vertex is
   left behind, and half the vertices add a weak edge to one such
   left-behind vertex two or more rounds back — the only vertices a weak
   edge makes reachable. *)
let random_dag ?(weak = false) rng =
  let n = 4 in
  let dag = Dagrider.Dag.create ~n in
  let left_behind = ref [] in
  for round = 1 to 5 do
    let prev = Dagrider.Dag.round_vertices dag (round - 1) in
    if List.length prev >= 3 then begin
      let older = !left_behind in
      for source = 0 to n - 1 do
        if Stdx.Rng.bool rng || round = 1 then begin
          let prev_arr = Array.of_list prev in
          if not weak then Stdx.Rng.shuffle rng prev_arr;
          let strong =
            Array.to_list (Array.sub prev_arr 0 3)
            |> List.map Dagrider.Vertex.vref_of
          in
          let weak_edges =
            if weak && older <> [] && Stdx.Rng.bool rng then
              [ List.nth older (Stdx.Rng.int rng (List.length older)) ]
            else []
          in
          Dagrider.Dag.add dag
            { Dagrider.Vertex.round; source; block = "";
              strong_edges = strong; weak_edges }
        end
      done;
      left_behind :=
        List.map Dagrider.Vertex.vref_of (List.filteri (fun i _ -> i >= 3) prev)
        @ !left_behind
    end
  done;
  dag

let prop_dag_path_strong_implies_path =
  QCheck.Test.make ~name:"strong_path implies path" ~count:50
    (QCheck.int_range 0 10_000) (fun seed ->
      let dag = random_dag (Stdx.Rng.create seed) in
      let vs = Dagrider.Dag.vertices dag in
      List.for_all
        (fun v ->
          List.for_all
            (fun u ->
              let a = Dagrider.Vertex.vref_of v in
              let b = Dagrider.Vertex.vref_of u in
              (not (Dagrider.Dag.strong_path dag a b)) || Dagrider.Dag.path dag a b)
            vs)
        vs)

(* the early-exit path query and the full traversal are one BFS: they
   must agree on every pair, over strong edges alone and over both *)
let prop_dag_reaches_matches_reachable_from =
  QCheck.Test.make ~name:"path queries agree with reachable_from" ~count:50
    (QCheck.int_range 0 10_000) (fun seed ->
      let dag = random_dag ~weak:true (Stdx.Rng.create seed) in
      let refs =
        List.concat_map
          (fun r ->
            List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag r))
          (List.init (Dagrider.Dag.highest_round dag + 1) Fun.id)
      in
      List.for_all
        (fun (via_strong_only, reaches) ->
          List.for_all
            (fun a ->
              let reachable =
                Dagrider.Dag.reachable_from dag a ~via_strong_only
              in
              List.for_all
                (fun b -> reaches dag a b = List.mem b reachable)
                refs)
            refs)
        [ (true, Dagrider.Dag.strong_path); (false, Dagrider.Dag.path) ])

let prop_dag_causal_history_closed =
  QCheck.Test.make ~name:"causal history is edge-closed" ~count:50
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let n = 4 in
      let dag = Dagrider.Dag.create ~n in
      for round = 1 to 4 do
        let prev = Dagrider.Dag.round_vertices dag (round - 1) in
        if List.length prev >= 3 then
          for source = 0 to n - 1 do
            let prev_arr = Array.of_list prev in
            Stdx.Rng.shuffle rng prev_arr;
            let strong =
              Array.to_list (Array.sub prev_arr 0 3)
              |> List.map Dagrider.Vertex.vref_of
            in
            Dagrider.Dag.add dag
              { Dagrider.Vertex.round; source; block = "";
                strong_edges = strong; weak_edges = [] }
          done
      done;
      List.for_all
        (fun v ->
          let hist = Dagrider.Dag.causal_history dag (Dagrider.Vertex.vref_of v) in
          let in_hist (r : Dagrider.Vertex.vref) =
            r.Dagrider.Vertex.round = 0
            || List.exists (fun u -> Dagrider.Vertex.vref_of u = r) hist
          in
          List.for_all
            (fun u ->
              List.for_all in_hist
                (u.Dagrider.Vertex.strong_edges @ u.Dagrider.Vertex.weak_edges))
            hist)
        (Dagrider.Dag.vertices dag))

(* ---- reference models ----

   The algorithms the single walk replaced, kept as test-only models:
   reachability as a plain DFS over [Dag.find], weak-edge selection as
   one reachability per strong edge plus one per pick (Algorithm 2
   line 30, as first written), and delivery as the whole causal history
   filtered against the delivered set. *)

let ref_reachable dag start =
  let seen = Hashtbl.create 64 in
  let rec go (r : Dagrider.Vertex.vref) =
    if not (Hashtbl.mem seen r) then
      match Dagrider.Dag.find dag r with
      | None -> ()
      | Some v ->
        Hashtbl.add seen r ();
        List.iter go v.Dagrider.Vertex.strong_edges;
        List.iter go v.Dagrider.Vertex.weak_edges
  in
  go start;
  seen

let ref_weak_edges dag ~strong_edges ~round =
  let reachable = Hashtbl.create 128 in
  let absorb vref =
    Hashtbl.iter (fun r () -> Hashtbl.replace reachable r ()) (ref_reachable dag vref)
  in
  List.iter absorb strong_edges;
  let weak = ref [] in
  for r = round - 2 downto 1 do
    List.iter
      (fun u ->
        let uref = Dagrider.Vertex.vref_of u in
        if not (Hashtbl.mem reachable uref) then begin
          weak := uref :: !weak;
          absorb uref
        end)
      (Dagrider.Dag.round_vertices dag r)
  done;
  !weak

let ref_undelivered_history dag vref ~delivered =
  Hashtbl.fold
    (fun (r : Dagrider.Vertex.vref) () acc ->
      if r.Dagrider.Vertex.round = 0 || delivered r then acc
      else Option.get (Dagrider.Dag.find dag r) :: acc)
    (ref_reachable dag vref) []
  |> List.sort (fun a b ->
         Dagrider.Vertex.compare_vref (Dagrider.Vertex.vref_of a)
           (Dagrider.Vertex.vref_of b))

(* n = 5, 8 rounds, garbage collected below a random floor in [0, 4],
   sometimes with a vertex added below the floor afterwards.
   Each slot is filled with probability 3/4; a vertex has a random
   non-empty subset of the previous round as strong edges and up to two
   random vertices two or more rounds back as weak edges, so a round
   often leaves several vertices unreached. *)
let random_pruned_dag rng =
  let n = 5 in
  let dag = Dagrider.Dag.create ~n in
  let pick vs k =
    let a = Array.of_list vs in
    Stdx.Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min k (Array.length a)))
    |> List.map Dagrider.Vertex.vref_of
  in
  for round = 1 to 8 do
    let prev = Dagrider.Dag.round_vertices dag (round - 1) in
    let older =
      List.concat_map (Dagrider.Dag.round_vertices dag) (List.init (max 0 (round - 2)) succ)
    in
    List.iter
      (fun source ->
        if prev <> [] && Stdx.Rng.int rng 4 > 0 then
          Dagrider.Dag.add dag
            { Dagrider.Vertex.round; source; block = "";
              strong_edges = pick prev (1 + Stdx.Rng.int rng (List.length prev));
              weak_edges = pick older (Stdx.Rng.int rng 3) })
      (List.init n Fun.id)
  done;
  let floor = Stdx.Rng.int rng 5 in
  Dagrider.Dag.prune_below dag ~round:floor;
  (* half the time, a vertex arrives after its round was pruned *)
  if floor >= 2 && Stdx.Rng.bool rng then begin
    let round = 1 + Stdx.Rng.int rng (floor - 1) in
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round; source = Stdx.Rng.int rng n; block = "";
        strong_edges = [ { round = round - 1; source = 0 } ]; weak_edges = [] }
  end;
  dag

let prop_weak_edges_match_reference =
  QCheck.Test.make ~name:"weak edges match the per-strong-edge model" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let dag = random_pruned_dag rng in
      List.for_all
        (fun round ->
          (* a random non-empty subset of round - 1 as the strong edges *)
          let prev = Dagrider.Dag.round_vertices dag (round - 1) in
          let strong_edges =
            match List.filter (fun _ -> Stdx.Rng.bool rng) prev with
            | [] -> List.map Dagrider.Vertex.vref_of prev
            | some -> List.map Dagrider.Vertex.vref_of some
          in
          Dagrider.Dag.weak_edges dag ~strong_edges ~round
          = ref_weak_edges dag ~strong_edges ~round)
        (List.init (Dagrider.Dag.highest_round dag + 1) (fun r -> r + 1)))

let prop_undelivered_history_matches_reference =
  QCheck.Test.make ~name:"delivery walk matches history-then-filter" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let dag = random_pruned_dag rng in
      let vs = Array.of_list (Dagrider.Dag.vertices dag) in
      (* a random downward-closed delivered set: the union of the causal
         histories of a few random vertices *)
      let delivered = Hashtbl.create 64 in
      if Array.length vs > 0 then
        for _ = 1 to Stdx.Rng.int rng 4 do
          let v = vs.(Stdx.Rng.int rng (Array.length vs)) in
          Hashtbl.iter
            (fun r () -> Hashtbl.replace delivered r ())
            (ref_reachable dag (Dagrider.Vertex.vref_of v))
        done;
      let delivered = Hashtbl.mem delivered in
      Array.for_all
        (fun v ->
          let r = Dagrider.Vertex.vref_of v in
          Dagrider.Dag.undelivered_history dag r ~delivered
          = ref_undelivered_history dag r ~delivered
          && Dagrider.Dag.causal_history dag r
             = ref_undelivered_history dag r ~delivered:(fun _ -> false))
        vs)

(* Oracles look up vrefs straight from traces: every query on a vref
   outside the store answers "absent" instead of raising. *)
let test_dag_bounds () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 6 do
    full_round dag ~n:4 ~round:r
  done;
  Dagrider.Dag.prune_below dag ~round:3;
  checki "floor" 3 (Dagrider.Dag.floor dag);
  let inside = vref 5 1 in
  List.iter
    (fun ((r : Dagrider.Vertex.vref), what) ->
      let name s = Printf.sprintf "%s: %s" what s in
      checkb (name "find") true (Dagrider.Dag.find dag r = None);
      checkb (name "contains") false (Dagrider.Dag.contains dag r);
      checkb (name "strong_path from") false (Dagrider.Dag.strong_path dag r inside);
      checkb (name "strong_path to") false (Dagrider.Dag.strong_path dag inside r);
      checkb (name "path from") false (Dagrider.Dag.path dag r inside);
      checkb (name "path to") false (Dagrider.Dag.path dag inside r);
      checki (name "causal_history") 0 (List.length (Dagrider.Dag.causal_history dag r));
      checki (name "reachable_from") 0
        (List.length (Dagrider.Dag.reachable_from dag r ~via_strong_only:false)))
    [ (vref (-1) 0, "negative round");
      (vref 4 (-1), "negative source");
      (vref 4 4, "source = n");
      (vref 4 max_int, "huge source");
      (vref 7 0, "above highest");
      (vref max_int 0, "huge round");
      (vref 2 0, "below floor");
      (vref 0 0, "pruned genesis") ];
  let raises what v =
    match Dagrider.Dag.add dag v with
    | () -> Alcotest.failf "add accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  raises "source = n" (mkv ~round:4 ~source:4 ~strong:[ (3, 0); (3, 1); (3, 2) ] ());
  raises "negative source" (mkv ~round:4 ~source:(-1) ~strong:[ (3, 0); (3, 1); (3, 2) ] ());
  raises "negative round" (mkv ~round:(-1) ~source:0 ())

(* A vertex that arrives after its round was pruned is stored, found by
   every query and picked as a weak edge, until a later prune passes it:
   a peer that has not pruned that round yet may order it. *)
let test_dag_late_vertex () =
  let dag = Dagrider.Dag.create ~n:4 in
  for round = 1 to 6 do
    let prev =
      List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag (round - 1))
    in
    List.iter
      (fun source ->
        if (round, source) <> (2, 3) then
          Dagrider.Dag.add dag
            { Dagrider.Vertex.round; source; block = ""; strong_edges = prev; weak_edges = [] })
      [ 0; 1; 2; 3 ]
  done;
  Dagrider.Dag.prune_below dag ~round:4;
  let late = mkv ~round:2 ~source:3 ~strong:[ (1, 0); (1, 1); (1, 2) ] () in
  checkb "edges below the floor count as present" true (Dagrider.Dag.can_add dag late);
  Dagrider.Dag.add dag late;
  checki "floor unchanged" 4 (Dagrider.Dag.floor dag);
  checki "held below the floor" 2 (Dagrider.Dag.lowest_round dag);
  checkb "found" true (Dagrider.Dag.find dag (vref 2 3) = Some late);
  checki "size" 13 (Dagrider.Dag.size dag);
  checki "listed" 13 (List.length (Dagrider.Dag.vertices dag));
  let strong_edges = List.init 4 (vref 6) in
  checkb "picked as a weak edge" true
    (Dagrider.Dag.weak_edges dag ~strong_edges ~round:7 = [ vref 2 3 ]);
  let v7 = mkv ~round:7 ~source:0 ~strong:(List.init 4 (fun s -> (6, s))) ~weak:[ (2, 3) ] () in
  Dagrider.Dag.add dag v7;
  checkb "path" true (Dagrider.Dag.path dag (vref 7 0) (vref 2 3));
  checkb "in the causal history" true
    (List.mem late (Dagrider.Dag.causal_history dag (vref 7 0)));
  Dagrider.Dag.prune_below dag ~round:5;
  checki "pruned with its round" 5 (Dagrider.Dag.lowest_round dag);
  checkb "gone" false (Dagrider.Dag.contains dag (vref 2 3));
  checki "size after prune" 9 (Dagrider.Dag.size dag)

(* ---- Snapshot ---- *)

let test_snapshot_roundtrip_full () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 6 do
    full_round dag ~n:4 ~round:r
  done;
  match Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag) with
  | Error e -> Alcotest.fail e
  | Ok dag' ->
    checki "same n" 4 (Dagrider.Dag.n dag');
    checkb "same vertex set" true
      (Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag');
    checkb "reachability preserved" true
      (Dagrider.Dag.strong_path dag' (vref 6 0) (vref 1 3))

let test_snapshot_roundtrip_live_node () =
  (* snapshot a DAG produced by an actual protocol run (weak edges,
     partial rounds and all) *)
  let h = Harness.Runner.build { (Harness.Runner.default_options ~n:4) with seed = 71 } in
  Harness.Runner.run h ~until:40.0;
  let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
  match Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag) with
  | Error e -> Alcotest.fail e
  | Ok dag' ->
    checkb "identical vertex sets" true
      (Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag');
    (* causal histories agree on a sample vertex *)
    let some_vertex =
      List.nth (Dagrider.Dag.vertices dag) (List.length (Dagrider.Dag.vertices dag) / 2)
    in
    let r = Dagrider.Vertex.vref_of some_vertex in
    checkb "same causal history" true
      (Dagrider.Dag.causal_history dag r = Dagrider.Dag.causal_history dag' r)

let test_snapshot_detects_corruption () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let snap = Dagrider.Snapshot.dag_to_string dag in
  (* flip a byte in the middle *)
  let corrupted = Bytes.of_string snap in
  Bytes.set corrupted (String.length snap / 2)
    (Char.chr (Char.code (Bytes.get corrupted (String.length snap / 2)) lxor 1));
  (match Dagrider.Snapshot.dag_of_string (Bytes.to_string corrupted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption undetected");
  (* truncation *)
  (match Dagrider.Snapshot.dag_of_string (String.sub snap 0 (String.length snap - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation undetected");
  (* garbage *)
  (match Dagrider.Snapshot.dag_of_string "not a snapshot at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* well-sealed files with implausible contents: the seal has no key,
     so these must be refused on their content, without allocating
     rows for rounds the file does not hold *)
  let craft ~floor vertices =
    let buf = Buffer.create 256 in
    let u32 v = Buffer.add_int32_be buf (Int32.of_int v) in
    Buffer.add_string buf "DAGSNAP2";
    u32 4;
    u32 floor;
    u32 (List.length vertices);
    List.iter
      (fun (v : Dagrider.Vertex.t) ->
        let bytes = Dagrider.Vertex.encode v in
        u32 v.round;
        u32 v.source;
        u32 (String.length bytes);
        Buffer.add_string buf bytes)
      vertices;
    let body = Buffer.contents buf in
    body ^ Crypto.Sha256.digest_string body
  in
  let huge = 1_000_000_000 in
  let refused what s =
    match Dagrider.Snapshot.dag_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  refused "floor above every record"
    (craft ~floor:huge [ mkv ~round:5 ~source:0 ~strong:[ (4, 0) ] () ]);
  refused "edgeless vertex far up"
    (craft ~floor:0 [ mkv ~round:huge ~source:0 () ]);
  (* a huge floor with a vertex at it is a legitimate, small DAG *)
  match
    Dagrider.Snapshot.dag_of_string
      (craft ~floor:huge [ mkv ~round:huge ~source:0 ~strong:[ (huge - 1, 0) ] () ])
  with
  | Ok dag ->
    checki "stored from the floor" huge (Dagrider.Dag.lowest_round dag);
    checki "one vertex" 1 (Dagrider.Dag.size dag)
  | Error e -> Alcotest.fail e

let test_snapshot_delivered_roundtrip () =
  let log =
    [ mkv ~round:1 ~source:0 ~block:"a" ~strong:[ (0, 0); (0, 1); (0, 2) ] ();
      mkv ~round:1 ~source:2 ~strong:[ (0, 1); (0, 2); (0, 3) ] ();
      mkv ~round:3 ~source:3 ~strong:[ (2, 0); (2, 1); (2, 3) ] ~weak:[ (1, 1) ] () ]
  in
  (match
     Dagrider.Snapshot.delivered_of_string
       (Dagrider.Snapshot.delivered_to_string log)
   with
  | Ok log' -> checkb "roundtrip" true (log = log')
  | Error e -> Alcotest.fail e);
  (match Dagrider.Snapshot.delivered_of_string "junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted");
  match
    Dagrider.Snapshot.delivered_of_string (Dagrider.Snapshot.delivered_to_string [])
  with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty list mangled"
  | Error e -> Alcotest.fail e

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrips random protocol DAGs" ~count:20
    (QCheck.int_range 0 10_000) (fun seed ->
      let h =
        Harness.Runner.build { (Harness.Runner.default_options ~n:4) with seed }
      in
      Harness.Runner.run h ~until:20.0;
      let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
      match
        Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag)
      with
      | Ok dag' -> Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag'
      | Error _ -> false)

(* ---- Render smoke tests ---- *)

let test_render_ascii () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  let out = Dagrider.Render.ascii dag in
  checkb "mentions p0" true (contains out "p0");
  checkb "has vertices" true (contains out "*")

let test_render_dot () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  let out = Dagrider.Render.dot dag in
  checkb "digraph" true (contains out "digraph");
  checkb "edges" true (contains out "->")

let () =
  Alcotest.run "dagrider-core"
    [ ( "vertex-codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip_simple;
          Alcotest.test_case "envelope wins" `Quick test_codec_envelope_wins;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "binary block" `Quick test_codec_binary_block;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip ] );
      ( "vertex-validate",
        [ Alcotest.test_case "accepts good" `Quick test_validate_accepts_good;
          Alcotest.test_case "too few strong" `Quick test_validate_rejects_too_few_strong;
          Alcotest.test_case "wrong round strong" `Quick
            test_validate_rejects_wrong_round_strong;
          Alcotest.test_case "weak to r-1" `Quick
            test_validate_rejects_weak_to_previous_round;
          Alcotest.test_case "weak in round 1" `Quick
            test_validate_rejects_weak_in_round_one;
          Alcotest.test_case "round zero" `Quick test_validate_rejects_round_zero;
          Alcotest.test_case "bad source" `Quick test_validate_rejects_bad_source;
          Alcotest.test_case "duplicate edges" `Quick test_validate_rejects_duplicate_edges;
          Alcotest.test_case "error names rule" `Quick
            test_validate_error_messages_name_rule ] );
      ( "dag",
        [ Alcotest.test_case "genesis" `Quick test_dag_genesis;
          Alcotest.test_case "add and lookup" `Quick test_dag_add_and_lookup;
          Alcotest.test_case "missing predecessor" `Quick
            test_dag_missing_predecessor_rejected;
          Alcotest.test_case "conflicting vertex" `Quick
            test_dag_conflicting_vertex_rejected;
          Alcotest.test_case "re-add identical" `Quick test_dag_readd_identical_noop;
          Alcotest.test_case "strong path semantics" `Quick
            test_dag_strong_path_reflexive_and_transitive;
          Alcotest.test_case "weak edge reachability" `Quick
            test_dag_weak_edges_only_in_path;
          Alcotest.test_case "causal history full" `Quick
            test_dag_causal_history_complete_and_sorted;
          Alcotest.test_case "causal history partial" `Quick
            test_dag_causal_history_partial;
          Alcotest.test_case "vertices listing" `Quick test_dag_vertices_listing;
          Alcotest.test_case "prune" `Quick test_dag_prune;
          Alcotest.test_case "out-of-store vrefs" `Quick test_dag_bounds;
          Alcotest.test_case "vertex below the floor" `Quick test_dag_late_vertex;
          QCheck_alcotest.to_alcotest prop_dag_path_strong_implies_path;
          QCheck_alcotest.to_alcotest prop_dag_reaches_matches_reachable_from;
          QCheck_alcotest.to_alcotest prop_dag_causal_history_closed;
          QCheck_alcotest.to_alcotest prop_weak_edges_match_reference;
          QCheck_alcotest.to_alcotest prop_undelivered_history_matches_reference ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip full" `Quick test_snapshot_roundtrip_full;
          Alcotest.test_case "roundtrip live node" `Quick
            test_snapshot_roundtrip_live_node;
          Alcotest.test_case "detects corruption" `Quick test_snapshot_detects_corruption;
          Alcotest.test_case "delivered roundtrip" `Quick
            test_snapshot_delivered_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip ] );
      ( "render",
        [ Alcotest.test_case "ascii" `Quick test_render_ascii;
          Alcotest.test_case "dot" `Quick test_render_dot ] )
    ]
