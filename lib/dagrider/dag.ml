type t = {
  n : int;
  store : (Vertex.vref, Vertex.t) Hashtbl.t;
  by_round : (int, int ref) Hashtbl.t; (* round -> vertex count *)
  mutable highest : int;
  mutable pruned_below : int;
}

let genesis_vertex n source =
  ignore n;
  { Vertex.round = 0; source; block = ""; strong_edges = []; weak_edges = [] }

let create ~n =
  if n <= 0 then invalid_arg "Dag.create: n must be positive";
  let t =
    { n;
      store = Hashtbl.create 256;
      by_round = Hashtbl.create 64;
      highest = 0;
      pruned_below = 0 }
  in
  for source = 0 to n - 1 do
    Hashtbl.add t.store { Vertex.round = 0; source } (genesis_vertex n source)
  done;
  Hashtbl.add t.by_round 0 (ref n);
  t

let n t = t.n

let find t vref = Hashtbl.find_opt t.store vref

let contains t vref = Hashtbl.mem t.store vref

let size t = Hashtbl.length t.store

let round_vertices t round =
  let acc = ref [] in
  for source = t.n - 1 downto 0 do
    match find t { Vertex.round; source } with
    | Some v -> acc := v :: !acc
    | None -> ()
  done;
  !acc

let round_size t round =
  match Hashtbl.find_opt t.by_round round with
  | Some r -> !r
  | None -> 0

let highest_round t = t.highest

(* After garbage collection, edges into pruned rounds count as satisfied:
   those vertices were delivered everywhere before pruning (see
   [prune_below]'s contract), so holding the new vertex back for them
   would only hurt liveness. *)
let edge_present t e = contains t e || e.Vertex.round < t.pruned_below

let can_add t v =
  List.for_all (edge_present t)
    (v.Vertex.strong_edges @ v.Vertex.weak_edges)

let add_impl t v =
  let vref = Vertex.vref_of v in
  match find t vref with
  | Some existing ->
    if existing <> v then
      invalid_arg "Dag.add: conflicting vertex for (round, source)"
  | None ->
    if not (can_add t v) then invalid_arg "Dag.add: missing predecessor";
    Hashtbl.add t.store vref v;
    (match Hashtbl.find_opt t.by_round v.round with
    | Some r -> incr r
    | None -> Hashtbl.add t.by_round v.round (ref 1));
    if v.round > t.highest then t.highest <- v.round

let add t v =
  let sp = Prof.enter "dag.add" in
  (try add_impl t v with e -> Prof.leave_reraise sp e);
  Prof.leave sp

(* The one BFS over edges: visits [start] (which must be present) and
   every present vertex reachable from it along strong edges — and weak
   ones unless [via_strong_only] — whose round is at least [floor],
   calling [visit] on each in BFS order (strong edges before weak ones)
   and stopping as soon as [visit] returns true. Rounds strictly
   decrease along edges, so the frontier stays small. *)
let bfs t start ~via_strong_only ~floor ~visit =
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push (e : Vertex.vref) =
    if e.Vertex.round >= floor && (not (Hashtbl.mem visited e)) && contains t e
    then begin
      Hashtbl.add visited e ();
      Queue.add e queue
    end
  in
  Hashtbl.add visited start ();
  Queue.add start queue;
  let stopped = ref false in
  while (not !stopped) && not (Queue.is_empty queue) do
    let vref = Queue.pop queue in
    if visit vref then stopped := true
    else
      match find t vref with
      | None -> ()
      | Some v ->
        List.iter push v.strong_edges;
        if not via_strong_only then List.iter push v.weak_edges
  done;
  !stopped

let reachable_from t start ~via_strong_only =
  if not (contains t start) then []
  else begin
    let out = ref [] in
    ignore
      (bfs t start ~via_strong_only ~floor:0 ~visit:(fun v ->
           out := v :: !out;
           false));
    !out
  end

let reaches t start target ~via_strong_only =
  if (not (contains t start)) || not (contains t target) then false
  else if start = target then true
  else if target.Vertex.round >= start.Vertex.round then false
  else begin
    let sp = Prof.enter "dag.path" in
    let found =
      (* no point exploring below the target's round *)
      try
        bfs t start ~via_strong_only ~floor:target.Vertex.round
          ~visit:(fun v -> v = target)
      with e -> Prof.leave_reraise sp e
    in
    Prof.leave sp;
    found
  end

let strong_path t v u = reaches t v u ~via_strong_only:true

let path t v u = reaches t v u ~via_strong_only:false

let causal_history t vref =
  let sp = Prof.enter "dag.causal_history" in
  let out =
    try
      let refs = reachable_from t vref ~via_strong_only:false in
      let vs =
        List.filter_map
          (fun (r : Vertex.vref) ->
            if r.Vertex.round = 0 then None (* genesis carries no blocks *)
            else find t r)
          refs
      in
      List.sort
        (fun a b -> Vertex.compare_vref (Vertex.vref_of a) (Vertex.vref_of b))
        vs
    with e -> Prof.leave_reraise sp e
  in
  Prof.leave sp;
  out

let vertices t =
  let vs =
    Hashtbl.fold
      (fun (vref : Vertex.vref) v acc ->
        if vref.Vertex.round = 0 then acc else v :: acc)
      t.store []
  in
  List.sort (fun a b -> Vertex.compare_vref (Vertex.vref_of a) (Vertex.vref_of b)) vs

let prune_below t ~round =
  if round > t.pruned_below then begin
    let doomed =
      Hashtbl.fold
        (fun (vref : Vertex.vref) _ acc ->
          if vref.Vertex.round < round then vref :: acc else acc)
        t.store []
    in
    List.iter
      (fun vref ->
        Hashtbl.remove t.store vref;
        match Hashtbl.find_opt t.by_round vref.Vertex.round with
        | Some r -> decr r
        | None -> ())
      doomed;
    t.pruned_below <- round
  end
