type t = {
  n : int;
  (* rows.(i).(s) is the round-(base + i) vertex of source s; a row is
     [||] until its round gets a vertex and again once pruned. No vertex
     is stored below [base]: it is the floor, or lower while a vertex
     that arrived after its round was pruned is held (see [add]). *)
  mutable base : int;
  mutable rows : Vertex.t option array array;
  mutable highest : int;
  mutable floor : int;
  mutable size : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Dag.create: n must be positive";
  let genesis source =
    Some { Vertex.round = 0; source; block = ""; strong_edges = []; weak_edges = [] }
  in
  let rows = Array.make 64 [||] in
  rows.(0) <- Array.init n genesis;
  { n; base = 0; rows; highest = 0; floor = 0; size = n }

let n t = t.n

let floor t = t.floor

let lowest_round t = t.base

(* the stored row of a round, [||] if nothing is stored there *)
let row t round =
  let i = round - t.base in
  if i < 0 || i >= Array.length t.rows then [||] else t.rows.(i)

let find t ({ round; source } : Vertex.vref) =
  let row = row t round in
  if source >= 0 && source < Array.length row then row.(source) else None

let contains t vref = Option.is_some (find t vref)

let size t = t.size

let highest_round t = t.highest

let round_vertices t round =
  Array.fold_right
    (fun slot acc -> match slot with Some v -> v :: acc | None -> acc)
    (row t round) []

let round_size t round =
  Array.fold_left (fun k slot -> if Option.is_some slot then k + 1 else k) 0 (row t round)

(* After garbage collection, edges into pruned rounds count as satisfied:
   those vertices were delivered everywhere before pruning (see
   [prune_below]'s contract), so holding the new vertex back for them
   would only hurt liveness. *)
let edge_present t (e : Vertex.vref) = e.round < t.floor || contains t e

let can_add t v =
  List.for_all (edge_present t) v.Vertex.strong_edges
  && List.for_all (edge_present t) v.Vertex.weak_edges

(* the row of [round], allocated on first use; the row array grows up
   past [highest] and, for a vertex below the floor, down below [base] *)
let ensure_row t round =
  let len = Array.length t.rows in
  if round < t.base || round >= t.base + len then begin
    let lo = min t.base round in
    let hi = max (t.base + len) (round + 1) in
    let rows = Array.make (max (2 * len) (hi - lo)) [||] in
    Array.blit t.rows 0 rows (t.base - lo) len;
    t.rows <- rows;
    t.base <- lo
  end;
  let i = round - t.base in
  if Array.length t.rows.(i) = 0 then t.rows.(i) <- Array.make t.n None;
  t.rows.(i)

let add_impl t (v : Vertex.t) =
  if v.source < 0 || v.source >= t.n then invalid_arg "Dag.add: source out of range";
  if v.round < 0 then invalid_arg "Dag.add: negative round";
  match find t (Vertex.vref_of v) with
  | Some existing ->
    if existing <> v then
      invalid_arg "Dag.add: conflicting vertex for (round, source)"
  | None ->
    if not (can_add t v) then invalid_arg "Dag.add: missing predecessor";
    (ensure_row t v.round).(v.source) <- Some v;
    t.size <- t.size + 1;
    if v.round > t.highest then t.highest <- v.round

let add t v =
  let sp = Prof.enter "dag.add" in
  (try add_impl t v with e -> Prof.leave_reraise sp e);
  Prof.leave sp

type step = Take | Pass | Skip | Stop

(* One walk's state. [marks.((top - round) * n + source)] is set once
   (round, source) is reached; it covers 64 rounds below [top] at first
   and grows only if the walk reaches deeper. [pending] counts reached
   vertices not yet read. *)
type walk = {
  dag : t;
  top : int;
  lo : int;
  strong_only : bool;
  mutable marks : Bytes.t;
  mutable pending : int;
  mutable taken : Vertex.t list;
}

let slot w round source = ((w.top - round) * w.dag.n) + source

let rec mark w = function
  | [] -> ()
  | (e : Vertex.vref) :: rest ->
    if e.round >= w.lo && e.round <= w.top && contains w.dag e then begin
      let i = slot w e.round e.source and len = Bytes.length w.marks in
      if i >= len then begin
        let span = (w.top - w.lo + 1) * w.dag.n in
        let grown = Bytes.make (min span (max (2 * len) (i + w.dag.n))) '\000' in
        Bytes.blit w.marks 0 grown 0 len;
        w.marks <- grown
      end;
      if Bytes.get w.marks i = '\000' then begin
        Bytes.set w.marks i '\001';
        w.pending <- w.pending + 1
      end
    end;
    mark w rest

(* Reads one row from [source] down; false once the walk is stopped. *)
let rec read w ~adopt visit round slots source =
  source < 0
  ||
  match slots.(source) with
  | None -> read w ~adopt visit round slots (source - 1)
  | Some v ->
    let i = slot w round source in
    let step =
      if i < Bytes.length w.marks && Bytes.get w.marks i = '\001' then begin
        w.pending <- w.pending - 1;
        visit v
      end
      else match adopt with Some adopt when adopt v -> Take | Some _ | None -> Skip
    in
    (match step with Take | Stop -> w.taken <- v :: w.taken | Pass | Skip -> ());
    (match step with
    | Take | Pass ->
      mark w v.strong_edges;
      if not w.strong_only then mark w v.weak_edges
    | Skip | Stop -> ());
    step <> Stop && read w ~adopt visit round slots (source - 1)

let rec read_rounds w ~adopt visit round =
  if round >= w.lo && (w.pending > 0 || Option.is_some adopt) then begin
    let slots = row w.dag round in
    if read w ~adopt visit round slots (Array.length slots - 1) then
      read_rounds w ~adopt visit (round - 1)
  end

(* The one traversal. Marks the vertices of [from], then reads the rows
   of rounds [top] down to [lo] (clamped to the stored rounds), sources
   descending within a round. Every edge lowers the round, so whether a
   vertex is reached — in [from], or an edge target (strong only, if
   [strong_only]) of a vertex taken or passed above it — is settled
   before its round is read. A reached vertex goes to [visit]: [Take]
   and [Pass] follow its edges, [Take] also collects it, [Skip] leaves
   it and its edges alone, [Stop] collects it and ends the walk. An
   unreached vertex for which [adopt] holds is taken as a new start.
   Without [adopt] the walk ends once every reached vertex is read, so
   it costs the rounds it reaches, not the whole history. Returns the
   collected vertices in {!Vertex.compare_vref} order. *)
let walk t ~from ~top ~lo ~strong_only ?adopt visit =
  let lo = max lo t.base and top = min top t.highest in
  let rows = max 0 (min (top - lo + 1) 64) in
  let w =
    { dag = t; top; lo; strong_only; marks = Bytes.make (rows * t.n) '\000'; pending = 0;
      taken = [] }
  in
  mark w from;
  read_rounds w ~adopt visit top;
  w.taken

let reachable_from t start ~via_strong_only =
  if not (contains t start) then []
  else
    walk t ~from:[ start ] ~top:start.round ~lo:0 ~strong_only:via_strong_only
      (fun _ -> Take)
    |> List.map Vertex.vref_of

let reaches t (start : Vertex.vref) (target : Vertex.vref) ~via_strong_only =
  if (not (contains t start)) || not (contains t target) then false
  else if start = target then true
  else if target.round >= start.round then false
  else begin
    let sp = Prof.enter "dag.path" in
    let found =
      try
        walk t ~from:[ start ] ~top:start.round ~lo:target.round
          ~strong_only:via_strong_only (fun v ->
            if v.round > target.round then Pass
            else if v.source = target.source then Stop
            else Skip)
        <> []
      with e -> Prof.leave_reraise sp e
    in
    Prof.leave sp;
    found
  end

let strong_path t v u = reaches t v u ~via_strong_only:true

let path t v u = reaches t v u ~via_strong_only:false

(* Genesis (round 0) carries no blocks, so histories start at round 1. *)
let undelivered_history t vref ~delivered =
  let sp = Prof.enter "dag.causal_history" in
  let out =
    try
      if not (contains t vref) then []
      else
        walk t ~from:[ vref ] ~top:vref.round ~lo:1 ~strong_only:false (fun v ->
            if delivered (Vertex.vref_of v) then Skip else Take)
    with e -> Prof.leave_reraise sp e
  in
  Prof.leave sp;
  out

let causal_history t vref = undelivered_history t vref ~delivered:(fun _ -> false)

let weak_edges t ~strong_edges ~round =
  let top = List.fold_left (fun acc (e : Vertex.vref) -> max acc e.round) (round - 2) strong_edges in
  let picks =
    walk t ~from:strong_edges ~top ~lo:1 ~strong_only:false
      ~adopt:(fun v -> v.round <= round - 2)
      (fun _ -> Pass)
  in
  (* the walk yields rounds and sources ascending; Algorithm 2's weak
     edges are listed rounds ascending but sources descending *)
  let rec regroup = function
    | [] -> []
    | (v : Vertex.t) :: _ as l ->
      let same, rest = List.partition (fun (u : Vertex.t) -> u.round = v.round) l in
      List.rev_map Vertex.vref_of same @ regroup rest
  in
  regroup picks

let vertices t =
  let acc = ref [] in
  for round = t.highest downto max 1 t.base do
    acc := round_vertices t round @ !acc
  done;
  !acc

let prune_below t ~round =
  if round > t.floor then begin
    (* every row below [round] goes, including late vertices held below
       the old floor; the rest shift down so that [base] = [round] *)
    let len = Array.length t.rows in
    let k = min (round - t.base) len in
    for i = 0 to k - 1 do
      t.size <- t.size - round_size t (t.base + i)
    done;
    Array.blit t.rows k t.rows 0 (len - k);
    Array.fill t.rows (len - k) k [||];
    t.base <- round;
    t.floor <- round
  end
