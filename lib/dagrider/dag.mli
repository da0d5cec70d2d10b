(** A process's local view of the round-structured DAG (paper §4).

    [DAG_i[r]] is the set of round-[r] vertices the process has
    incorporated; a vertex is only added once all its strong- and
    weak-edge targets are present (Algorithm 2 line 7), so by
    construction every vertex's full causal history is in the store
    (Claim 1) — an invariant [add] enforces.

    Round 0 holds [n] genesis vertices (one per source, no edges) that
    bootstrap round 1's strong edges; see DESIGN.md §6 on this reading
    of the paper's "predefined hardcoded set".

    The store is one row per round, indexed by source. Every history
    question below is answered by one walk that reads the rows from the
    start's round down. Edges strictly lower the round, so a vertex's
    reachability is settled before its round is read, and results come
    out in {!Vertex.compare_vref} order without sorting. The walk ends
    once every vertex it reached is read; only {!weak_edges}, which
    looks for the vertices nothing reaches, reads every stored round. *)

type t

val create : n:int -> t
(** Fresh DAG containing only the genesis round. *)

val n : t -> int

val floor : t -> int
(** The garbage-collection floor: 0 until {!prune_below} raises it.
    Edges into rounds below it count as present (see {!can_add}). *)

val lowest_round : t -> int
(** No vertex is stored below this round. It is {!floor}, or lower while
    the store holds a vertex that was added below the floor. *)

val find : t -> Vertex.vref -> Vertex.t option
(** [None] for any vref outside the store: negative or out-of-range
    source, a round above {!highest_round}, or a pruned round. *)

val contains : t -> Vertex.vref -> bool

val round_vertices : t -> int -> Vertex.t list
(** Vertices of a round, sorted by source (deterministic iteration). *)

val round_size : t -> int -> int

val size : t -> int
(** Vertices in the store, genesis included until pruned — an O(1)
    probe for growth monitoring (the DAG only grows until §8-style
    garbage collection prunes it). *)

val highest_round : t -> int
(** Largest round with at least one vertex (0 for a fresh DAG). *)

val can_add : t -> Vertex.t -> bool
(** All edge targets present? (Algorithm 2 line 7.) *)

val add : t -> Vertex.t -> unit
(** Insert a vertex. A vertex below {!floor} is accepted: it arrived
    after its round was pruned, but it was never delivered, and a peer
    that has not pruned that round yet may order it.
    @raise Invalid_argument if the source is outside [\[0, n)], the
    round is negative, a predecessor is missing (the buffer in
    {!Node} must hold the vertex back until {!can_add}), or if a
    different vertex already occupies [(round, source)] — reliable
    broadcast makes that impossible for honest stacks, so it indicates a
    harness bug. Re-adding the identical vertex is a no-op. *)

val strong_path : t -> Vertex.vref -> Vertex.vref -> bool
(** [strong_path t v u]: is [u] reachable from [v] via strong edges only
    (Algorithm 1 line 3)? Reflexive: [strong_path t v v = true] when [v]
    is present. *)

val path : t -> Vertex.vref -> Vertex.vref -> bool
(** Reachability via strong or weak edges (Algorithm 1 line 1). *)

val causal_history : t -> Vertex.vref -> Vertex.t list
(** Every vertex reachable from [v] (inclusive), i.e. the set
    [{u | path v u}], sorted by {!Vertex.compare_vref}. Empty if [v] is
    absent. Genesis vertices are excluded — they carry no blocks. *)

val undelivered_history :
  t -> Vertex.vref -> delivered:(Vertex.vref -> bool) -> Vertex.t list
(** [causal_history] minus a delivered set, which must be downward
    closed (every edge target of a delivered vertex is delivered, as
    for a union of causal histories): the walk stops at delivered
    vertices instead of walking their history and filtering it out. *)

val weak_edges : t -> strong_edges:Vertex.vref list -> round:int -> Vertex.vref list
(** Weak edges for a new round-[round] vertex with these strong edges
    (Algorithm 2 line 30): every vertex of rounds [round-2] down to 1
    that no strong edge and no earlier pick already reaches. Listed
    rounds ascending, sources descending within a round. *)

val reachable_from : t -> Vertex.vref -> via_strong_only:bool -> Vertex.vref list
(** Every vertex reachable from [v] (inclusive, genesis included), in
    {!Vertex.compare_vref} order; empty if [v] is absent. *)

val vertices : t -> Vertex.t list
(** All non-genesis vertices, sorted. *)

val prune_below : t -> round:int -> unit
(** Garbage-collection extension (DESIGN.md §6): if [round] is above
    {!floor}, drop every vertex of rounds [< round] and raise {!floor}
    to [round]; otherwise do nothing. Reachability queries then
    treat missing targets as dead ends; only call with rounds at or
    below the lowest undelivered committed history. Off by default
    everywhere. *)
