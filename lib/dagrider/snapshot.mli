(** DAG persistence: serialize a process's local DAG (and its delivered
    log) so a restarting process can resume from disk instead of
    replaying every reliable broadcast from round 1.

    Both formats are a magic header and header words, then a framed
    sequence of vertex records, each [u32 round][u32 source][u32 len]
    [Vertex.encode bytes], followed by a SHA-256 checksum over
    everything before it. A DAG snapshot's header carries [n] and the
    DAG's GC {!Dag.floor}. Restoring re-creates the DAG at that floor
    and replays [Dag.add] in round order, so the store's "causal
    history present" invariant (Claim 1) is re-established — a
    corrupted or truncated file can never produce a DAG that violates
    it. *)

val dag_to_string : Dag.t -> string
(** Serialize every stored non-genesis vertex and the floor. *)

val dag_of_string : string -> (Dag.t, string) result
(** Rebuild a DAG. Fails with a reason on a bad magic, size mismatch,
    checksum mismatch, undecodable vertex, a vertex that fails
    {!Vertex.validate}'s structural checks, a floor above every record,
    or a vertex set that is not causally closed above the floor. *)

val delivered_to_string : Vertex.t list -> string
(** Persist the delivered log (the ordering layer's progress) as whole
    vertices, so restoring it does not depend on vertices a garbage
    collected DAG no longer holds. *)

val delivered_of_string : string -> (Vertex.t list, string) result
