(** Minimum-priority queue keyed by [(priority, sequence)] pairs.

    The discrete-event engine pops events in order of virtual time; ties
    are broken by an insertion sequence number so that execution is fully
    deterministic regardless of heap internals. The structure is a classic
    binary heap over a growable array. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> seq:int -> 'a -> unit
(** [push q ~priority ~seq v] inserts [v]. Lower [priority] pops first;
    among equal priorities, lower [seq] pops first. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] if empty. *)

val peek : 'a t -> (float * int * 'a) option
(** Return the minimum element without removing it. *)

val clear : 'a t -> unit
