(** Chain-quality auditing (paper §3).

    DAG-Rider guarantees that in every prefix of the ordered output of
    size [(2f+1) * r], at least [(f+1) * r] entries were broadcast by
    correct processes. The auditor takes the ordered log of sources and
    the set of correct processes and checks the guarantee on every
    prefix, reporting the worst prefix found. *)

type report = {
  total : int;                 (** entries audited *)
  correct_entries : int;       (** entries from correct sources *)
  worst_prefix_len : int;      (** prefix with the lowest correct ratio *)
  worst_prefix_ratio : float;  (** that ratio *)
  holds : bool;                (** the (f+1)/(2f+1)-per-prefix bound *)
}

val audit : f:int -> correct:(int -> bool) -> sources:int list -> report
(** [audit ~f ~correct ~sources] checks the log whose i-th ordered entry
    came from [List.nth sources i]. The bound is evaluated, per the
    paper, on prefixes whose length is a multiple of [2f + 1]. *)
