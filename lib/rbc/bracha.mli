(** Bracha reliable broadcast (Bracha 1987), the classic O(n^2 |m|)
    instantiation (Table 1 row "DAG-Rider + [11]").

    Protocol, per instance [(origin, round)]:
    - the sender broadcasts [Init payload];
    - on the {e first} [Init] received for the instance, a process
      broadcasts [Echo payload];
    - on [2f+1] [Echo]s for the same payload, or [f+1] [Ready]s for the
      same payload, a process broadcasts [Ready payload] (once);
    - on [2f+1] [Ready]s for the same payload it delivers that payload.

    Votes are counted per payload, compared by value, in a
    {!Rbc_intf.Tally}: no digest is computed, since one that never
    leaves the process would only be a second name for the payload.
    Only a sender's first [Echo] and first [Ready] per instance count —
    a correct process sends each once — so a Byzantine sender flooding
    distinct payloads opens at most one bucket per kind and cannot shift
    a vote it already cast.

    Quorum intersection of the Echo stage prevents two correct processes
    from becoming ready for different payloads of an equivocating
    Byzantine sender; the [f+1]-Ready amplification gives totality.
    Echo/Ready carry the full payload (the textbook protocol — this is
    exactly why the complexity row is quadratic in [|m|]). *)

type msg =
  | Init of { round : int; payload : string }
  | Echo of { origin : int; round : int; payload : string }
  | Ready of { origin : int; round : int; payload : string }
(** Exposed so tests can inject Byzantine traffic directly. *)

val encode_msg : msg -> string
(** Canonical wire encoding; senders charge exactly its size. *)

val decode_msg : string -> msg option
(** Inverse of {!encode_msg}; [None] on any malformed input. *)

type t

val create_port :
  port:msg Net.Port.t -> me:int -> f:int -> deliver:Rbc_intf.deliver -> t
(** Registers process [me]'s handler on the port — a direct network or
    reliable links over a lossy one; the protocol is transport-agnostic
    (its handlers are idempotent, so even transport-level duplicates
    are harmless). *)

val create :
  net:msg Net.Network.t -> me:int -> f:int -> deliver:Rbc_intf.deliver -> t
(** [create_port] over [Net.Port.of_network net]. *)

val set_trace : t -> Trace.t -> unit
(** Emit {!Trace.Rbc_phase} events ("init", "echo", "ready", "deliver")
    for every instance transition at this process from now on. *)

val bcast : t -> payload:string -> round:int -> unit
(** [r_bcast] of the abstraction. A correct process calls this at most
    once per round (the DAG layer guarantees it). *)

val inject_init : t -> dst:int -> round:int -> payload:string -> unit
(** Byzantine-attacker capability: send a raw [Init] for this process's
    instance [(me, round)] to a {e single} destination — the primitive
    an equivocating or withholding sender uses to show different
    payloads (or nothing) to different victims. Runs the real wire
    codec; honest processes must exclude or converge the resulting
    forks via Echo-quorum intersection. Attack harness only. *)
