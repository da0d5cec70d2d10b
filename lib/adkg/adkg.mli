(** Asynchronous distributed key generation for the threshold coin —
    the paper's §2 relaxation of the trusted-dealer assumption
    ("this assumption can be relaxed by executing an O(n^4) message
    complexity Asynchronous Distributed Key Generation protocol [30]",
    i.e. Kokoris-Kogias, Malkhi, Spiegelman, CCS 2020).

    Faithful-shape simplified protocol:
    + {b deal}: every party samples a random degree-[f] polynomial
      [P_i], privately sends [P_i(j+1)] to each party [j], and
      broadcasts a commitment vector (here: per-point digests — a
      modeled stand-in for Feldman commitments, same dataflow);
    + {b certify}: a party that received a share matching the dealer's
      commitment broadcasts an [Ack]; a dealing with [2f+1] acks is
      {e certified} — at least [f+1] correct parties hold verified
      shares, so every share is recoverable;
    + {b agree}: parties propose their certified-dealer sets through a
      {!Baselines.Vaba} instance; the decided proposal is the qualified
      set [Q] (|Q| >= f+1 guarantees an honest dealing in [Q], keeping
      the sum unpredictable to the adversary);
    + {b aggregate}: each party's key is [sum_{i in Q} P_i(me+1)] —
      evaluations of the degree-[f] polynomial [sum_{i in Q} P_i], so
      any [f+1] keys interpolate the same master secret, which is
      exactly the {!Crypto.Threshold_coin} key shape;
    + {b recover}: a party missing its share from some certified dealer
      in [Q] asks the network; [f+1] responders' points interpolate the
      dealer's polynomial at the requester's index. (In the real
      protocol recovery is done under encryption; here the dataflow is
      reproduced and the privacy loss is a documented modeling choice.)

    Bootstrap: the VABA agreement step itself needs a coin. The real
    KMS'20 construction bootstraps a weaker coin from the aggregated
    dealings; here the ceremony takes a [bootstrap_coin] argument
    (documented substitution, DESIGN.md §2) — the {e output} key is
    dealer-free, which is what the DAG-Rider deployment consumes. *)

type msg =
  | Commit of { dealer : int; commitment : string array }
  | Deal of { dealer : int; share : int }
  | Ack of { dealer : int }
  | Recover_req of { dealer : int }
  | Recover_share of { dealer : int; x : int; y : int }
(** Exposed so tests can inject Byzantine traffic directly. *)

type t

val create :
  net:msg Net.Network.t ->
  vaba_net:Baselines.Vaba.msg Net.Network.t ->
  auth:Crypto.Auth.t ->
  bootstrap_coin:Crypto.Threshold_coin.t ->
  rng:Stdx.Rng.t ->
  me:int ->
  f:int ->
  on_key:(key:int -> qualified:int list -> unit) ->
  unit ->
  t
(** [on_key] fires once, when this party has derived its aggregated key
    for the decided qualified set. *)

val start : t -> unit

val key : t -> int option
val qualified : t -> int list option

val derived_secret : t -> int option
(** Sum of this party's {e own dealings'} secrets that made it into Q —
    testing hook: summing the qualified dealers' secrets must equal the
    value any f+1 output keys interpolate to. *)
