(** VABA — Validated Asynchronous Byzantine Agreement (Abraham, Malkhi,
    Spiegelman, PODC 2019), the single-shot baseline behind Table 1's
    "VABA SMR" row.

    Faithful-shape simplified implementation. Per view:
    + every party {e promotes} its value through four sequential
      broadcast stages (echo → key → lock → commit); each stage [s > 1]
      carries a quorum certificate of [2f+1] acknowledgements of stage
      [s-1], and acknowledgers remember the highest stage they saw per
      promoter (their key/lock/commit state);
    + a party that certifies stage 4 broadcasts [Done]; after [2f+1]
      [Done]s parties release their threshold-coin share and the view's
      leader is elected {e retrospectively};
    + parties exchange [ViewChange] reports of the leader's promotion
      progress: any commit-stage report decides the leader's value; a
      key/lock-stage report makes parties {e adopt} the leader's value
      for the next view; otherwise they re-propose their own.
    A first decision is broadcast with its certificate so laggards
    terminate.

    Simplifications vs the full paper (documented in DESIGN.md §2):
    no skip/fast-abandon messages (liveness in our scheduler does not
    need them), modeled signatures, external validity elided. The
    complexity shape is preserved: O(n^2) messages of O(|v| + lambda)
    bits per view, an expected ~3/2 views per decision, and — the
    fairness-relevant property — {e only the elected leader's value is
    decided}, everyone else must re-propose. *)

type msg =
  | Stage of { view : int; stage : int; promoter : int; value : string }
  | Ack of { view : int; stage : int; promoter : int }
  | Done of { view : int; promoter : int }
  | Coin_share of { view : int; share : Crypto.Threshold_coin.share }
  | View_change of
      { view : int; leader : int; stage_seen : int; value : string option }
  | Decide of { value : string; view : int }
(** Exposed so tests can inject Byzantine traffic directly. *)

type t

val create :
  net:msg Net.Network.t ->
  auth:Crypto.Auth.t ->
  coin:Crypto.Threshold_coin.t ->
  me:int ->
  f:int ->
  tag:int ->
  ?valid:(string -> bool) ->
  proposal:(me:int -> string) ->
  decide:(value:string -> view:int -> unit) ->
  unit ->
  t
(** One agreement instance. [tag] domain-separates coin instances when
    several VABA instances share a coin (the SMR driver runs many; each
    instance has its own network). [valid] is the external-validity
    predicate (Dumbo rejects proposals that do not parse as dispersal
    certificates — default accepts everything): parties never
    acknowledge promotion stages of invalid values, so an invalid value
    cannot be certified or decided. [proposal] supplies this party's
    (re)proposal; [decide] fires exactly once. *)

val start : t -> unit

val decided : t -> string option
val view : t -> int
(** Current view number (>= 1); the decision view measures how many
    views the instance needed. *)
