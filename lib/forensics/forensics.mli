(** Commit forensics: reconstruct the {e justification} of every
    ordering decision from the provenance certificates the nodes emit
    ({!Trace.Commit_cert} / {!Trace.Skip_cert}).

    DAG-Rider's correctness argument is local and causal — a commit is
    justified by a wave leader, a quorum of strong paths, and the
    Algorithm 3 lines-38-43 chain-back — and the certificates carry
    exactly that evidence. This module collects them (live via
    {!Trace.add_sink}, or replayed by {!Trace.replay_jsonl_file}) into
    per-node {e wave stories}, renders them for humans ([explain]) and
    machines (JSON), and diffs two runs' decision streams to the first
    divergent decision ([divergence]) — the tool the cross-rule
    differential harness was missing when all it could say was "logs
    differ". *)

type commit_cert = {
  c_node : int;
  c_rule : string;
  c_sched : string;  (** "coin" | "round-robin" *)
  c_wave : int;
  c_leader_round : int;
  c_leader_source : int;
  c_direct : bool;
  c_anchor : int;  (** wave whose direct commit fired the chain *)
  c_via_round : int;
  c_via_source : int;
      (** next committed leader up the chain (the leader itself when
          direct) — its strong path is a chained commit's evidence *)
  c_support : int list;
      (** sources of the wave's last-round vertices counted against the
          quorum (direct commits; empty for chained) *)
  c_quorum : int;
  c_delivered : int;
  c_at : float;
}

type skip_cert = {
  s_node : int;
  s_rule : string;
  s_sched : string;
  s_wave : int;
  s_leader_round : int;
  s_leader_source : int;
  s_reason : string;  (** "leader-absent" | "under-supported" *)
  s_support : int list;
  s_quorum : int;
  s_at : float;
}

type story = {
  st_wave : int;
  st_skip : skip_cert option;
      (** recorded when the wave was first processed without a commit *)
  st_commit : commit_cert option;
      (** a later chain-back can recover a skipped wave: both fields
          set means "skipped, then recovered"; skip only means the wave
          was never committed at this node *)
}

(** {1 The run's rule, read from its certificates} *)

type rule_evidence
(** What a stream's certificates say about the rule its nodes ordered
    under. This one inference serves both this collector and
    {!Analyze}, so neither needs the rule passed in. *)

val rule_evidence : unit -> rule_evidence

val note_rule :
  rule_evidence -> rule:string -> wave:int -> leader_round:int -> unit
(** Record one certificate's [rule], [wave] and [leader_round]. *)

val inferred_rule : rule_evidence -> Dagrider.Ordering.rule option
(** [None] until a certificate is noted. Then the rule the first
    certificate names (an unknown name keeps DAG-Rider's table entry
    under that name), with [rule_wave_length] taken from the leader
    rounds: [leader_round = L(w-1) + 1] pins [L] at the first
    certificate with [w >= 2], which also recovers a non-default coin
    wave length; before that, the named rule's own. *)

(** {1 Collection} *)

type t

val create : unit -> t
(** A fresh collector. It takes no configuration: rule, wave length
    and observer all come from the certificates it is fed. *)

val feed : t -> Trace.event -> unit
(** Certificate and [A_deliver] events update the collector; everything
    else is ignored — register it as a live tracer sink, or pass it to
    {!Trace.replay_jsonl_file} to replay a dump. *)

val nodes : t -> int list
(** Nodes that emitted at least one certificate, ascending. *)

val observer : t -> int option
(** The node with the most certificates (ties to the lowest id) — the
    default subject for [explain]/[divergence]. *)

val rule_name : t -> string option
(** Rule named by the certificates (they all agree within one run). *)

val wave_length : t -> int option
(** Rounds per wave, as {!inferred_rule} recovers it. *)

val stories : t -> node:int -> story list
(** The node's wave stories, ascending by wave. *)

val find_story : t -> node:int -> wave:int -> story option

val find_vertex : t -> node:int -> round:int -> source:int -> commit_cert option
(** The commit whose causal-history delivery ordered this vertex at the
    node (from the [A_deliver] attribution). *)

val justification :
  t ->
  node:int ->
  wave:int ->
  (Dagrider.Vertex.vref * Dagrider.Vertex.vref list * Dagrider.Vertex.vref list)
  option
(** [(leader, supporters, chain)] of a committed wave: the leader
    vertex, the supporting-quorum vertices (direct commits), and the
    chain-back leaders that share the commit's anchor — the inputs
    {!Dagrider.Render.dot_justification} shades. [None] when the wave
    has no commit certificate. *)

val explain_wave : t -> node:int -> wave:int -> string
(** Human rendering of one wave's certificate chain: schedule evidence,
    supporter set vs quorum, chain-back path, skip evidence, and
    whether a skip was later recovered. Waves with no certificate
    render as unresolved. *)

val explain_wave_json : t -> node:int -> wave:int -> Stdx.Json.t

val explain_vertex : t -> node:int -> round:int -> source:int -> string
(** The certificate chain of the commit that ordered this vertex. *)

val explain_vertex_json :
  t -> node:int -> round:int -> source:int -> Stdx.Json.t

val summary : t -> node:int -> string
(** One line per wave story (the swarm failure artifact's explain
    digest). *)

(** First divergent decision between two certificate streams.

    Same-rule streams compare per-wave final decisions (committed
    leader / skipped / unresolved); cross-rule streams — waves mean
    different things — compare the ordered delivery logs instead. Both
    modes binary-search cumulative digests of the stream prefixes, so
    locating the divergence costs O(log n) prefix probes. *)
type divergence =
  | No_certificates  (** one side has no certificates at all *)
  | Identical of { mode : string; compared : int }
      (** mode "waves" or "log" *)
  | Prefix of { mode : string; compared : int; longer : string; extra : int }
      (** equal up to the shorter stream; [longer] is "A" or "B" *)
  | Diverged_wave of { wave : int; a : story option; b : story option }
  | Diverged_entry of {
      index : int;  (** 0-based position in the ordered logs *)
      a_vertex : int * int;
      b_vertex : int * int;  (** (round, source) *)
      a_commit : commit_cert option;
      b_commit : commit_cert option;
    }

val divergence : t -> node_a:int -> t -> node_b:int -> divergence

val render_divergence : t -> node_a:int -> t -> node_b:int -> string
(** {!divergence} plus both sides' full certificate evidence at the
    divergence point. *)

val divergence_to_json : t -> node_a:int -> t -> node_b:int -> Stdx.Json.t
