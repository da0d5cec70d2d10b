(** Modeled digital signatures and quorum certificates for the baseline
    protocols (VABA, Dumbo).

    DAG-Rider itself needs no signatures for safety (that is the point of
    Table 1's post-quantum column); the baselines do. Since the sealed
    container has no asymmetric-crypto package, signatures are modeled as
    HMAC-SHA256 under per-process keys issued by a setup authority, with
    verification recomputing the MAC — unforgeable within the simulation
    because Byzantine harness code never reads other processes' keys.
    Wire sizes are charged as 512 bits per signature and 512 bits per
    threshold signature, matching BLS-ish deployments, so communication
    complexity measurements keep the right shape. *)

type t
(** The signature authority (simulation-global). *)

type signature = { signer : int; tag : string }

val setup : rng:Stdx.Rng.t -> n:int -> t

val sign : t -> signer:int -> string -> signature
(** @raise Invalid_argument on a bad signer index. *)

val verify : t -> msg:string -> signature -> bool

type quorum_cert = { message : string; signers : int list }
(** A certificate that [threshold] distinct processes signed [message]. *)

val make_cert :
  t -> threshold:int -> msg:string -> signature list -> quorum_cert option
(** Assemble a certificate from at least [threshold] valid signatures by
    distinct signers on [msg]; [None] if not enough. *)

val verify_cert : t -> threshold:int -> quorum_cert -> bool
