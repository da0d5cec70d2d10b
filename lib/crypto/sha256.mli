(** SHA-256 (FIPS 180-4), implemented from scratch on [int32] words.

    Used for vertex digests, Merkle trees, and hashing threshold-coin
    outputs to leader indices. The implementation is the straightforward
    64-round compression function; throughput is adequate for simulation
    workloads (megabytes per second), and correctness is checked against
    the official test vectors in the test suite. *)

type digest = string
(** 32-byte raw digest. *)

val digest_string : string -> digest
(** Hash a byte string. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (FIPS 198-1); used by the modeled signature scheme in
    {!Auth} and by the threshold-coin PRF. *)
