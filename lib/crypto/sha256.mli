(** SHA-256 (FIPS 180-4), implemented from scratch on native [int]s
    masked to 32 bits.

    On the protocol path it hashes the Merkle trees over AVID fragments
    (the bulk of the work) and the threshold coin's [coin-instance] and
    [coin-out] strings; gossip payload digests, snapshot checksums, the
    modeled signatures in {!Auth} and the vertex digests the oracles and
    attacks compare use it too. The compression function
    allocates nothing; {!digest_string} allocates its state, schedule,
    padded tail and output once per call, never per block. Correctness
    is checked against the FIPS vectors and hashlib-pinned digests in
    the test suite. *)

type digest = string
(** 32-byte raw digest. *)

val digest_string : string -> digest
(** Hash a byte string. Reentrant: no module-level buffer is shared
    between calls. *)

val blocks : unit -> int
(** Number of 64-byte blocks compressed by this process so far (every
    call to {!digest_string} and {!hmac} included). Monotone; an exact
    hash-work count for benchmarks. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (FIPS 198-1); used by the modeled signature scheme in
    {!Auth}. *)
