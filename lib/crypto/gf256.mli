(** Arithmetic in GF(2^8) with the AES reduction polynomial
    [x^8 + x^4 + x^3 + x + 1] (0x11b), via log/antilog tables over the
    generator 0x03.

    This is the field underneath the Reed–Solomon erasure code used by
    the AVID broadcast instantiation (Cachin–Tessaro). Elements are
    represented as [int] in [\[0, 255\]]; operations outside that range
    raise [Invalid_argument].

    The per-element operations below are range-checked and meant for
    small computations (coefficients, tests). Bulk coding goes through
    {!mul_table}, which {!Reed_solomon}'s inner loops read without
    bounds checks. *)

val add : int -> int -> int
(** Addition = XOR (characteristic 2). *)

val sub : int -> int -> int
(** Same as {!add} in characteristic 2. *)

val mul : int -> int -> int

val div : int -> int -> int
(** @raise Division_by_zero if the divisor is 0. *)

val inv : int -> int
(** Multiplicative inverse. @raise Division_by_zero on 0. *)

val pow : int -> int -> int
(** [pow x k] for [k >= 0]. [pow 0 0 = 1] by convention. *)

val eval_poly : int array -> int -> int
(** [eval_poly coeffs x] evaluates the polynomial
    [coeffs.(0) + coeffs.(1)*x + ...] by Horner's rule. *)

val mul_table : string
(** The full product table: [Char.code mul_table.[(a lsl 8) lor b]]
    is [mul a b] for all [a], [b] in [\[0, 255\]]. 64 KiB, computed once
    from the log/antilog tables when the module is initialised; a
    [string], so no caller can corrupt it. {!Reed_solomon.encode} and
    {!Reed_solomon.decode} read one 256-byte row of it per coefficient. *)
