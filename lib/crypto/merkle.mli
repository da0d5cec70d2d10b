(** Merkle trees over SHA-256 with inclusion proofs.

    AVID commits to the vector of Reed–Solomon fragments with a Merkle
    root; each fragment travels with its authentication path so receivers
    can verify fragments from Byzantine relayers without seeing the whole
    vector. Leaves are domain-separated from inner nodes (prefix bytes
    [\x00] / [\x01]) to prevent second-preimage splicing attacks. *)

type tree

type proof = {
  leaf_index : int;
  path : string list;
      (** Sibling digests from the leaf's level up to (excluding) the root. *)
}

val leaf_digest : string -> string
(** The 32-byte digest a leaf's payload enters the tree as
    (domain-separated from inner nodes). *)

type memo
(** Inner-node hashes of one tree shape, remembered by position: a node
    is hashed again only when its two children differ from the last pair
    hashed at that position. Pure memoisation — every answer is the same
    with or without a memo — for a caller that checks many proofs
    against one root (the AVID Echoes of one commitment) and then
    rebuilds that root. Mutable; not for sharing between threads. *)

val memo : leaf_count:int -> memo
(** An empty memo for trees over [leaf_count] leaves.
    @raise Invalid_argument if [leaf_count <= 0]. *)

val of_leaf_digests : ?memo:memo -> string array -> tree
(** Build a tree over already-hashed leaves: [build l] is
    [of_leaf_digests (Array.map leaf_digest l)]. Lets a caller that has
    just verified a leaf reuse its digest instead of hashing the payload
    again. @raise Invalid_argument on an empty array, or if [memo] was
    made for another leaf count. *)

val build : string array -> tree
(** Build a tree over the given leaves (payload bytes, hashed internally).
    Odd levels duplicate the last node, so any positive arity works.
    @raise Invalid_argument on an empty array. *)

val root : tree -> string
(** 32-byte root digest. *)

val leaf_count : tree -> int

val prove : tree -> int -> proof
(** Inclusion proof for the leaf at the given index.
    @raise Invalid_argument if the index is out of range. *)

val verify : root:string -> leaf_count:int -> leaf:string -> proof -> bool
(** [verify ~root ~leaf_count ~leaf proof] checks that [leaf]'s payload
    sits at [proof.leaf_index] in a tree with the given root and size. *)

val verify_digest :
  ?memo:memo -> root:string -> leaf_count:int -> leaf_digest:string ->
  proof -> bool
(** {!verify} for a leaf given by its {!leaf_digest}: [verify ~leaf] is
    [verify_digest ~leaf_digest:(leaf_digest leaf)].
    @raise Invalid_argument if [memo] was made for another leaf count. *)
