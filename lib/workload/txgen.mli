(** Transaction and block generation for the experiments.

    The paper measures communication per {e transaction} and assumes
    each broadcast message carries a block (batch) of transactions (§3).
    This module produces deterministic synthetic transactions, batches
    them into blocks, and parses blocks back for auditing (e.g. checking
    that a censored process's transactions were eventually ordered). *)

type tx = {
  owner : int;   (** proposing process *)
  seqno : int;   (** per-owner sequence number *)
  body : string; (** opaque payload *)
}

val tx_to_string : tx -> string
val tx_of_string : string -> tx option

val tx_bytes : body_bytes:int -> int
(** Serialized size of a transaction with the given body size (for
    batch-size arithmetic in the experiments). *)

type gen
(** Deterministic per-owner transaction stream. *)

val gen : owner:int -> body_bytes:int -> gen

val next_tx : gen -> tx
val produced : gen -> int

val make_block : gen -> count:int -> string
(** Batch the next [count] transactions into one block. *)

val block_txs : string -> tx list
(** Parse a block back into transactions ([] for blocks produced
    elsewhere, e.g. the harness's padding blocks). *)

val iter_keys : string -> (int -> int -> unit) -> unit
(** [iter_keys block f] calls [f owner seqno] for each transaction of
    [block_txs block], in order, without building the transactions:
    what a mempool retiring a delivered block needs. *)

val block_of_txs : tx list -> string
