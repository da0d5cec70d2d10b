type tx = { owner : int; seqno : int; body : string }

(* Serialization avoids the record separator \x1e inside fields by
   construction: owner/seqno are decimal and the body is alphanumeric. *)
let field_sep = '\x1f'
let record_sep = '\x1e'

let tx_to_string tx =
  Printf.sprintf "%d%c%d%c%s" tx.owner field_sep tx.seqno field_sep tx.body

(* the index of the first [c] in [s.[from .. stop-1]], or [stop] *)
let rec find c s from stop =
  if from >= stop || String.unsafe_get s from = c then from
  else find c s (from + 1) stop

(* The record at [s.[start .. stop-1]] is a transaction iff it has
   exactly three fields split on [field_sep] and [int_of_string_opt]
   reads the first two: then [f owner seqno lo], the body starting at
   [lo]. Copies only the two counters. *)
let parse_record s start stop f =
  let a = find field_sep s start stop in
  if a < stop then begin
    let b = find field_sep s (a + 1) stop in
    if b < stop && find field_sep s (b + 1) stop = stop then
      match
        ( int_of_string_opt (String.sub s start (a - start)),
          int_of_string_opt (String.sub s (a + 1) (b - a - 1)) )
      with
      | Some owner, Some seqno -> f owner seqno (b + 1)
      | _ -> ()
  end

let tx_of_string s =
  let len = String.length s in
  let tx = ref None in
  parse_record s 0 len (fun owner seqno lo ->
      tx := Some { owner; seqno; body = String.sub s lo (len - lo) });
  !tx

let tx_bytes ~body_bytes =
  (* "<owner>\x1f<seqno>\x1f<body>" with ~4-digit counters *)
  body_bytes + 12

type gen = { owner : int; body_bytes : int; mutable seqno : int }

let gen ~owner ~body_bytes = { owner; body_bytes; seqno = 0 }

let synth_body g =
  let tag = Printf.sprintf "t%d.%d." g.owner g.seqno in
  if String.length tag >= g.body_bytes then tag
  else tag ^ String.make (g.body_bytes - String.length tag) 'a'

let next_tx g =
  let tx = { owner = g.owner; seqno = g.seqno; body = synth_body g } in
  g.seqno <- g.seqno + 1;
  tx

let produced g = g.seqno

let block_of_txs txs =
  String.concat (String.make 1 record_sep) (List.map tx_to_string txs)

let make_block g ~count =
  block_of_txs (List.init count (fun _ -> next_tx g))

(* [f owner seqno lo hi] for every record of [block] (split on
   [record_sep]) that is a transaction, in order, with its body at
   [block.[lo .. hi-1]] *)
let iter_records block f =
  let len = String.length block in
  let rec go start =
    let stop = find record_sep block start len in
    parse_record block start stop (fun owner seqno lo -> f owner seqno lo stop);
    if stop < len then go (stop + 1)
  in
  if len > 0 then go 0

let block_txs block =
  let txs = ref [] in
  iter_records block (fun owner seqno lo hi ->
      txs := { owner; seqno; body = String.sub block lo (hi - lo) } :: !txs);
  List.rev !txs

let iter_keys block f = iter_records block (fun owner seqno _ _ -> f owner seqno)
