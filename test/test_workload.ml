(* Tests for transaction generation and block (batch) round-tripping. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let test_tx_roundtrip () =
  let tx = { Workload.Txgen.owner = 3; seqno = 17; body = "payload" } in
  (match Workload.Txgen.tx_of_string (Workload.Txgen.tx_to_string tx) with
  | Some tx' -> checkb "roundtrip" true (tx = tx')
  | None -> Alcotest.fail "parse failed");
  checkb "garbage rejected" true (Workload.Txgen.tx_of_string "nope" = None)

let test_gen_sequencing () =
  let g = Workload.Txgen.gen ~owner:2 ~body_bytes:16 in
  let t1 = Workload.Txgen.next_tx g in
  let t2 = Workload.Txgen.next_tx g in
  checki "owner" 2 t1.Workload.Txgen.owner;
  checki "seq 0" 0 t1.Workload.Txgen.seqno;
  checki "seq 1" 1 t2.Workload.Txgen.seqno;
  checki "produced" 2 (Workload.Txgen.produced g)

let test_gen_body_size () =
  let g = Workload.Txgen.gen ~owner:0 ~body_bytes:32 in
  let tx = Workload.Txgen.next_tx g in
  checki "body padded" 32 (String.length tx.Workload.Txgen.body)

let test_block_roundtrip () =
  let g = Workload.Txgen.gen ~owner:1 ~body_bytes:8 in
  let block = Workload.Txgen.make_block g ~count:5 in
  let txs = Workload.Txgen.block_txs block in
  checki "five txs" 5 (List.length txs);
  List.iteri
    (fun i tx ->
      checki "owner" 1 tx.Workload.Txgen.owner;
      checki "seqno" i tx.Workload.Txgen.seqno)
    txs

let test_block_of_txs_inverse () =
  let txs =
    List.init 3 (fun i ->
        { Workload.Txgen.owner = i; seqno = i * 7; body = Printf.sprintf "b%d" i })
  in
  checkb "inverse" true
    (Workload.Txgen.block_txs (Workload.Txgen.block_of_txs txs) = txs)

let test_foreign_block_parses_empty () =
  Alcotest.(check (list bool)) "padding block yields nothing" []
    (List.map (fun _ -> true) (Workload.Txgen.block_txs "xxxxxyyyyy"));
  checki "empty block" 0 (List.length (Workload.Txgen.block_txs ""))

(* The split-based parser the one-pass one replaced, as a reference:
   split a block on the record separator, then each record on the field
   separator; a record is a transaction iff it has exactly three fields
   and both counters parse *)
let model_tx_of_string s =
  match String.split_on_char '\x1f' s with
  | [ owner; seqno; body ] -> (
    match (int_of_string_opt owner, int_of_string_opt seqno) with
    | Some owner, Some seqno -> Some { Workload.Txgen.owner; seqno; body }
    | _ -> None)
  | _ -> None

(* Random strings over an alphabet heavy in separators, signs, digits
   and number prefixes, so malformed records of every kind show up *)
let prop_block_parse_matches_split =
  let alphabet = "\x1e\x1f\x1f0123456789-+_xob a" in
  let gen =
    QCheck.Gen.(
      string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
        (int_bound 60))
  in
  QCheck.Test.make ~name:"tx_of_string/block_txs/iter_keys = split parser" ~count:2000
    (QCheck.make ~print:String.escaped gen) (fun block ->
      let expected =
        if block = "" then []
        else List.filter_map model_tx_of_string (String.split_on_char '\x1e' block)
      in
      let keys = ref [] in
      Workload.Txgen.iter_keys block (fun o s -> keys := (o, s) :: !keys);
      Workload.Txgen.tx_of_string block = model_tx_of_string block
      && Workload.Txgen.block_txs block = expected
      && List.rev !keys
         = List.map
             (fun (tx : Workload.Txgen.tx) -> (tx.owner, tx.seqno))
             expected)

let test_tx_bytes_estimate () =
  let g = Workload.Txgen.gen ~owner:3 ~body_bytes:20 in
  let tx = Workload.Txgen.next_tx g in
  let actual = String.length (Workload.Txgen.tx_to_string tx) in
  let estimate = Workload.Txgen.tx_bytes ~body_bytes:20 in
  checkb
    (Printf.sprintf "estimate %d within 8 of actual %d" estimate actual)
    true
    (abs (estimate - actual) <= 8)

let test_block_through_node_payload () =
  (* blocks survive the vertex codec (binary-safe separators) *)
  let g = Workload.Txgen.gen ~owner:0 ~body_bytes:16 in
  let block = Workload.Txgen.make_block g ~count:4 in
  let v =
    { Dagrider.Vertex.round = 1;
      source = 0;
      block;
      strong_edges =
        [ { Dagrider.Vertex.round = 0; source = 0 };
          { Dagrider.Vertex.round = 0; source = 1 };
          { Dagrider.Vertex.round = 0; source = 2 } ];
      weak_edges = [] }
  in
  match Dagrider.Vertex.decode ~round:1 ~source:0 (Dagrider.Vertex.encode v) with
  | Some v' ->
    checks "block intact" block v'.Dagrider.Vertex.block;
    checki "txs parse" 4 (List.length (Workload.Txgen.block_txs v'.Dagrider.Vertex.block))
  | None -> Alcotest.fail "decode failed"

(* ---- Mempool ---- *)

let mk_tx owner seqno = { Workload.Txgen.owner; seqno; body = "b" }

let test_mempool_submit_dedup () =
  let m = Workload.Mempool.create ~owner:0 () in
  checkb "first accepted" true (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "duplicate dropped" false (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "different seqno ok" true (Workload.Mempool.submit m (mk_tx 0 2));
  checki "pending" 2 (Workload.Mempool.pending m);
  checki "submitted counter" 2 (Workload.Mempool.submitted m)

let test_mempool_assemble_and_retire () =
  let m = Workload.Mempool.create ~owner:0 ~max_batch:2 () in
  List.iter (fun i -> ignore (Workload.Mempool.submit m (mk_tx 0 i))) [ 1; 2; 3 ];
  let block = Workload.Mempool.assemble_block m in
  checki "batch capped" 2 (List.length (Workload.Txgen.block_txs block));
  checki "one left pending" 1 (Workload.Mempool.pending m);
  checki "two in flight" 2 (Workload.Mempool.in_flight m);
  checki "both were ours" 2 (Workload.Mempool.retire_block m block);
  checki "in flight cleared" 0 (Workload.Mempool.in_flight m)

let test_mempool_empty_block () =
  let m = Workload.Mempool.create ~owner:1 () in
  checks "empty pool, empty block" "" (Workload.Mempool.assemble_block m)

let test_mempool_foreign_retirement_drops_queued () =
  (* a client multi-submitted: the tx gets ordered via another process's
     block while still queued here — it must not be proposed again *)
  let m = Workload.Mempool.create ~owner:0 () in
  ignore (Workload.Mempool.submit m (mk_tx 9 5));
  ignore (Workload.Mempool.submit m (mk_tx 0 1));
  let foreign_block = Workload.Txgen.block_of_txs [ mk_tx 9 5 ] in
  checki "not ours" 0 (Workload.Mempool.retire_block m foreign_block);
  let block = Workload.Mempool.assemble_block m in
  let txs = Workload.Txgen.block_txs block in
  checki "only the un-retired tx" 1 (List.length txs);
  checki "the right one" 0 (List.hd txs).Workload.Txgen.owner;
  (* and a late re-submission of the foreign tx is rejected *)
  checkb "re-submission rejected" false (Workload.Mempool.submit m (mk_tx 9 5))

let test_mempool_resubmit_after_retire () =
  (* ordered-and-retired transactions stay remembered: a client retrying
     a tx that already made it into the total order must be rejected,
     not ordered twice *)
  let m = Workload.Mempool.create ~owner:0 () in
  checkb "accepted" true (Workload.Mempool.submit m (mk_tx 0 7));
  let block = Workload.Mempool.assemble_block m in
  checki "retired" 1 (Workload.Mempool.retire_block m block);
  checkb "re-submit after retire rejected" false
    (Workload.Mempool.submit m (mk_tx 0 7));
  checki "nothing pending" 0 (Workload.Mempool.pending m);
  checki "submitted counted once" 1 (Workload.Mempool.submitted m)

let test_mempool_empty_assembly_no_inflight () =
  let m = Workload.Mempool.create ~owner:2 () in
  checks "empty block" "" (Workload.Mempool.assemble_block m);
  checki "no in-flight from empty assembly" 0 (Workload.Mempool.in_flight m);
  (* retiring the empty block is a no-op, not a crash *)
  checki "empty retirement" 0 (Workload.Mempool.retire_block m "")

let test_mempool_foreign_only_block () =
  (* a block of transactions this pool has never seen: nothing counts as
     ours, but the keys are remembered so later local submissions of the
     same transactions are rejected *)
  let m = Workload.Mempool.create ~owner:0 () in
  let foreign = Workload.Txgen.block_of_txs [ mk_tx 5 1; mk_tx 6 2 ] in
  checki "none of it ours" 0 (Workload.Mempool.retire_block m foreign);
  checki "nothing pending" 0 (Workload.Mempool.pending m);
  checki "nothing in flight" 0 (Workload.Mempool.in_flight m);
  checkb "ordered-elsewhere tx rejected locally" false
    (Workload.Mempool.submit m (mk_tx 5 1));
  checkb "ordered-elsewhere tx rejected locally (2)" false
    (Workload.Mempool.submit m (mk_tx 6 2));
  checkb "fresh tx still accepted" true (Workload.Mempool.submit m (mk_tx 0 1))

let test_mempool_backpressure () =
  let m = Workload.Mempool.create ~owner:0 ~max_pending:2 () in
  checkb "1 accepted" true (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "2 accepted" true (Workload.Mempool.submit m (mk_tx 0 2));
  checkb "3 rejected at cap" false (Workload.Mempool.submit m (mk_tx 0 3));
  checki "rejection counted" 1 (Workload.Mempool.rejected m);
  checki "pending holds at cap" 2 (Workload.Mempool.pending m);
  checki "submitted excludes rejected" 2 (Workload.Mempool.submitted m);
  (* a rejected tx was NOT remembered: once the queue drains the client's
     retry succeeds *)
  ignore (Workload.Mempool.assemble_block m);
  checkb "retry after drain accepted" true (Workload.Mempool.submit m (mk_tx 0 3));
  checki "rejected stays at 1" 1 (Workload.Mempool.rejected m);
  (* in-flight transactions do not count against the pending cap *)
  checkb "cap is on the queue, not in-flight" true
    (Workload.Mempool.submit m (mk_tx 0 4))

let test_mempool_end_to_end_with_node () =
  (* drive a real fleet with mempools as block sources; every submitted
     transaction must appear exactly once in the total order *)
  let n = 4 in
  let mempools =
    Array.init n (fun owner -> Workload.Mempool.create ~owner ~max_batch:4 ())
  in
  let opts =
    { (Harness.Runner.default_options ~n) with
      seed = 91;
      on_deliver =
        Some
          (fun ~node ~block ~round:_ ~source:_ ~time:_ ->
            ignore (Workload.Mempool.retire_block mempools.(node) block)) }
  in
  let h = Harness.Runner.build opts in
  (* the runner's default block_source pads blocks; route through the
     mempools instead by submitting explicit blocks via a_bcast *)
  let gens =
    Array.init n (fun owner -> Workload.Txgen.gen ~owner ~body_bytes:8)
  in
  Array.iteri
    (fun i node ->
      for _ = 1 to 3 do
        ignore (Workload.Mempool.submit mempools.(i) (Workload.Txgen.next_tx gens.(i)))
      done;
      Dagrider.Node.a_bcast node (Workload.Mempool.assemble_block mempools.(i)))
    (Harness.Runner.nodes h);
  Harness.Runner.run h ~until:60.0;
  Array.iteri
    (fun i m ->
      checki (Printf.sprintf "p%d in-flight drained" i) 0
        (Workload.Mempool.in_flight m);
      checkb "retired counts the fleet's blocks" true
        (Workload.Mempool.retired m >= 12))
    mempools;
  (* exactly-once: each tx appears once in p0's ordered log *)
  let all_txs =
    List.concat_map
      (fun v -> Workload.Txgen.block_txs v.Dagrider.Vertex.block)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 0))
  in
  let keys = List.map (fun (tx : Workload.Txgen.tx) -> (tx.owner, tx.seqno)) all_txs in
  checki "no duplicates in the order" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  checki "all 12 explicit txs ordered" 12
    (List.length
       (List.filter (fun (tx : Workload.Txgen.tx) -> tx.body = "t" ^ String.sub tx.body 1 (String.length tx.body - 1)) all_txs))

let () =
  Alcotest.run "workload"
    [ ( "txgen",
        [ Alcotest.test_case "tx roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "sequencing" `Quick test_gen_sequencing;
          Alcotest.test_case "body size" `Quick test_gen_body_size;
          Alcotest.test_case "block roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "block_of_txs inverse" `Quick test_block_of_txs_inverse;
          Alcotest.test_case "foreign block" `Quick test_foreign_block_parses_empty;
          Alcotest.test_case "tx bytes estimate" `Quick test_tx_bytes_estimate;
          Alcotest.test_case "block through codec" `Quick
            test_block_through_node_payload;
          QCheck_alcotest.to_alcotest prop_block_parse_matches_split ] );
      ( "mempool",
        [ Alcotest.test_case "submit dedup" `Quick test_mempool_submit_dedup;
          Alcotest.test_case "assemble and retire" `Quick
            test_mempool_assemble_and_retire;
          Alcotest.test_case "empty block" `Quick test_mempool_empty_block;
          Alcotest.test_case "foreign retirement" `Quick
            test_mempool_foreign_retirement_drops_queued;
          Alcotest.test_case "re-submit after retire" `Quick
            test_mempool_resubmit_after_retire;
          Alcotest.test_case "empty assembly leaves no in-flight" `Quick
            test_mempool_empty_assembly_no_inflight;
          Alcotest.test_case "foreign-only block" `Quick
            test_mempool_foreign_only_block;
          Alcotest.test_case "backpressure cap" `Quick
            test_mempool_backpressure;
          Alcotest.test_case "end to end with fleet" `Quick
            test_mempool_end_to_end_with_node ] )
    ]
