type key = int * int (* owner, seqno *)

type t = {
  owner : int;
  max_batch : int;
  max_pending : int option;
  queue : Txgen.tx Queue.t;
  (* every key we have ever seen, for dedup across submit/retire *)
  seen : (key, unit) Hashtbl.t;
  inflight : (key, unit) Hashtbl.t;
  (* keys ordered elsewhere while still queued here: dropped lazily when
     the queue pops them (a client may submit to several processes) *)
  retired_keys : (key, unit) Hashtbl.t;
  mutable submitted : int;
  mutable retired : int;
  mutable rejected : int;
}

let create ?(max_batch = 64) ?max_pending ~owner () =
  { owner;
    max_batch;
    max_pending;
    queue = Queue.create ();
    seen = Hashtbl.create 256;
    inflight = Hashtbl.create 256;
    retired_keys = Hashtbl.create 256;
    submitted = 0;
    retired = 0;
    rejected = 0 }

let key_of (tx : Txgen.tx) = (tx.owner, tx.seqno)

let submit t tx =
  let k = key_of tx in
  if Hashtbl.mem t.seen k then false
  else
    match t.max_pending with
    | Some cap when Queue.length t.queue >= cap ->
      (* backpressure: shed without recording the key, so the client may
         retry once the queue drains *)
      t.rejected <- t.rejected + 1;
      false
    | _ ->
      Hashtbl.add t.seen k ();
      Queue.add tx t.queue;
      t.submitted <- t.submitted + 1;
      true

let assemble_block t =
  let rec take acc count =
    if count >= t.max_batch then List.rev acc
    else
      match Queue.take_opt t.queue with
      | None -> List.rev acc
      | Some tx when Hashtbl.mem t.retired_keys (key_of tx) ->
        (* already ordered through another process's block *)
        take acc count
      | Some tx ->
        Hashtbl.replace t.inflight (key_of tx) ();
        take (tx :: acc) (count + 1)
  in
  Txgen.block_of_txs (take [] 0)

let retire_block t block =
  let mine = ref 0 in
  Txgen.iter_keys block (fun owner seqno ->
      let k = (owner, seqno) in
      if Hashtbl.mem t.inflight k then begin
        Hashtbl.remove t.inflight k;
        incr mine
      end;
      Hashtbl.replace t.retired_keys k ();
      (* remember foreign transactions too: a client that multi-submits
         must not get its transaction ordered twice through us *)
      if not (Hashtbl.mem t.seen k) then Hashtbl.add t.seen k ();
      t.retired <- t.retired + 1);
  !mine

let pending t = Queue.length t.queue

let in_flight t = Hashtbl.length t.inflight

let submitted t = t.submitted

let retired t = t.retired

let rejected t = t.rejected
