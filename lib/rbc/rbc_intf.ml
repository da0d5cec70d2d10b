(** Shared vocabulary of the reliable-broadcast abstraction (paper §2).

    Each sender [p_k] calls [r_bcast_k (m, r)]; every process eventually
    outputs [r_deliver_i (m, r, p_k)] with the abstraction's Agreement /
    Integrity / Validity guarantees. Implementations are message-type
    specific, but all expose the same [create]/[bcast] shape so the DAG
    layer can be instantiated with any of them (Table 1 rows).

    Every protocol here, RBC or baseline, decides by counting distinct
    senders against [f+1] or [2f+1]: {!Voters} is that count, and
    {!Tally} adds the first-vote rule for votes that name a value. *)

type deliver = payload:string -> round:int -> source:int -> unit
(** Upcall invoked exactly once per (source, round) instance. *)

(** Instance keys: a reliable broadcast instance is identified by the
    originating process and its round number. *)

module Key = struct
  type t = int * int (* origin, round *)

  let equal ((o1, r1) : t) ((o2, r2) : t) = o1 = o2 && r1 = r2
  let hash ((origin, round) : t) = (round * 65599) + origin
end

module Tbl = Hashtbl.Make (Key)

(** The distinct process ids in [0, n) heard from: a byte per id plus a
    running count, so [add] and [count] are O(1). *)
module Voters = struct
  type t = { seen : Bytes.t; mutable count : int }

  let create n = { seen = Bytes.make n '\000'; count = 0 }

  let mem t id =
    id >= 0 && id < Bytes.length t.seen && Bytes.get t.seen id <> '\000'

  (* [false], and nothing counted, for a repeat or an id outside [0, n) *)
  let add t id =
    let fresh = id >= 0 && id < Bytes.length t.seen && not (mem t id) in
    if fresh then begin
      Bytes.set t.seen id '\001';
      t.count <- t.count + 1
    end;
    fresh

  let count t = t.count

  (* ascending *)
  let elements t =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) (if mem t i then i :: acc else acc)
    in
    go (Bytes.length t.seen - 1) []
end

(** Votes of one kind (Echo, Ready, ...) in one instance, one bucket per
    distinct value. Only a process's first vote counts — a correct
    process votes once per kind — so a Byzantine sender flooding
    distinct values opens at most one bucket and cannot move a vote it
    already cast; the list holds at most n buckets. *)
module Tally = struct
  type 'v bucket = { value : 'v; mutable votes : int }
  type 'v t = { voters : Voters.t; mutable buckets : 'v bucket list }

  let create n = { voters = Voters.create n; buckets = [] }

  (* the votes [v] now has, or [0] when this vote is not counted *)
  let vote t ~equal ~voter v =
    if not (Voters.add t.voters voter) then 0
    else
      match List.find_opt (fun b -> equal b.value v) t.buckets with
      | Some b ->
        b.votes <- b.votes + 1;
        b.votes
      | None ->
        t.buckets <- { value = v; votes = 1 } :: t.buckets;
        1

  let count t ~equal v =
    match List.find_opt (fun b -> equal b.value v) t.buckets with
    | Some b -> b.votes
    | None -> 0

  (* the most recently opened value whose bucket satisfies [p value votes] *)
  let find t p =
    List.find_map (fun b -> if p b.value b.votes then Some b.value else None)
      t.buckets
end

(** Binary wire-format helpers shared by the protocol codecs. Every
    protocol message has an [encode_msg]/[decode_msg] pair; senders
    charge the exact encoded size, and the codecs carry property tests
    in the suite. *)
module Wire = struct
  let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let put_u32 buf v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))

  let put_bytes buf s =
    put_u32 buf (String.length s);
    Buffer.add_string buf s

  let put_bool buf b = put_u8 buf (if b then 1 else 0)

  type reader = { src : string; mutable pos : int }

  exception Bad

  let reader src = { src; pos = 0 }

  let get_u8 r =
    if r.pos >= String.length r.src then raise Bad;
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let get_u32 r =
    if r.pos + 4 > String.length r.src then raise Bad;
    let b i = Char.code r.src.[r.pos + i] in
    let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    r.pos <- r.pos + 4;
    v

  let get_bytes r =
    let len = get_u32 r in
    if r.pos + len > String.length r.src then raise Bad;
    let s = String.sub r.src r.pos len in
    r.pos <- r.pos + len;
    s

  let get_bool r = get_u8 r <> 0

  let finish r v = if r.pos = String.length r.src then Some v else None

  let decode src f = try f (reader src) with Bad -> None

  let bits s = 8 * String.length s
end
