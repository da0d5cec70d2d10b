type tree = {
  levels : string array array;
      (* levels.(0) = leaf digests; last level has length 1 = root *)
}

type proof = { leaf_index : int; path : string list }

let leaf_digest payload = Sha256.digest_string ("\x00" ^ payload)
let hash_node l r =
  let ll = String.length l in
  let b = Bytes.create (1 + ll + String.length r) in
  Bytes.set b 0 '\x01';
  Bytes.blit_string l 0 b 1 ll;
  Bytes.blit_string r 0 b (1 + ll) (String.length r);
  Sha256.digest_string (Bytes.unsafe_to_string b)

(* Inner-node hashes remembered by position: [slots.(l).(j)] holds the
   two children last hashed into node [j] of level [l] (level 0 being
   the leaves) and the result. A node is rehashed only when its
   children differ from those, so a memo never changes an answer. *)
type memo = {
  memo_leaves : int;
  slots : (string * string * string) option array array;
}

let memo ~leaf_count =
  if leaf_count <= 0 then invalid_arg "Merkle.memo: no leaves";
  let rec sizes n acc =
    if n <= 1 then List.rev (n :: acc) else sizes ((n + 1) / 2) (n :: acc)
  in
  { memo_leaves = leaf_count;
    slots =
      Array.of_list (List.map (fun m -> Array.make m None) (sizes leaf_count []))
  }

let check_memo memo ~leaf_count =
  match memo with
  | Some m when m.memo_leaves <> leaf_count ->
    invalid_arg "Merkle: memo made for another leaf count"
  | _ -> ()

(* [hash_node l r] as node [j] of [level] *)
let hash_at memo ~level j l r =
  match memo with
  | None -> hash_node l r
  | Some m -> (
    match m.slots.(level).(j) with
    | Some (l', r', p) when String.equal l l' && String.equal r r' -> p
    | _ ->
      let p = hash_node l r in
      m.slots.(level).(j) <- Some (l, r, p);
      p)

let next_level memo ~level nodes =
  let n = Array.length nodes in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      let l = nodes.(2 * i) in
      let r = if (2 * i) + 1 < n then nodes.((2 * i) + 1) else l in
      hash_at memo ~level i l r)

let of_leaf_digests ?memo digests =
  if Array.length digests = 0 then invalid_arg "Merkle.build: no leaves";
  check_memo memo ~leaf_count:(Array.length digests);
  let rec go acc level nodes =
    if Array.length nodes = 1 then List.rev (nodes :: acc)
    else go (nodes :: acc) (level + 1) (next_level memo ~level:(level + 1) nodes)
  in
  { levels = Array.of_list (go [] 0 digests) }

let build leaves = of_leaf_digests (Array.map leaf_digest leaves)

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let leaf_count t = Array.length t.levels.(0)

let prove t index =
  let n = leaf_count t in
  if index < 0 || index >= n then invalid_arg "Merkle.prove: index out of range";
  let rec go level i acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let nodes = t.levels.(level) in
      let sib = if i land 1 = 0 then i + 1 else i - 1 in
      let sib_digest =
        if sib < Array.length nodes then nodes.(sib) else nodes.(i)
      in
      go (level + 1) (i / 2) (sib_digest :: acc)
    end
  in
  { leaf_index = index; path = go 0 index [] }

let verify_digest ?memo ~root:expected ~leaf_count ~leaf_digest proof =
  check_memo memo ~leaf_count;
  if proof.leaf_index < 0 || proof.leaf_index >= leaf_count then false
  else begin
    (* expected path length = tree height *)
    let height =
      let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
      go leaf_count 0
    in
    if List.length proof.path <> height then false
    else begin
      let digest = ref leaf_digest in
      let i = ref proof.leaf_index in
      List.iteri
        (fun l sib ->
          let j = !i / 2 in
          digest :=
            if !i land 1 = 0 then hash_at memo ~level:(l + 1) j !digest sib
            else hash_at memo ~level:(l + 1) j sib !digest;
          i := j)
        proof.path;
      String.equal !digest expected
    end
  end

let verify ~root ~leaf_count ~leaf proof =
  verify_digest ~root ~leaf_count ~leaf_digest:(leaf_digest leaf) proof
