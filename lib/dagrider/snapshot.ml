let dag_magic = "DAGSNAP2"

let delivered_magic = "DAGDELV2"

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32 s pos =
  if pos + 4 > String.length s then Error "truncated"
  else begin
    let b i = Char.code s.[pos + i] in
    Ok (((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, pos + 4))
  end

let ( let* ) = Result.bind

(* magic, header words, then one [u32 round][u32 source][u32 len][bytes]
   record per vertex, sealed with a SHA-256 of everything before it *)
let seal ~magic header vertices =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter (put_u32 buf) header;
  put_u32 buf (List.length vertices);
  List.iter
    (fun v ->
      let bytes = Vertex.encode v in
      put_u32 buf v.Vertex.round;
      put_u32 buf v.Vertex.source;
      put_u32 buf (String.length bytes);
      Buffer.add_string buf bytes)
    vertices;
  let body = Buffer.contents buf in
  body ^ Crypto.Sha256.digest_string body

(* Checks the seal and magic; returns the [words] header words and the
   decoded vertex records in file order. *)
let unseal ~magic ~words s =
  let m = String.length magic in
  let* () = if String.length s < m + (4 * (words + 1)) + 32 then Error "truncated" else Ok () in
  let body = String.sub s 0 (String.length s - 32) in
  let* () =
    if String.equal (Crypto.Sha256.digest_string body) (String.sub s (String.length s - 32) 32)
    then Ok ()
    else Error "checksum mismatch"
  in
  let* () = if String.equal (String.sub body 0 m) magic then Ok () else Error "bad magic" in
  let rec words_from k pos acc =
    if k = 0 then Ok (List.rev acc, pos)
    else
      let* w, pos = get_u32 body pos in
      words_from (k - 1) pos (w :: acc)
  in
  let* header, pos = words_from words m [] in
  let* count, pos = get_u32 body pos in
  let rec records i pos acc =
    if i = count then
      if pos = String.length body then Ok (header, List.rev acc) else Error "trailing bytes"
    else
      let* round, pos = get_u32 body pos in
      let* source, pos = get_u32 body pos in
      let* len, pos = get_u32 body pos in
      if pos + len > String.length body then Error "truncated vertex"
      else
        match Vertex.decode ~round ~source (String.sub body pos len) with
        | None -> Error (Printf.sprintf "undecodable vertex (%d, %d)" round source)
        | Some v -> records (i + 1) (pos + len) (v :: acc)
  in
  records 0 pos []

let dag_to_string dag =
  seal ~magic:dag_magic [ Dag.n dag; Dag.floor dag ] (Dag.vertices dag)

(* Genuine records passed Algorithm 2's checks, so each has a strong
   edge one round down and the rounds from the floor up are contiguous;
   the floor is at most one above the highest record. Checking both
   keeps a crafted file from making the store allocate rows for rounds
   it does not hold. *)
let dag_of_string s =
  let* header, vertices = unseal ~magic:dag_magic ~words:2 s in
  match header with
  | [ n; floor ] when n > 0 && n <= 4096 ->
    let highest = List.fold_left (fun acc (v : Vertex.t) -> max acc v.round) 0 vertices in
    if floor > highest + 1 then Error "implausible floor"
    else begin
      let dag = Dag.create ~n in
      Dag.prune_below dag ~round:floor;
      let add acc (v : Vertex.t) =
        let* () = acc in
        match Vertex.validate ~n ~f:0 v with
        | Error e -> Error (Printf.sprintf "invalid vertex (%d, %d): %s" v.round v.source e)
        | Ok () -> (
          match Dag.add dag v with
          | () -> Ok ()
          | exception Invalid_argument _ ->
            Error (Printf.sprintf "vertex (%d, %d) is not causally closed" v.round v.source))
      in
      let* () = List.fold_left add (Ok ()) vertices in
      Ok dag
    end
  | _ -> Error "implausible n"

let delivered_to_string log = seal ~magic:delivered_magic [] log

let delivered_of_string s =
  let* _, log = unseal ~magic:delivered_magic ~words:0 s in
  Ok log
