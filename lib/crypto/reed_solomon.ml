type coder = {
  k : int;
  n : int;
  (* parity.(r).(i): Lagrange coefficient of data point i when evaluating
     at field point k + r, so that parity fragments are linear in data. *)
  parity : int array array;
}

(* [a * b] from the product table, unchecked: callers pass field
   elements, i.e. ints in [0, 255] *)
let[@inline] mul a b =
  Char.code (String.unsafe_get Gf256.mul_table ((a lsl 8) lor b))

(* Lagrange basis coefficient L_i(x) over sample points xs, all field
   elements (they are fragment indices below n <= 256) *)
let lagrange_coeff xs i x =
  let xi = xs.(i) in
  let num = ref 1 and den = ref 1 in
  for m = 0 to Array.length xs - 1 do
    if m <> i then begin
      num := mul !num (x lxor xs.(m));
      den := mul !den (xi lxor xs.(m))
    end
  done;
  Gf256.div !num !den

let make ~k ~n =
  if k <= 0 || k > n || n > 256 then
    invalid_arg "Reed_solomon.make: need 0 < k <= n <= 256";
  let data_points = Array.init k (fun i -> i) in
  let parity =
    Array.init (n - k) (fun r ->
        let x = k + r in
        Array.init k (fun i -> lagrange_coeff data_points i x))
  in
  { k; n; parity }

let fragment_length c ~data_len =
  if data_len <= 0 then 1 else (data_len + c.k - 1) / c.k

(* [dst.[dst_off + j] <- dst.[dst_off + j] xor (coeff * src.[src_off + j])]
   for every [j < len], one row of {!Gf256.mul_table} at a time. The
   reads and writes are unchecked: every caller passes offsets and
   lengths inside both buffers, and [coeff] in [\[0, 255\]]. *)
let mul_xor ~dst ~dst_off ~src ~src_off ~len coeff =
  if coeff <> 0 then begin
    let row = coeff lsl 8 in
    for j = 0 to len - 1 do
      let p =
        String.unsafe_get Gf256.mul_table
          (row lor Char.code (Bytes.unsafe_get src (src_off + j)))
      in
      Bytes.unsafe_set dst (dst_off + j)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst (dst_off + j)) lxor Char.code p))
    done
  end

let encode c data =
  let data_len = String.length data in
  let flen = fragment_length c ~data_len in
  let padded = Bytes.make (flen * c.k) '\000' in
  Bytes.blit_string data 0 padded 0 data_len;
  let fragment i =
    if i < c.k then Bytes.sub_string padded (i * flen) flen
    else begin
      let out = Bytes.make flen '\000' in
      Array.iteri
        (fun d coeff ->
          mul_xor ~dst:out ~dst_off:0 ~src:padded ~src_off:(d * flen) ~len:flen
            coeff)
        c.parity.(i - c.k);
      Bytes.unsafe_to_string out
    end
  in
  Array.init c.n fragment

let decode c ~data_len fragments =
  (* keep the first occurrence of each index, in index order, take k *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, frag) ->
      if i < 0 || i >= c.n then
        invalid_arg "Reed_solomon.decode: fragment index out of range";
      if not (Hashtbl.mem seen i) then Hashtbl.add seen i frag)
    fragments;
  if Hashtbl.length seen < c.k then
    invalid_arg "Reed_solomon.decode: not enough fragments";
  let flen = fragment_length c ~data_len in
  let chosen =
    let all = Hashtbl.fold (fun i frag acc -> (i, frag) :: acc) seen [] in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
    Array.of_list (List.filteri (fun idx _ -> idx < c.k) sorted)
  in
  Array.iter
    (fun (_, frag) ->
      if String.length frag <> flen then
        invalid_arg "Reed_solomon.decode: inconsistent fragment length")
    chosen;
  let xs = Array.map fst chosen in
  (* re-evaluate the interpolating polynomial at the data points
     0 .. k-1, writing only the bytes that survive the truncation to
     [data_len] *)
  let out = Bytes.make data_len '\000' in
  for target = 0 to c.k - 1 do
    let len = min flen (data_len - (target * flen)) in
    if len > 0 then
      Array.iteri
        (fun i (_, frag) ->
          mul_xor ~dst:out ~dst_off:(target * flen)
            ~src:(Bytes.unsafe_of_string frag) ~src_off:0 ~len
            (lagrange_coeff xs i target))
        chosen
  done;
  Bytes.unsafe_to_string out
