(* Log/antilog tables over generator 0x03 with the AES polynomial 0x11b.
   exp_table has 512 entries so that mul can skip one modular reduction. *)

let exp_table = Array.make 512 0
let log_table = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    (* multiply by the generator 3 = x + 1: x*3 = (x << 1) xor x *)
    let shifted = !x lsl 1 in
    let shifted = if shifted land 0x100 <> 0 then shifted lxor 0x11b else shifted in
    x := shifted lxor !x
  done;
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done

(* The full 256 x 256 product table, built once at module initialisation:
   byte [(a lsl 8) lor b] is [a * b]. 64 KiB, shared by every coder. *)
let mul_table =
  let t = Bytes.make 65536 '\000' in
  for a = 1 to 255 do
    for b = 1 to 255 do
      Bytes.unsafe_set t ((a lsl 8) lor b)
        (Char.unsafe_chr exp_table.(log_table.(a) + log_table.(b)))
    done
  done;
  Bytes.unsafe_to_string t

let check a =
  if a < 0 || a > 255 then invalid_arg "Gf256: element out of range"

let add a b = check a; check b; a lxor b
let sub = add

let mul a b =
  check a; check b;
  if a = 0 || b = 0 then 0
  else exp_table.(log_table.(a) + log_table.(b))

let inv a =
  check a;
  if a = 0 then raise Division_by_zero;
  exp_table.(255 - log_table.(a))

let div a b =
  check a; check b;
  if b = 0 then raise Division_by_zero;
  if a = 0 then 0
  else exp_table.(((log_table.(a) - log_table.(b)) + 255) mod 255)

let pow x k =
  check x;
  if k < 0 then invalid_arg "Gf256.pow: negative exponent";
  if k = 0 then 1
  else if x = 0 then 0
  else exp_table.(log_table.(x) * k mod 255)

let eval_poly coeffs x =
  let acc = ref 0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := add (mul !acc x) coeffs.(i)
  done;
  !acc
