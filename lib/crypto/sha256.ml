type digest = string

(* Words are native ints masked to 32 bits: no [Int32] boxing. *)
let mask = 0xFFFF_FFFF

(* Round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes (FIPS 180-4 §4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_h () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* Rotations go through the doubled word [x lor (x lsl 32)]: it holds
   two copies of the 32-bit word [x] side by side, and [x] rotated right
   by [n] is the 32-bit window starting at bit [n]. OCaml ints are 63
   bits wide, so the upper copy keeps only bits 0..30 of [x] (at bits
   32..62); the window's top bit [n + 31] stays at or below bit 62 for
   every [n <= 31], and no SHA-256 rotation exceeds 25. Each sigma
   function builds the doubled word once and masks once. *)
let[@inline] double x = x lor (x lsl 32)

let[@inline] big_sigma0 x =
  let d = double x in
  ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land mask

let[@inline] big_sigma1 x =
  let d = double x in
  ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land mask

let[@inline] small_sigma0 x =
  let d = double x in
  (((d lsr 7) lxor (d lsr 18)) land mask) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = double x in
  (((d lsr 17) lxor (d lsr 19)) land mask) lxor (x lsr 10)

let compressions = ref 0
let blocks () = !compressions

(* One compression of the 64-byte block at [off] in [src] into the
   state [h]. [w] is the message schedule as a 16-word ring: schedule
   word [t] lives at [t land 15], computed in the round that uses it. *)
let compress h w src off =
  incr compressions;
  for t = 0 to 15 do
    let i = off + (t * 4) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get src i) lsl 24)
      lor (Char.code (Bytes.unsafe_get src (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get src (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get src (i + 3)))
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let wt =
      if t < 16 then Array.unsafe_get w t
      else begin
        let x =
          (Array.unsafe_get w (t land 15)
          + small_sigma0 (Array.unsafe_get w ((t - 15) land 15))
          + Array.unsafe_get w ((t - 7) land 15)
          + small_sigma1 (Array.unsafe_get w ((t - 2) land 15)))
          land mask
        in
        Array.unsafe_set w (t land 15) x;
        x
      end
    in
    let t1 = !hh + big_sigma1 e' + ch + Array.unsafe_get k t + wt in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + big_sigma0 a' + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* The state, the schedule, the padded tail and the output are allocated
   here, once per call and never per block; there is no shared buffer,
   so concurrent calls cannot interfere. *)
let digest_string s =
  let len = String.length s in
  let h = initial_h () in
  let w = Array.make 16 0 in
  let src = Bytes.unsafe_of_string s in
  let whole = len / 64 in
  for blk = 0 to whole - 1 do
    compress h w src (64 * blk)
  done;
  (* padding: the trailing partial block, 0x80, zeros, and the 8-byte
     big-endian bit length, in one block or two *)
  let rest = len - (64 * whole) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s (64 * whole) tail 0 rest;
  Bytes.set tail rest '\x80';
  let bit_len = len * 8 in
  for i = 0 to 7 do
    Bytes.set tail
      (tail_len - 8 + i)
      (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress h w tail 0;
  if tail_len = 128 then compress h w tail 64;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let x = h.(i) in
    Bytes.set out (4 * i) (Char.unsafe_chr (x lsr 24));
    Bytes.set out ((4 * i) + 1) (Char.unsafe_chr ((x lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.unsafe_chr ((x lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.unsafe_chr (x land 0xFF))
  done;
  Bytes.unsafe_to_string out

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let hmac ~key msg =
  let block = 64 in
  let key = if String.length key > block then digest_string key else key in
  let key_padded = Bytes.make block '\000' in
  Bytes.blit_string key 0 key_padded 0 (String.length key);
  let xor_with c =
    String.init block (fun i ->
        Char.chr (Char.code (Bytes.get key_padded i) lxor Char.code c))
  in
  let ipad = xor_with '\x36' and opad = xor_with '\x5c' in
  digest_string (opad ^ digest_string (ipad ^ msg))
