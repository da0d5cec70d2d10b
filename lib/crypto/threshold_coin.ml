type t = {
  n : int;
  f : int;
  keys : int array; (* keys.(i) = P(i + 1); dealer state, see .mli note *)
}

type share = { holder : int; instance : int; value : int }

let setup ~rng ~n ~f =
  if f < 0 || n < f + 1 then
    invalid_arg "Threshold_coin.setup: need 0 <= f and n >= f + 1";
  let coeffs = Array.init (f + 1) (fun _ -> Stdx.Rng.int rng Field.p) in
  { n; f; keys = Array.init n (fun i -> Field.eval_poly coeffs (i + 1)) }

let of_keys ~n ~f ~keys =
  if Array.length keys <> n then
    invalid_arg "Threshold_coin.of_keys: need one key per process";
  if f < 0 || n < f + 1 then
    invalid_arg "Threshold_coin.of_keys: need 0 <= f and n >= f + 1";
  { n; f; keys = Array.map Field.of_int keys }

let key_of t ~holder =
  if holder < 0 || holder >= t.n then
    invalid_arg "Threshold_coin.key_of: bad holder";
  t.keys.(holder)

let n t = t.n
let threshold t = t.f + 1

let hash_instance instance =
  Field.element_of_digest
    (Sha256.digest_string (Printf.sprintf "coin-instance:%d" instance))

let make_share t ~holder ~instance =
  if holder < 0 || holder >= t.n then
    invalid_arg "Threshold_coin.make_share: bad holder";
  { holder; instance; value = Field.mul t.keys.(holder) (hash_instance instance) }

(* [share] is [holder]'s share for an instance whose hash is [h] *)
let share_matches t share h =
  share.holder >= 0 && share.holder < t.n
  && share.value = Field.mul t.keys.(share.holder) h

let verify_share t share = share_matches t share (hash_instance share.instance)

let combine t ~instance shares =
  (* every share counted is for [instance]: hash it once per call *)
  let h = hash_instance instance in
  let valid =
    List.filter (fun s -> s.instance = instance && share_matches t s h) shares
  in
  let dedup = List.sort_uniq (fun a b -> compare a.holder b.holder) valid in
  if List.length dedup < t.f + 1 then None
  else begin
    let chosen = List.filteri (fun i _ -> i <= t.f) dedup in
    let points = List.map (fun s -> (s.holder + 1, s.value)) chosen in
    let secret_value = Field.lagrange_at_zero points in
    let digest =
      Sha256.digest_string (Printf.sprintf "coin-out:%d:%d" secret_value instance)
    in
    Some (Field.element_of_digest digest mod t.n)
  end
