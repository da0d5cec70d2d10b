type t = { keys : string array }

type signature = { signer : int; tag : string }

type quorum_cert = { message : string; signers : int list }

let setup ~rng ~n =
  let key _ =
    String.init 32 (fun _ -> Char.chr (Stdx.Rng.int rng 256))
  in
  { keys = Array.init n key }

let sign t ~signer msg =
  if signer < 0 || signer >= Array.length t.keys then
    invalid_arg "Auth.sign: bad signer";
  { signer; tag = Sha256.hmac ~key:t.keys.(signer) msg }

let verify t ~msg s =
  s.signer >= 0
  && s.signer < Array.length t.keys
  && String.equal s.tag (Sha256.hmac ~key:t.keys.(s.signer) msg)

let make_cert t ~threshold ~msg sigs =
  let valid = List.filter (verify t ~msg) sigs in
  let signers =
    List.sort_uniq compare (List.map (fun s -> s.signer) valid)
  in
  if List.length signers < threshold then None
  else Some { message = msg; signers }

let verify_cert t ~threshold cert =
  (* the authority checked the MACs when assembling; in the simulation a
     forged cert can only come from make_cert bypass, which we model as
     checking signer multiplicity and range *)
  List.length (List.sort_uniq compare cert.signers) >= threshold
  && List.for_all (fun i -> i >= 0 && i < Array.length t.keys) cert.signers
