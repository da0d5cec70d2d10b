(* Tests for the distributed key generation ceremony (the paper's §2
   trusted-dealer relaxation): keys aggregate to one degree-f sharing,
   the derived coin works, share recovery handles withheld deals, and
   silent dealers are excluded. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type ceremony = {
  engine : Sim.Engine.t;
  net : Adkg.msg Net.Network.t;
  counters : Metrics.Counters.t;
  parties : Adkg.t array;
  keys : int option array;
  quals : int list option array;
}

let make_ceremony ?(seed = 3) ?(n = 4) ?(sched_wrap = fun s -> s)
    ?(mute = []) ?(start = true) () =
  let f = (n - 1) / 3 in
  let rng = Stdx.Rng.create seed in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = sched_wrap (Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng)) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let vaba_net = Net.Network.create ~engine ~sched ~counters ~n in
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.split rng) ~n in
  let bootstrap_coin =
    Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.split rng) ~n ~f
  in
  let keys = Array.make n None in
  let quals = Array.make n None in
  let parties =
    Array.init n (fun me ->
        Adkg.create ~net ~vaba_net ~auth ~bootstrap_coin
          ~rng:(Stdx.Rng.split rng) ~me ~f
          ~on_key:(fun ~key ~qualified ->
            keys.(me) <- Some key;
            quals.(me) <- Some qualified)
          ())
  in
  Array.iteri
    (fun i p ->
      if List.mem i mute then begin
        Net.Network.register net i (fun ~src:_ _ -> ());
        Net.Network.register vaba_net i (fun ~src:_ _ -> ())
      end
      else if start then Adkg.start p)
    parties;
  { engine; net; counters; parties; keys; quals }

let run c = ignore (Sim.Engine.run c.engine ~until:500.0 ())

let test_happy_path_all_keys () =
  let c = make_ceremony ~n:4 () in
  run c;
  Array.iteri
    (fun i k -> checkb (Printf.sprintf "p%d has key" i) true (k <> None))
    c.keys;
  (* everyone decided the same qualified set *)
  let qs = Array.to_list c.quals |> List.filter_map Fun.id in
  checki "all reported" 4 (List.length qs);
  checki "identical sets" 1 (List.length (List.sort_uniq compare qs));
  checkb "at least f+1 dealers" true (List.length (List.hd qs) >= 2)

let test_keys_form_degree_f_sharing () =
  let n = 4 and f = 1 in
  let c = make_ceremony ~n () in
  run c;
  let keys = Array.map Option.get c.keys in
  let q = Option.get c.quals.(0) in
  (* expected master secret: sum of qualified dealers' polynomial
     constants (exposed by the testing hook) *)
  let expected =
    List.fold_left
      (fun acc dealer ->
        match Adkg.derived_secret c.parties.(dealer) with
        | Some s -> Crypto.Field.add acc (Crypto.Field.of_int s)
        | None -> Alcotest.fail "qualified dealer lacks secret")
      0 q
  in
  (* every (f+1)-subset of keys interpolates to the same master secret *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let secret =
        Crypto.Field.lagrange_at_zero [ (i + 1, keys.(i)); (j + 1, keys.(j)) ]
      in
      checki (Printf.sprintf "pair (%d,%d)" i j) expected secret
    done
  done;
  ignore f

let test_derived_coin_works () =
  let n = 4 and f = 1 in
  let c = make_ceremony ~n () in
  run c;
  let keys = Array.map Option.get c.keys in
  let coin = Crypto.Threshold_coin.of_keys ~n ~f ~keys in
  (* shares verify and any f+1 subset elects the same leader *)
  let shares =
    List.init n (fun holder ->
        Crypto.Threshold_coin.make_share coin ~holder ~instance:7)
  in
  List.iter
    (fun s -> checkb "share verifies" true (Crypto.Threshold_coin.verify_share coin s))
    shares;
  let expected =
    Crypto.Threshold_coin.combine coin ~instance:7
      (List.filteri (fun i _ -> i < 2) shares)
  in
  checkb "resolves" true (expected <> None);
  for offset = 1 to 2 do
    let subset = List.filteri (fun i _ -> i >= offset && i < offset + 2) shares in
    checkb "agreement" true
      (Crypto.Threshold_coin.combine coin ~instance:7 subset = expected)
  done

let test_share_recovery_path () =
  (* dealer p0's private deal to p3 is delayed 2000x: p3 must finish via
     the recovery protocol long before that message lands *)
  let sched_wrap inner =
    Net.Sched.delay_matching ~inner
      ~pred:(fun ~src ~dst ~kind -> kind = "adkg-deal" && src = 0 && dst = 3)
      ~factor:2000.0
  in
  let c = make_ceremony ~seed:5 ~n:4 ~sched_wrap () in
  ignore (Sim.Engine.run c.engine ~until:400.0 ());
  (match c.quals.(3) with
  | Some q when List.mem 0 q ->
    (* p3 needed dealer 0's share and could not have received the deal *)
    checkb "p3 recovered its share" true (c.keys.(3) <> None)
  | Some _ ->
    (* dealer 0 not qualified on this seed: recovery not exercised;
       still expect completion *)
    checkb "p3 finished" true (c.keys.(3) <> None)
  | None -> Alcotest.fail "p3 never finished (recovery failed)");
  (* and the sharing is still consistent *)
  let keys = Array.map Option.get c.keys in
  let s01 = Crypto.Field.lagrange_at_zero [ (1, keys.(0)); (2, keys.(1)) ] in
  let s23 = Crypto.Field.lagrange_at_zero [ (3, keys.(2)); (4, keys.(3)) ] in
  checki "recovered key on the same polynomial" s01 s23

let test_silent_dealers_excluded () =
  let n = 7 in
  let c = make_ceremony ~seed:8 ~n ~mute:[ 5; 6 ] () in
  run c;
  for i = 0 to 4 do
    checkb (Printf.sprintf "p%d finished" i) true (c.keys.(i) <> None);
    match c.quals.(i) with
    | Some q ->
      checkb "silent dealers not qualified" true
        (not (List.mem 5 q || List.mem 6 q))
    | None -> Alcotest.fail "no qualified set"
  done;
  (* the sharing among live parties is consistent *)
  let k i = Option.get c.keys.(i) in
  let a =
    Crypto.Field.lagrange_at_zero [ (1, k 0); (2, k 1); (3, k 2) ]
  in
  let b =
    Crypto.Field.lagrange_at_zero [ (3, k 2); (4, k 3); (5, k 4) ]
  in
  checki "consistent sharing" a b

let test_determinism () =
  let result seed =
    let c = make_ceremony ~seed ~n:4 () in
    run c;
    (Array.map Option.get c.keys, Option.get c.quals.(0))
  in
  checkb "same seed same ceremony" true (result 11 = result 11);
  (* different seeds give different keys (overwhelmingly) *)
  let k1, _ = result 11 and k2, _ = result 12 in
  checkb "different seeds differ" true (k1 <> k2)

let test_many_seeds_complete () =
  List.iter
    (fun seed ->
      let c = make_ceremony ~seed ~n:4 () in
      run c;
      Array.iteri
        (fun i k ->
          checkb (Printf.sprintf "seed %d p%d key" seed i) true (k <> None))
        c.keys)
    [ 20; 21; 22; 23; 24; 25 ]

let test_ack_dealers_out_of_range () =
  (* 2f+1 Acks for dealers 4 and -1, which do not exist, must not
     certify them: f+1 certified dealers would start p3's VABA on a
     proposal no party accepts. Acks for two real dealers do start it.
     Nobody is started, so the only traffic is what the test injects *)
  let c = make_ceremony ~n:4 ~start:false () in
  let acks dealers =
    List.iter
      (fun dealer ->
        List.iter
          (fun src ->
            Net.Network.send c.net ~src ~dst:3 ~kind:"adkg-ack" ~bits:128
              (Adkg.Ack { dealer }))
          [ 0; 1; 2 ])
      dealers;
    run c;
    List.mem_assoc "vaba-stage" (Metrics.Counters.bits_by_kind c.counters)
  in
  checkb "dealers outside [0, n) are not certified" false (acks [ 4; -1 ]);
  checkb "two real dealers are" true (acks [ 0; 1 ])

let () =
  Alcotest.run "adkg"
    [ ( "ceremony",
        [ Alcotest.test_case "happy path" `Quick test_happy_path_all_keys;
          Alcotest.test_case "degree-f sharing" `Quick test_keys_form_degree_f_sharing;
          Alcotest.test_case "derived coin" `Quick test_derived_coin_works;
          Alcotest.test_case "share recovery" `Quick test_share_recovery_path;
          Alcotest.test_case "silent dealers excluded" `Quick
            test_silent_dealers_excluded;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "ack dealers out of range" `Quick
            test_ack_dealers_out_of_range;
          Alcotest.test_case "many seeds" `Slow test_many_seeds_complete ] )
    ]
