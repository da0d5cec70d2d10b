type report = {
  total : int;
  correct_entries : int;
  worst_prefix_len : int;
  worst_prefix_ratio : float;
  holds : bool;
}

let audit ~f ~correct ~sources =
  let quorum = (2 * f) + 1 in
  let need_per_quorum = f + 1 in
  let total = List.length sources in
  let correct_entries =
    List.length (List.filter correct sources)
  in
  let holds = ref true in
  let worst_len = ref 0 and worst_ratio = ref 1.0 in
  let seen = ref 0 and seen_correct = ref 0 in
  List.iter
    (fun src ->
      incr seen;
      if correct src then incr seen_correct;
      if !seen mod quorum = 0 then begin
        let r = !seen / quorum in
        let ratio = float_of_int !seen_correct /. float_of_int !seen in
        if ratio < !worst_ratio then begin
          worst_ratio := ratio;
          worst_len := !seen
        end;
        if !seen_correct < need_per_quorum * r then holds := false
      end)
    sources;
  { total;
    correct_entries;
    worst_prefix_len = !worst_len;
    worst_prefix_ratio = (if !worst_len = 0 then 1.0 else !worst_ratio);
    holds = !holds }
