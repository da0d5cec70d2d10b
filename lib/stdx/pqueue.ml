type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  (* dummy to fill the slack; never observed because [size] guards *)
  let dummy = t.data.(0) in
  let data = Array.make new_cap dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~priority ~seq value =
  let entry = { prio = priority; seq; value } in
  if t.size = Array.length t.data then
    if t.size = 0 then t.data <- Array.make 16 entry else grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.prio, top.seq, top.value)
  end

let peek t =
  if t.size = 0 then None
  else
    let top = t.data.(0) in
    Some (top.prio, top.seq, top.value)

let clear t = t.size <- 0
