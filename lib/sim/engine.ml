type t = {
  queue : (unit -> unit) Stdx.Pqueue.t;
  mutable clock : float;
  mutable seq : int;
  mutable executed : int;
}

let create () =
  { queue = Stdx.Pqueue.create (); clock = 0.0; seq = 0; executed = 0 }

let now t = t.clock

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  t.seq <- t.seq + 1;
  Stdx.Pqueue.push t.queue ~priority:time ~seq:t.seq f

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

(* Runs the next event unless the queue is empty or the event lies
   beyond [until]. The span covers the peek, the pop and the clock
   bookkeeping too, so profiled coverage charges the full per-event
   cost to the engine. *)
let dispatch t ~until =
  let sp = Prof.enter "engine.dispatch" in
  let stepped =
    try
      match Stdx.Pqueue.peek t.queue with
      | Some (time, _, _) when time > until ->
        t.clock <- until;
        false
      | _ -> (
        match Stdx.Pqueue.pop t.queue with
        | None -> false
        | Some (time, _, f) ->
          t.clock <- time;
          t.executed <- t.executed + 1;
          f ();
          true)
    with e -> Prof.leave_reraise sp e
  in
  Prof.leave sp;
  stepped

let step t = dispatch t ~until:infinity

let run t ?(max_events = max_int) ?(until = infinity) () =
  let rec loop count =
    if count < max_events && dispatch t ~until then loop (count + 1)
    else count
  in
  loop 0

let pending t = Stdx.Pqueue.length t.queue

let events_executed t = t.executed

let set_sampler t ~interval f =
  if interval <= 0.0 then invalid_arg "Engine.set_sampler: interval must be positive";
  let rec tick () =
    (* [pending] here excludes the sampler event itself (already popped) *)
    f ~time:t.clock ~executed:t.executed ~pending:(pending t);
    (* re-arm only while other work remains, so [run] still terminates *)
    if pending t > 0 then schedule t ~delay:interval tick
  in
  schedule t ~delay:interval tick
