type 'a t = {
  queue : 'a Queue.t;
  high : int;
  low : int;
  mutable shedding : bool;
}

let create ?(high = 64) ?low () =
  let low = match low with Some l -> l | None -> max 1 (high / 2) in
  if not (1 <= low && low <= high) then
    invalid_arg
      (Printf.sprintf "Admission.create: need 1 <= low (%d) <= high (%d)" low high);
  { queue = Queue.create (); high; low; shedding = false }

let depth t = Queue.length t.queue
let high t = t.high

let gauge t = Compass_util.Metrics.set "serve.queue_depth" (float_of_int (depth t))

let offer t x =
  if t.shedding && depth t < t.low then t.shedding <- false;
  if (not t.shedding) && depth t < t.high then begin
    Queue.push x t.queue;
    gauge t;
    true
  end
  else begin
    t.shedding <- true;
    Compass_util.Metrics.incr "serve.shed";
    false
  end

let pop t =
  match Queue.take_opt t.queue with
  | Some x ->
    if t.shedding && depth t < t.low then t.shedding <- false;
    gauge t;
    Some x
  | None -> None
