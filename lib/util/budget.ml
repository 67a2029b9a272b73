type t = {
  now : unit -> float;
  deadline : float;  (* absolute, on [now]'s clock *)
  mutable last : float;  (* monotonization watermark *)
  mutable tripped : bool;
  mutable hooks : (unit -> unit) list;  (* run once, at the tripping poll *)
}

let of_deadline ?(now = Unix.gettimeofday) seconds =
  (* [not (>=)] also rejects NaN. *)
  if not (seconds >= 0.) then invalid_arg "Budget.of_deadline: negative or NaN deadline";
  let t0 = now () in
  { now; deadline = t0 +. seconds; last = t0; tripped = false; hooks = [] }

let on_expiry t f = if t.tripped then f () else t.hooks <- f :: t.hooks

(* Clock reads never move backwards: a wall-clock step back must not
   resurrect an expired deadline mid-search. *)
let clock t =
  let raw = t.now () in
  let v = if raw > t.last then raw else t.last in
  t.last <- v;
  v

let expired t =
  let e = t.tripped || clock t >= t.deadline in
  if e && not t.tripped then begin
    t.tripped <- true;
    let hooks = t.hooks in
    t.hooks <- [];
    (* Registration order; a hook that raises aborts the poll like any
       exception at the polling site would. *)
    List.iter (fun f -> f ()) (List.rev hooks)
  end;
  e

let exhausted t = t.tripped
