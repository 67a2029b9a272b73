type state =
  | Closed
  | Open of float  (* absolute time the cooldown ends *)
  | Half_open  (* probe admitted, outcome pending *)

type cls = {
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opens : int;  (* consecutive opens, drives cooldown doubling *)
}

type t = {
  threshold : int;
  cooldown : Compass_util.Retry.t;
  now : unit -> float;
  classes : (string, cls) Hashtbl.t;
}

let metric = Compass_util.Metrics.incr

let create ?(threshold = 5) ?(cooldown_s = 1.0) ?(seed = 0) ~now () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold < 1";
  (* Opens are unbounded: only the delay of the policy is used. *)
  let cooldown =
    Compass_util.Retry.make ~jitter_seed:seed ~retries:max_int ~base_s:cooldown_s ()
  in
  { threshold; cooldown; now; classes = Hashtbl.create 8 }

let find t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some c -> c
  | None ->
    let c = { state = Closed; consecutive_failures = 0; opens = 0 } in
    Hashtbl.add t.classes cls c;
    c

let open_class t cls_name c =
  let cooldown = Compass_util.Retry.delay t.cooldown ~attempt:c.opens in
  c.state <- Open (t.now () +. cooldown);
  c.opens <- c.opens + 1;
  metric "serve.breaker.opened";
  Compass_util.Trace.with_span "serve.breaker.open"
    ~args:[ ("class", cls_name) ]
    (fun () -> ())

type decision =
  | Admit
  | Probe
  | Reject of string

let admit t cls_name =
  let c = find t cls_name in
  match c.state with
  | Closed -> Admit
  | Half_open ->
    metric "serve.breaker.rejected";
    Reject (Printf.sprintf "circuit for %s half-open: probe in flight" cls_name)
  | Open until ->
    if t.now () >= until then begin
      c.state <- Half_open;
      metric "serve.breaker.probes";
      Probe
    end
    else begin
      metric "serve.breaker.rejected";
      Reject
        (Printf.sprintf "circuit for %s open: %d consecutive failure(s)" cls_name
           c.consecutive_failures)
    end

let record t cls_name ~ok =
  let c = find t cls_name in
  if ok then begin
    if c.state <> Closed || c.consecutive_failures > 0 then
      metric "serve.breaker.closed";
    c.state <- Closed;
    c.consecutive_failures <- 0;
    c.opens <- 0
  end
  else begin
    c.consecutive_failures <- c.consecutive_failures + 1;
    match c.state with
    | Half_open -> open_class t cls_name c (* failed probe: straight back open *)
    | Closed ->
      if c.consecutive_failures >= t.threshold then open_class t cls_name c
    | Open _ -> ()
  end

let cancel_probe t cls_name =
  let c = find t cls_name in
  match c.state with
  | Half_open -> c.state <- Open (t.now ())
  | Closed | Open _ -> ()
