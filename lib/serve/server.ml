open Compass_util
module Compiler = Compass_core.Compiler
module Plan_text = Compass_core.Plan_text
module Verify = Compass_core.Verify
module Fitness = Compass_core.Fitness
module Ga = Compass_core.Ga
module Executor = Compass_nn.Executor
module Tensor = Compass_nn.Tensor
module Shape = Compass_nn.Shape

type config = {
  queue_high : int;
  queue_low : int;
  default_deadline_s : float option;
  max_retries : int;
  retry_backoff_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  seed : int;
  jobs : int;
  clock : unit -> float;
}

let default_config =
  {
    queue_high = 64;
    queue_low = 32;
    default_deadline_s = None;
    max_retries = 2;
    retry_backoff_s = 0.01;
    breaker_threshold = 5;
    breaker_cooldown_s = 1.0;
    seed = 0;
    jobs = 1;
    clock = Unix.gettimeofday;
  }

type pending = {
  req : Protocol.request;
  admitted_at : float;
  budget : Budget.t option;
  probe : bool;
  attempt : int;  (* executions so far *)
}

type t = {
  cfg : config;
  respond : Protocol.response -> unit;
  queue : pending Admission.t;
  breaker : Breaker.t;
  retry : Retry.t;
  mutable deferred : (float * pending) list;  (* retries by due time *)
  pool : Pool.t option;
  mutable state : [ `Running | `Draining | `Closed ];
  mutable responses : int;
}

let create ?(config = default_config) ~respond () =
  if config.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  {
    cfg = config;
    respond;
    queue = Admission.create ~high:config.queue_high ~low:config.queue_low ();
    breaker =
      Breaker.create ~threshold:config.breaker_threshold
        ~cooldown_s:config.breaker_cooldown_s ~seed:config.seed ~now:config.clock ();
    retry = Retry.make ~retries:config.max_retries ~base_s:config.retry_backoff_s ();
    deferred = [];
    pool = (if config.jobs > 1 then Some (Pool.create ~jobs:config.jobs) else None);
    state = `Running;
    responses = 0;
  }

let pending t = Admission.depth t.queue + List.length t.deferred
let draining t = t.state = `Draining
let responded t = t.responses

let check_live t what =
  if t.state = `Closed then invalid_arg ("Server." ^ what ^ ": server is closed")

let emit t (resp : Protocol.response) =
  t.responses <- t.responses + 1;
  Metrics.incr "serve.responses";
  Metrics.incr ("serve.status." ^ Protocol.status_to_string resp.status);
  Metrics.observe "serve.latency_s" resp.elapsed_s;
  t.respond resp

let finish t ~id ~since status note body =
  emit t
    {
      Protocol.r_id = id;
      status;
      elapsed_s = Float.max 0. (t.cfg.clock () -. since);
      note = Option.map Protocol.one_line note;
      body;
    }

(* Best-effort id for answering blocks that failed to parse: trust the
   header token only when it has the id shape, else "-". *)
let header_id lines =
  match lines with
  | first :: _ -> (
    match
      String.split_on_char ' ' (String.trim first)
      |> List.filter (fun s -> s <> "")
    with
    | "request" :: id :: _ when Protocol.valid_id id -> id
    | _ -> "-")
  | [] -> "-"

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

(* User-class failures: bad names, bad payloads.  Never retried. *)
exception User_error of string

let user fmt = Printf.ksprintf (fun m -> raise (User_error m)) fmt

let lookup_model name =
  try Compass_nn.Models.by_name name
  with Not_found | Invalid_argument _ -> user "unknown model %s" name

let lookup_chip label =
  try Compass_arch.Config.by_label label
  with Not_found | Invalid_argument _ -> user "unknown chip %s" label

let body_of_plan plan =
  match List.rev (String.split_on_char '\n' (Plan_text.to_string plan)) with
  | "" :: rev -> List.rev rev
  | rev -> List.rev rev

let tensor_sum out =
  Array.fold_left ( +. ) 0. (Tensor.to_array out)

(* Digest over the exact bit patterns, so the soak test's byte-for-byte
   comparison inherits the executor's bit-identical guarantee. *)
let tensor_digest out =
  let data = Tensor.to_array out in
  let b = Buffer.create (8 * Array.length data) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let supervision_for t (p : pending) =
  Pool.supervision ~retries:t.cfg.max_retries ?watchdog:p.budget ()

let execute_kind t (p : pending) : Protocol.status * string option * string list =
  let req = p.req in
  match req.kind with
  | Protocol.Ping -> (Protocol.Ok, None, [ "pong" ])
  | Protocol.Compile ->
    let model = lookup_model req.model in
    let chip = lookup_chip req.chip in
    if req.batch < 1 then user "batch must be >= 1 (got %d)" req.batch;
    let scheme =
      try Compiler.scheme_of_string req.scheme
      with Invalid_argument m -> user "%s" m
    in
    let objective =
      try Fitness.objective_of_string req.objective
      with Invalid_argument m -> user "%s" m
    in
    let base = if req.quick then Ga.quick_params else Ga.default_params in
    let ga_params = { base with Ga.seed = req.seed; jobs = t.cfg.jobs } in
    let plan =
      Compiler.compile ~objective ~ga_params ?budget:p.budget
        ~supervision:(supervision_for t p) ~model ~chip ~batch:req.batch scheme
    in
    if plan.Compiler.budget_exhausted then
      ( Protocol.Degraded,
        Some "deadline expired mid-search: plan is best-so-far",
        body_of_plan plan )
    else (Protocol.Ok, None, body_of_plan plan)
  | Protocol.Infer ->
    let model = lookup_model req.model in
    if req.batch < 1 then user "batch must be >= 1 (got %d)" req.batch;
    let weights = Executor.random_weights ~seed:req.seed model in
    let inputs =
      Array.init req.batch (fun i ->
          Executor.random_input ~seed:(req.seed + 100 + i) model)
    in
    let outputs =
      Executor.output_batch ?budget:p.budget ?pool:t.pool
        ~supervision:(supervision_for t p) model weights inputs
    in
    let body =
      Array.to_list
        (Array.mapi
           (fun i out ->
             Printf.sprintf "output %d shape %s sum %s digest %s" i
               (Shape.to_string (Tensor.shape out))
               (Artifact.float_token (tensor_sum out))
               (tensor_digest out))
           outputs)
    in
    (Protocol.Ok, None, body)
  | Protocol.Verify ->
    if req.payload = [] then user "verify: missing payload (archived plan text)";
    let plan =
      try Plan_text.of_string (String.concat "\n" req.payload ^ "\n")
      with Located.Error e -> user "plan: %s" (Located.render e)
    in
    let violations = Verify.check plan in
    let body =
      Printf.sprintf "violations %d" (List.length violations)
      :: List.map Verify.render_violation violations
    in
    let note =
      if violations = [] then None
      else Some "plan violates invariants (see payload)"
    in
    (Protocol.Ok, note, body)

let transient_reason = function
  | Failpoint.Injected site -> Some ("failpoint at " ^ site)
  | Pool.Task_error { index; worker; attempts; error } ->
    Some
      (Printf.sprintf "pool task %d on worker %d failed after %d attempt(s): %s"
         index worker attempts (Printexc.to_string error))
  | Unix.Unix_error (e, fn, _) ->
    Some (Printf.sprintf "syscall %s: %s" fn (Unix.error_message e))
  | _ -> None

let execute t (p : pending) =
  let req = p.req in
  let cls = Protocol.kind_to_string req.kind in
  let finish status note body =
    finish t ~id:req.id ~since:p.admitted_at status note body;
    (* Pings bypass the breaker on admission, so don't feed it either. *)
    if req.kind <> Protocol.Ping then
      Breaker.record t.breaker cls ~ok:(status <> Protocol.Error)
  in
  let expired () =
    match p.budget with Some b -> Budget.expired b | None -> false
  in
  if expired () then finish Protocol.Timeout (Some "deadline expired while queued") []
  else
    Trace.with_span "serve.request"
      ~args:[ ("id", req.id); ("kind", cls) ]
      (fun () ->
        match
          Failpoint.guard "serve.request";
          execute_kind t p
        with
        | status, note, body -> finish status note body
        | exception Executor.Cancelled ->
          finish Protocol.Timeout
            (Some "deadline expired during inference (cancelled between layers)")
            []
        | exception User_error msg -> finish Protocol.Error (Some msg) []
        | exception e -> (
          match transient_reason e with
          | None -> finish Protocol.Error (Some (Printexc.to_string e)) []
          | Some reason -> (
            (* The deadline is polled before the retry bound. *)
            if expired () then
              finish Protocol.Timeout
                (Some ("deadline expired while retrying: " ^ reason))
                []
            else
              match Retry.next t.retry ~attempt:p.attempt with
              | Retry.Again delay ->
                Metrics.incr "serve.retries";
                (* Re-queued, not waited out: other work runs meanwhile. *)
                let retry = (t.cfg.clock () +. delay, { p with attempt = p.attempt + 1 }) in
                t.deferred <-
                  List.merge (fun (a, _) (b, _) -> Float.compare a b) t.deferred [ retry ]
              | Retry.Exhausted | Retry.Expired ->
                finish Protocol.Error
                  (Some
                     (Printf.sprintf "%s (gave up after %d attempt(s))" reason
                        (p.attempt + 1)))
                  [])))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let submit t lines =
  check_live t "submit";
  Metrics.incr "serve.requests";
  let now = t.cfg.clock () in
  match Protocol.parse_request lines with
  | Error msg -> finish t ~id:(header_id lines) ~since:now Protocol.Error (Some msg) []
  | Ok req ->
    if req.kind = Protocol.Ping then
      (* Health checks bypass the queue and the breaker: a drowning or
         draining server still answers them (with a telltale note). *)
      finish t ~id:req.id ~since:now Protocol.Ok
        (if t.state = `Draining then Some "draining" else None)
        [ "pong" ]
    else if t.state = `Draining then
      finish t ~id:req.id ~since:now Protocol.Rejected
        (Some "draining: not admitting new work")
        []
    else begin
      let cls = Protocol.kind_to_string req.kind in
      match Breaker.admit t.breaker cls with
      | Breaker.Reject reason ->
        finish t ~id:req.id ~since:now Protocol.Rejected (Some reason) []
      | (Breaker.Admit | Breaker.Probe) as decision ->
        let deadline =
          match req.deadline_s with
          | Some _ as d -> d
          | None -> t.cfg.default_deadline_s
        in
        let budget =
          Option.map
            (fun d ->
              let b = Budget.of_deadline ~now:t.cfg.clock d in
              Budget.on_expiry b (fun () -> Metrics.incr "serve.deadline_expired");
              b)
            deadline
        in
        let p =
          { req; admitted_at = now; budget; probe = decision = Breaker.Probe; attempt = 0 }
        in
        if not (Admission.offer t.queue p) then begin
          if p.probe then Breaker.cancel_probe t.breaker cls;
          finish t ~id:req.id ~since:now Protocol.Rejected
            (Some
               (Printf.sprintf "overloaded: queue at high watermark (%d)"
                  (Admission.high t.queue)))
            []
        end
    end

(* A due retry runs first, then the next admitted request; a retry
   still backing off runs early only when nothing else is queued, so
   [step] never waits. *)
let step t =
  check_live t "step";
  let next =
    match t.deferred with
    | (due, p) :: rest when Admission.depth t.queue = 0 || due <= t.cfg.clock () ->
      t.deferred <- rest;
      Some p
    | _ -> Admission.pop t.queue
  in
  match next with
  | None -> false
  | Some p ->
    execute t p;
    true

let retry_due t = match t.deferred with (due, _) :: _ -> Some due | [] -> None

let begin_drain t = if t.state = `Running then t.state <- `Draining

let drain t =
  check_live t "drain";
  begin_drain t;
  while step t do
    ()
  done

let close t =
  if t.state <> `Closed then begin
    Option.iter Pool.shutdown t.pool;
    t.state <- `Closed
  end

(* ------------------------------------------------------------------ *)
(* Wire loop                                                           *)

let run_fd t ?(idle_timeout_s = 0.05) ~stop fd =
  check_live t "run_fd";
  let framer = Protocol.Framer.create () in
  let carry = Buffer.create 256 in
  let buf = Bytes.create 4096 in
  let feed_chunk s =
    String.iter
      (fun ch ->
        if ch = '\n' then begin
          let line = Buffer.contents carry in
          Buffer.clear carry;
          match Protocol.Framer.feed framer line with
          | Some block -> submit t block
          | None -> ()
        end
        else if ch <> '\r' then Buffer.add_char carry ch)
      s
  in
  let readable timeout =
    match Unix.select [ fd ] [] [] timeout with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  let torn_eof () =
    if Protocol.Framer.partial framer || Buffer.length carry > 0 then
      emit t
        {
          Protocol.r_id = "-";
          status = Protocol.Error;
          elapsed_s = 0.;
          note = Some "truncated request block at end of input";
          body = [];
        }
  in
  let rec loop () =
    if stop () then `Stopped
    else if readable 0. then begin
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
        torn_eof ();
        `Eof
      | n ->
        feed_chunk (Bytes.sub_string buf 0 n);
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
    else begin
      (* The one place a retry's backoff is waited out. *)
      let wait =
        if Admission.depth t.queue > 0 then 0.
        else Option.fold ~none:infinity ~some:(fun due -> due -. t.cfg.clock ()) (retry_due t)
      in
      if wait <= 0. then ignore (step t) else ignore (readable (Float.min wait idle_timeout_s));
      loop ()
    end
  in
  loop ()
