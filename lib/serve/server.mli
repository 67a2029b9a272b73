(** The resilient serving engine.

    A long-lived request loop over the COMPASS compiler: clients submit
    framed {!Protocol} request blocks ([compile] / [infer] / [verify] /
    [ping]); the server admits them through a bounded {!Admission}
    queue and a per-class {!Breaker}, executes them with a per-request
    {!Compass_util.Budget} deadline, retries transient failures
    ([Failpoint.Injected], simulated syscall errors, pool task crashes)
    with the bounded doubling backoff of {!Compass_util.Retry}, and
    answers {e every} submitted request with exactly one response
    envelope — including malformed ones, shed ones, and ones still
    queued when the server drains.

    A retry waits in the queue, not in the loop: other work runs during
    its backoff, and only {!run_fd} ever waits.

    The engine itself is single-domain and synchronous ([submit] +
    [step]), so its behaviour under an injected clock and a seeded
    failpoint schedule is fully deterministic: the test suite scripts
    watermark shedding, deadline expiry, retry deferral, the breaker's
    open → half-open → closed trajectory and SIGTERM-style drains
    without sleeping, and a chaos soak pins that successful responses
    are byte-identical to a clean run.  Parallelism lives {e inside}
    requests: GA evaluation and batched inference fan out onto a
    supervised {!Compass_util.Pool} owned by the server.

    Request statuses:
    - [ok] — completed within its deadline;
    - [degraded] — a compile whose deadline expired mid-search: the
      response carries the best-so-far plan (still valid and
      verifiable), not the full search's answer;
    - [timeout] — the deadline expired while queued or between
      inference layers; work was cancelled, no payload;
    - [rejected] — shed at the watermark, breaker-open, or draining;
      no work was started;
    - [error] — malformed request, unknown names, or an execution
      failure that survived retrying.

    Observability: [serve.requests], [serve.responses],
    [serve.status.<status>], [serve.shed], [serve.retries],
    [serve.deadline_expired], [serve.queue_depth] (gauge),
    [serve.latency_s] (histogram → [.count]/[.p50]/[.p99]) and the
    [serve.breaker.*] counters, plus a [serve.request] trace span per
    execution attempt.  Failpoint site: [serve.request] (fires once per
    execution attempt). *)

type config = {
  queue_high : int;  (** shed at this queue depth (default 64) *)
  queue_low : int;  (** resume admitting below this depth (default 32) *)
  default_deadline_s : float option;
      (** applied when a request carries no [deadline] (default none) *)
  max_retries : int;  (** transient re-executions per request (default 2) *)
  retry_backoff_s : float;  (** initial backoff, doubles per retry, up to 60 s *)
  breaker_threshold : int;  (** consecutive failures before opening *)
  breaker_cooldown_s : float;  (** initial open cooldown *)
  seed : int;  (** breaker jitter seed *)
  jobs : int;  (** worker domains for in-request parallelism *)
  clock : unit -> float;  (** injectable time source *)
}

val default_config : config

type t

val create : ?config:config -> respond:(Protocol.response -> unit) -> unit -> t
(** [respond] is invoked exactly once per submitted request, on the
    engine's domain, in completion order.  Raises [Invalid_argument] on
    [jobs < 1] or a retry policy {!Compass_util.Retry.make} rejects. *)

val submit : t -> string list -> unit
(** Submit one framed request block (lines as {!Protocol.Framer.feed}
    returned them).  Parse failures, drains, breaker rejections and
    watermark sheds are answered immediately; admitted requests are
    answered by a later {!step}. *)

val step : t -> bool
(** Execute one queued request; [false] when nothing is queued.  A due
    retry runs first, then the next admitted request; a retry still
    backing off runs early only when nothing else is queued. *)

val pending : t -> int
(** Admitted requests plus retries awaiting their backoff. *)

val retry_due : t -> float option
(** When the earliest queued retry's backoff ends, on the config clock;
    [None] when no retry is queued. *)

val draining : t -> bool

val begin_drain : t -> unit
(** Stop admitting: every later [submit] answers [rejected] with a
    [draining] note.  Queued work is untouched — callers finish it with
    {!step}/{!drain}, deadlines still applying, so a drain bounded by
    request deadlines cannot hang. *)

val drain : t -> unit
(** {!begin_drain} + run every queued request to its response.  Retries
    give up whatever backoff remains and run at once. *)

val close : t -> unit
(** Shut the worker pool down.  Idempotent; [submit]/[step] after
    [close] raise [Invalid_argument]. *)

val responded : t -> int
(** Responses emitted so far (the no-lost-request accounting). *)

val run_fd :
  t ->
  ?idle_timeout_s:float ->
  stop:(unit -> bool) ->
  Unix.file_descr ->
  [ `Eof | `Stopped ]
(** The wire loop: read request blocks from a file descriptor, feeding
    complete blocks to {!submit} and interleaving {!step} whenever no
    input is immediately available — so queued work proceeds while the
    client thinks, and a pipelined burst actually exercises the
    admission queue.  Returns on end-of-input ([`Eof]) or when [stop]
    first observes true ([`Stopped], the signal-driven drain; polled
    between reads).  A torn trailing block is answered with an [error]
    envelope — even EOF mid-request leaks no response.  The caller
    still runs {!drain} afterwards.  While only backing-off retries are
    queued it reads input until the earliest is due.  [idle_timeout_s]
    (default 0.05) bounds each select wait. *)
