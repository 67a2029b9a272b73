(** A persistent domain pool for data-parallel array operations, with
    optional supervision of failing tasks.

    The compiler's hot path — GA fitness evaluation — is embarrassingly
    parallel across individuals.  A pool owns [jobs - 1] worker domains
    (the calling domain participates as the extra worker) that persist
    across calls, so per-generation dispatch costs a mutex round-trip
    rather than a domain spawn.  At [jobs = 1] no domains are spawned and
    every operation degrades to the plain sequential equivalent.

    Work items are pulled from a shared atomic counter, so scheduling is
    nondeterministic — but results are written back by index and every
    operation preserves input order, which keeps callers deterministic as
    long as [f] is pure (or keeps its effects in the per-domain state of
    [map_init]).

    Exceptions raised by [f] are caught on the worker and carried as
    {!Task_error} diagnostics naming the task index and worker.  Without
    supervision the failure at the {e lowest} input index is re-raised on
    the caller once the phase has drained — deterministic for any worker
    count.  With {!supervision}, failed tasks are first re-executed on
    the calling domain in index order (bounded retries, optional
    {!Budget} watchdog); since a pure [f] returns the same value on
    retry, a recovered run is indistinguishable from an unfailed one.

    Every task execution passes the [pool.task] failpoint site
    ({!Failpoint.guard}), so chaos schedules can crash workers on
    demand.  Supervision is observable: every task failure bumps the
    [pool.task_errors] counter and every supervised re-execution bumps
    [pool.retries] ({!Metrics}), so recovery shows up in [--metrics]
    output instead of happening silently. *)

type t

exception
  Task_error of {
    index : int;  (** input-array index of the failed task *)
    worker : int;  (** domain id the {e original} failure occurred on *)
    attempts : int;  (** executions attempted, including the first *)
    error : exn;  (** the underlying exception, unwrapped *)
  }
(** A task failure, located: which task, which worker, how many attempts.
    When several tasks fail in one phase, the lowest index is raised. *)

type supervision
(** A recovery policy for failing tasks. *)

val supervision : ?retries:int -> ?watchdog:Budget.t -> unit -> supervision
(** [supervision ?retries ?watchdog ()] re-executes each failed task up
    to [retries] more times (default 2) on the calling domain, in index
    order.  If [watchdog] is given and expires, remaining retries are
    abandoned and the failure surfaces immediately.  Raises
    [Invalid_argument] on negative [retries]; [retries:0] just converts
    worker crashes into located {!Task_error}s without re-execution. *)

val resolve_jobs : int -> int
(** [resolve_jobs n] turns a requested worker count into a usable one:
    [0] means [Domain.recommended_domain_count ()], and every count is
    clamped to at most 128.  Raises [Invalid_argument] when [n < 0]. *)

val default_jobs : unit -> int
(** The worker count selected by the environment: [COMPASS_JOBS] passed
    through {!resolve_jobs}, and [1] when unset, negative or malformed.
    Read on every call. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains.  Raises
    [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val map : ?supervision:supervision -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] is [Array.map f xs], evaluated on all domains of the
    pool.  Results are in input order. *)

val map_init :
  ?supervision:supervision ->
  t ->
  init:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a array ->
  'b array * 's list
(** [map_init t ~init ~f xs] is [map] with per-domain local state: each
    domain that processes at least one item calls [init] once (per
    [map_init] call) and threads its state through every item it runs.
    Returns the mapped array (input order) and the local states (order
    unspecified) for the caller to merge — the GA uses this for
    domain-local span caches.  Supervised retries run with a fresh state
    of their own, returned like any worker's. *)

val map_local :
  ?supervision:supervision ->
  t ->
  init:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a array ->
  'b array
(** {!map_init} for per-domain state the caller does not need back —
    scratch buffers, caches whose contents are pure optimization.  The
    batched inference executor uses this for per-domain im2col patch
    buffers. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; using the pool after
    shutdown raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'r) -> 'r
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on
    exit, including on exceptions. *)
