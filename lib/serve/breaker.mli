(** Per-request-class circuit breakers.

    A class (one per request kind: [compile], [infer], [verify]) that
    keeps failing stops being worth executing: after [threshold]
    {e consecutive} failures the breaker {e opens} and requests of that
    class are rejected immediately — protecting the queue for classes
    that still work, and giving whatever is wrong (a failpoint storm, a
    poisoned model cache) time to clear.  After a cooldown the breaker
    goes {e half-open}: exactly one probe request is admitted, and its
    outcome decides — success closes the breaker, failure re-opens it
    with a doubled cooldown ({!Compass_util.Retry}: capped at 60 s, with
    a seeded jitter so a fleet of servers doesn't re-probe in lockstep;
    the draw sequence is deterministic for a given seed).

    Time comes from the injected [now] clock, so tests script the whole
    open → half-open → closed trajectory without sleeping.  Transitions
    surface as [serve.breaker.opened] / [.probes] / [.closed] /
    [.rejected] counters.  Single-domain use; not thread-safe. *)

type t

type decision =
  | Admit  (** breaker closed *)
  | Probe  (** cooldown over: this request is the half-open probe *)
  | Reject of string  (** open (or probe in flight); the reason, one line *)

val create :
  ?threshold:int -> ?cooldown_s:float -> ?seed:int -> now:(unit -> float) -> unit -> t
(** Defaults: threshold 5 consecutive failures, cooldown 1.0 s doubling
    per consecutive open up to the 60 s cap of {!Compass_util.Retry},
    jitter seeded with [seed] (default 0).  Raises [Invalid_argument] on
    a threshold < 1 or a negative or NaN cooldown. *)

val admit : t -> string -> decision
(** [admit t cls] — consult the breaker for one request of class [cls].
    [Reject] bumps [serve.breaker.rejected]. *)

val record : t -> string -> ok:bool -> unit
(** Report the outcome of an admitted (or probe) request of class
    [cls].  Success closes the class; failure counts toward the
    threshold, and fails an in-flight probe straight back to open. *)

val cancel_probe : t -> string -> unit
(** An admitted probe that never executed (shed at the admission queue,
    dropped at drain) must not leave its class stuck half-open with no
    outcome ever coming: re-open it with the cooldown already elapsed,
    so the next [admit] probes again.  No-op unless half-open. *)
