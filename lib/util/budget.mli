(** Deadline tokens for anytime search.

    A budget is a small mutable token threaded through long-running
    searches ([Ga.optimize], [Optimal.optimize], [Explore.sweep]).  The
    search polls {!expired} at evaluation granularity and, once the token
    expires, stops proposing new work and returns the best candidate found
    so far — tagged with a [budget_exhausted] flag — instead of raising or
    running unbounded.

    Time is read from an injectable clock (default [Unix.gettimeofday])
    and monotonized internally: observed time never decreases even when
    the underlying wall clock steps backwards, so an expired budget can
    never "un-expire".  Injecting a fake clock makes deadline behaviour
    deterministically testable without sleeping.

    Tokens are meant to be polled from the coordinating domain only (the
    GA proposes and collects on the main domain); they are not
    thread-safe counters. *)

type t

val of_deadline : ?now:(unit -> float) -> float -> t
(** [of_deadline seconds] expires [seconds] from now.  [?now] injects the
    clock (seconds as [float]; default [Unix.gettimeofday]).  Raises
    [Invalid_argument] when [seconds] is negative or NaN. *)

val on_expiry : t -> (unit -> unit) -> unit
(** [on_expiry t f] runs [f] once, at the first {!expired} poll that
    observes the token expired (i.e. on the polling domain, inside that
    poll).  A hook registered after the token already tripped runs
    immediately.  The serving runtime uses this to count per-request
    deadline expiries without polluting the polling sites. *)

val expired : t -> bool
(** Whether the token is past its deadline.  Sticky: once
    observed true it stays true, and the observation is recorded for
    {!exhausted}. *)

val exhausted : t -> bool
(** Whether {!expired} has ever been observed true on this token — i.e.
    whether some search was actually cut short by it.  A budget that was
    generous enough never trips this flag. *)
