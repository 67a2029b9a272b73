(** The one retry policy: a bound and a doubling backoff, shared by pool
    supervision, serve retries, recovery re-reads and breaker cooldowns.

    Pure: it reads no clock and never sleeps; callers act on the delay.
    Retry [k] (from 0) waits [base_s] doubled [k] times, capped at
    60 s; with jitter, that times a seeded factor in [\[1, 1.25)],
    capped again. *)

type t

val make : ?jitter_seed:int -> retries:int -> base_s:float -> unit -> t
(** At most [retries] retries after the first attempt.  [jitter_seed]
    seeds the jitter draws (one per {!delay}).  Raises [Invalid_argument]
    on negative [retries] or a negative or NaN [base_s]. *)

val delay : t -> attempt:int -> float
(** The wait before retry [attempt], without the bound check. *)

type decision =
  | Again of float  (** retry after this many seconds *)
  | Exhausted  (** [attempt] reached the bound *)
  | Expired  (** the budget expired *)

val next : ?budget:Budget.t -> t -> attempt:int -> decision
(** Asked after [attempt] retries: the bound is checked first, then
    [budget] is polled (running its expiry hooks), else [Again]. *)
