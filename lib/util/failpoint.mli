(** Deterministic fault injection ("failpoints") for chaos testing.

    Long-running compilation and search must survive a hostile host:
    crashing pool workers, torn checkpoint writes, [ENOSPC] mid-save.
    This module lets tests and drills inject exactly those failures at
    named {e sites} in library hot paths, on a reproducible schedule.

    Disabled — the default, unless the [COMPASS_FAILPOINTS] environment
    variable carries a schedule — every {!guard} is a single atomic
    load, so guarded code pays nothing and behaves bit-identically to
    unguarded code (pinned by the bench [chaos] section's <1% budget).
    Armed, firing decisions are made under a global mutex, so hit
    counters and seeded draws are race-free across worker domains.

    {2 Schedule grammar}

    {v
    spec    ::= clause (";" clause)*
    clause  ::= site "=" action ("@" trigger)?
    action  ::= "raise"                  raise Injected site
              | "enospc" | "eintr" | "eio"
                                         raise Unix.Unix_error (simulated syscall)
              | "truncate:" BYTES        keep only BYTES bytes (guard_write sites)
              | "delay:" MILLISECONDS    sleep (wedge simulation)
    trigger ::= "once"                   first hit only (the default)
              | "always"                 every hit
              | "nth:" K                 the K-th hit only (1-based)
              | "every:" K               every K-th hit
              | "prob:" P ":" SEED       seeded Bernoulli(P) per hit
    v}

    A site in a clause may end in ['*'], matching every site with that
    prefix (e.g. [artifact.*=enospc]).  The first matching rule that
    fires wins.  The site catalogue lives in docs/FORMATS.md. *)

exception Injected of string
(** Raised by a site armed with the [raise] action; carries the site
    name.  Deliberately not an [Invalid_argument]: an injected crash is
    an environment failure, and callers (the CLI guard, the supervised
    pool) treat it like one. *)

val set : string -> unit
(** Parse and arm a schedule, replacing the previous one and resetting
    all hit counters.  The empty (or blank) spec disarms, like {!clear}.
    Raises {!Located.Error} at the offending token's column (line 1) on
    a malformed spec; the caller names the spec's source. *)

val clear : unit -> unit
(** Disarm all failpoints and reset hit counters. *)

val with_schedule : string -> (unit -> 'a) -> 'a
(** [with_schedule spec f] arms [spec], runs [f], and restores the
    previously-armed schedule (or disarms) afterwards, even on
    exceptions.  Restoring re-parses the previous spec, so its hit
    counters restart from zero. *)

val guard : string -> unit
(** [guard site] marks a fail site.  Disarmed: a no-op (one atomic
    load).  Armed: may raise {!Injected} or [Unix.Unix_error], or sleep,
    according to the first matching rule that fires. *)

val guard_write : string -> string -> string
(** [guard_write site payload] marks a fail site on a write path.  Like
    {!guard}, but a [truncate:N] rule returns only the first [N] bytes
    of [payload] — the caller then writes a torn artifact, which is
    exactly what salvage paths are tested against.  Disarmed, returns
    [payload] unchanged. *)

val hits : string -> int
(** [hits pattern] sums the guard invocations observed since the
    schedule was armed (counted whether or not any rule fired) at every
    site [pattern] names: an exact site, or a prefix ending in ['*'] as
    in schedules ([hits "*"] counts every site).  Always 0 while
    disarmed. *)

val fired : unit -> (string * int) list
(** Rules that fired at least once: [(rule site, fire count)]. *)
