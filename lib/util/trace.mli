(** Structured tracing: nested spans with monotonic timestamps, recorded
    into per-domain buffers and exported as Chrome [trace_event] JSON
    (loadable in [chrome://tracing] / Perfetto) or a text summary.

    Disabled — the default, unless the [COMPASS_TRACE] environment
    variable is set to anything other than ["0"] or the empty string —
    every entry point is a single atomic load, so instrumented code pays
    nothing and behaves bit-identically to uninstrumented code.  Enabled,
    each {!with_span} records a Begin/End event pair into the calling
    domain's buffer; buffers register themselves globally on first use,
    so spans recorded by {!Pool} worker domains are merged into the
    export after the pool's phase join.

    Tracing is pure observation: it never draws randomness and never
    feeds back into the computation it wraps. *)

type phase =
  | Begin
  | End

type event = {
  name : string;
  phase : phase;
  ts : float;  (** seconds since {!enable}, monotone within a buffer *)
  tid : int;  (** recording domain's id *)
  args : (string * string) list;
}

val enabled : unit -> bool

val enable : ?clock:(unit -> float) -> unit -> unit
(** Turn tracing on.  [clock] (default [Unix.gettimeofday]) is sampled
    once as the trace epoch; all event timestamps are relative to it.
    Tests inject a deterministic clock to pin golden output. *)

val disable : unit -> unit
(** Turn tracing off.  Recorded events are kept until {!reset}. *)

val reset : unit -> unit
(** Drop all recorded events (all buffers, all domains).  Call only while
    no worker domain is inside an instrumented region. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span.  The End event is
    emitted even when [f] raises.  [args] attach key/value annotations to
    the Begin event.  When tracing is disabled this is exactly [f ()]. *)

val events : unit -> event list
(** All recorded events, merged across domain buffers and stably sorted
    by timestamp (same-timestamp events keep their per-buffer order). *)

val save_chrome : string -> unit
(** Atomically write the recorded events to a file as Chrome
    [trace_event] JSON: [{"traceEvents":[...]}] with one object per event
    carrying the fields [name], [cat], [ph] (["B"]/["E"]), [ts]
    (microseconds), [pid], [tid] and — Begin events only, when
    annotations were attached — [args].  Field names and order are pinned
    by a golden test; see docs/FORMATS.md. *)

val summary_table : unit -> Table.t
(** Per-name aggregates over all completed spans, largest total first:
    span, count, total, mean, max. *)
