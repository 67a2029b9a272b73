(** The serving wire protocol: newline-delimited request and response
    blocks, reusing the token conventions of [Plan_text]/[Model_text]
    (one [key value] pair per line, floats via
    {!Compass_util.Artifact.float_token} so they round-trip
    bit-exactly).

    A request block:

    {v
    request <id> <kind>        kind: compile | infer | verify | ping
    model resnet18             (compile/infer; zoo name)
    chip S                     (compile; S, M or L)
    batch 4
    scheme compass             (compile; compass/greedy/layerwise/dp)
    objective latency
    deadline 2.5               (seconds; optional)
    seed 7                     (infer weights/input seed)
    quick false                (compile; full GA instead of quick params)
    payload 3                  (verify; next 3 lines are raw payload)
    <raw line 1>
    <raw line 2>
    <raw line 3>
    end
    v}

    Every line before [end] except raw payload lines is a [key value]
    pair; unknown keys are a parse error (better a located rejection
    than a silently ignored typo).  The [payload <n>] line switches the
    framer into counted raw mode, so payload lines — archived plan text
    for [verify] — can contain anything, including ["end"].

    A response block mirrors the shape; the grammar is documented in
    docs/FORMATS.md and pinned by tests:

    {v
    response <id> <status>     status: ok | degraded | rejected |
    elapsed 0.0021                     timeout | error
    note <one-line diagnostic> (optional)
    payload <n>                (optional)
    <n raw lines>
    end
    v}

    Parsing never raises on malformed input — both directions return
    [result] with a located one-line diagnostic — so a hostile client
    cannot crash the daemon with a bad block. *)

type kind =
  | Compile
  | Infer
  | Verify
  | Ping

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val valid_id : string -> bool
(** 1–64 chars of [A-Za-z0-9._:-] — the token shape request ids must
    have (no spaces, so ids never break the line grammar). *)

type request = {
  id : string;  (** client-chosen token; echoed on the response *)
  kind : kind;
  model : string;
  chip : string;
  batch : int;
  scheme : string;
  objective : string;
  deadline_s : float option;
  seed : int;
  quick : bool;
  payload : string list;
}

val default_request : request
(** [ping] with id ["-"], model [lenet5], chip [S], batch 1, scheme
    [compass], objective [latency], no deadline, seed 0, quick. *)

val parse_request : string list -> (request, string) result
(** Parse one framed block (the lines {!Framer.feed} returned,
    including the [request] header, excluding the [end] line).  [Error]
    carries a one-line diagnostic prefixed with ["line N: "] where
    possible. *)

val request_to_lines : request -> string list
(** Render a request as a block (including the trailing [end]) — the
    client side, used by tests and the tutorial example. *)

type status =
  | Ok  (** completed within its deadline *)
  | Degraded  (** deadline expired mid-search; payload is best-so-far *)
  | Rejected  (** load-shed, breaker-open, or draining — no work done *)
  | Timeout  (** deadline expired before useful work completed *)
  | Error  (** malformed request or failed execution *)

val status_to_string : status -> string
val status_of_string : string -> status option

type response = {
  r_id : string;
  status : status;
  elapsed_s : float;  (** admission-to-response, on the server's clock *)
  note : string option;  (** one-line diagnostic, never multi-line *)
  body : string list;  (** raw payload lines *)
}

val one_line : string -> string
(** Collapse embedded newlines to spaces, so a diagnostic stays one line
    of the envelope. *)

val response_to_string : response -> string
(** The full block, [end]-terminated, newline-terminated. *)

val parse_response : string -> (response, string) result
(** Client-side parse of one response block (with or without the
    trailing [end]/newline). *)

(** Incremental framing of request blocks from a line stream.  The
    framer owns the payload-counting state, so the wire loop can feed
    lines as they arrive and gets back exactly one complete block per
    [end]. *)
module Framer : sig
  type t

  val create : unit -> t

  val feed : t -> string -> string list option
  (** Feed one line (without its newline).  Returns [Some block] — the
      accumulated lines, excluding the terminating [end] — when the line
      completes a block.  Blank lines between blocks are ignored. *)

  val partial : t -> bool
  (** Whether a block is currently mid-accumulation (a torn final
      request at EOF is detectable, and answerable, by the caller). *)
end
