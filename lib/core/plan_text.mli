(** Plan and checkpoint serialization.

    A compiled plan is fully determined by (model, chip, batch, objective,
    scheme, partition cuts): everything else — replication, mapping,
    estimates — is recomputed deterministically.  This module stores that
    tuple in a small line-oriented format so expensive GA searches can be
    archived and reloaded:

    {v
    compass-plan 1
    model resnet18
    chip M
    batch 16
    objective latency
    scheme compass
    cuts 0 11 21 29 54 82 84
    v}

    The model is referenced by zoo name; plans for custom graphs embed the
    model inline after a [model-text] marker using [Model_text].

    All [save]* functions are crash-safe: the bytes go to a temporary file
    in the destination directory which is atomically renamed over the
    target, so a crash mid-write never leaves a truncated artifact — the
    old file (or no file) survives intact.  All loads produce located
    {!Compass_util.Located.Error} diagnostics (line, and the offending
    token's column) instead of escaping [Failure]/[Scanf] exceptions,
    including for truncated files and version-header mismatches; loads
    from a path name it. *)

val to_string : Compiler.t -> string

val save : string -> Compiler.t -> unit
(** [save path plan] writes [to_string plan] atomically (temp file +
    rename).  Raises [Sys_error] on I/O failure; the destination is never
    left half-written. *)

exception Load_error of Compass_util.Located.t
(** An alias of {!Compass_util.Located.Error}, the error every loader
    below raises. *)

val of_string : string -> Compiler.t
(** Rebuild the plan: re-derives units, validity, dataflow and estimates
    for the stored cuts.  Raises {!Compass_util.Located.Error} on
    malformed input, unknown model/chip names, version-header mismatches,
    or cuts that do not match the decomposition (e.g. the file was
    produced for different hardware).
    The rebuilt plan has [ga = None], [dp = None] and
    [budget_exhausted = false] — search provenance is not archived. *)

val load : string -> Compiler.t
(** [load path] reads and parses a file.  Raises
    {!Compass_util.Located.Error} as {!of_string}, naming [path], or
    [Sys_error] if the file cannot be read. *)

(** {1 GA checkpoints}

    {!Ga.checkpoint} values serialize to a strictly line-ordered text
    format with a ["compass-ga-checkpoint 1"] header.  Floats are written
    in full precision (shortest round-tripping decimal, hex-float
    fallback), so a saved-and-reloaded checkpoint resumes bit-identically
    (the {!Ga.optimize} resume contract).  The format is documented in
    [docs/FORMATS.md]. *)

val checkpoint_to_string : Ga.checkpoint -> string

val checkpoint_of_string : string -> Ga.checkpoint
(** Raises {!Compass_util.Located.Error} on truncated, corrupt or
    version-mismatched input.  Note the checkpoint's partitions are not
    validated against any model here — {!Ga.optimize} re-validates them
    against its validity map on resume. *)

val save_checkpoint : string -> Ga.checkpoint -> unit
(** Atomic, like {!save}. *)

val load_checkpoint : string -> Ga.checkpoint
(** Raises {!Compass_util.Located.Error} as {!checkpoint_of_string},
    naming [path], or [Sys_error]. *)

val append_checkpoint : string -> Ga.checkpoint -> unit
(** [append_checkpoint path ck] appends a checkpoint block to a journal
    file (durable append, {!Compass_util.Artifact.append_durable}).  A
    crash mid-append tears only the final block; {!salvage_checkpoint}
    recovers the newest complete one. *)

(** {1 Salvage}

    Recovery from torn checkpoints — a file truncated by a crash
    mid-write, or a journal whose final append was interrupted. *)

type salvage = {
  recovered : Ga.checkpoint;  (** the newest recoverable checkpoint *)
  generation : int;  (** its generation ([ck_generation]) *)
  complete : bool;  (** whether it parsed strictly, nothing dropped *)
  dropped_records : int;  (** truncated trailing history records dropped *)
}

val salvage_of_string : string -> salvage
(** [salvage_of_string text] recovers the most recent fully-valid
    checkpoint from possibly-torn input.  The text is split into blocks
    at ["compass-ga-checkpoint"] header lines and blocks are tried
    newest first.  A block with a torn tail is accepted if its
    population survives complete; a final partial line and truncated
    trailing history records are dropped (history is reporting-only, so
    resume determinism is unaffected — the resumed trajectory equals an
    untorn resume).  Raises {!Compass_util.Located.Error} with the newest
    block's diagnostic when nothing is recoverable. *)

val salvage_checkpoint : string -> salvage
(** [salvage_checkpoint path] is {!salvage_of_string} on the file's
    contents.  Raises {!Compass_util.Located.Error} (naming [path]) or
    [Sys_error]. *)
