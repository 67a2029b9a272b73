(** Crash-consistent artifact writes.

    Compiled plans and GA checkpoints are written through
    write-to-temp + fsync + atomic-rename, so a crash — or an injected
    {!Failpoint} failure — can never leave a half-written file behind
    under the destination path: a reader sees either the previous
    complete artifact or the new one, never a truncated mix.

    Failpoint sites (catalogue in docs/FORMATS.md):
    [artifact.write.open], [artifact.write.mid] (payload truncation),
    [artifact.write.syscall] (per-chunk, e.g. [eintr]/[enospc]),
    [artifact.write.fsync], [artifact.write.rename], [artifact.read]. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a fresh temporary
    file in [path]'s directory, fsyncs it, renames it over [path]
    (atomic on POSIX within one filesystem), and best-effort-syncs the
    directory.  [EINTR] during a write is retried (bounded).  On any
    other error the temporary file is removed and the {e original}
    failure is reported — never the cleanup's — as a [Sys_error] naming
    the path and the failing step; [path] is left untouched. *)

val float_token : float -> string
(** Serialize a float so [float_of_string] reads back the identical bit
    pattern: an exact integer prints plainly, otherwise the shortest
    round-tripping decimal ([%.17g]), with the hex-float literal ([%h]) as
    a guaranteed fallback.  Infinities print as ["inf"]/["-inf"], which
    [float_of_string] also reads. *)

val read_file : string -> string
(** Whole-file read ([Sys_error] on failure), the load-side counterpart
    used by plan and checkpoint loaders. *)
