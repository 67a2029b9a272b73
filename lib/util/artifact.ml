(* Crash-consistent artifact writes over raw file descriptors.

   Write-to-temp + fsync + atomic-rename: a crash (or an injected
   failure) at any point leaves either the previous complete artifact or
   the new one under the destination path, never a truncated mix, and
   never a stray temp file.  [EINTR] is retried (bounded); every other
   failure cleans the temp file up best-effort and reports the
   {e original} error — the unlink's own failure is never allowed to
   shadow it. *)

let chunk_bytes = 65536
let max_eintr_retries = 128

(* Write [payload] fully to [fd], in chunks so an injected mid-stream
   failure can interrupt a partially-written file. *)
let write_all ~path ~site fd payload =
  let len = String.length payload in
  let pos = ref 0 in
  let interruptions = ref 0 in
  while !pos < len do
    let k = min chunk_bytes (len - !pos) in
    match
      Failpoint.guard site;
      Unix.write_substring fd payload !pos k
    with
    | written -> pos := !pos + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      incr interruptions;
      if !interruptions > max_eintr_retries then
        raise
          (Sys_error
             (Printf.sprintf "%s: write failed: interrupted %d times (EINTR)" path
                max_eintr_retries))
  done

(* Best-effort directory sync so the rename itself is durable; silently
   skipped on filesystems that refuse to fsync directories. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let located path step = function
  | Unix.Unix_error (e, _, _) ->
    Sys_error (Printf.sprintf "%s: %s failed: %s" path step (Unix.error_message e))
  | Sys_error _ as e -> e
  | e -> e  (* Failpoint.Injected and genuine bugs propagate as themselves *)

let write_atomic path contents =
  Failpoint.guard "artifact.write.open";
  (* The temp file must live in the destination directory: [Unix.rename]
     is only atomic within one filesystem. *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let step = ref "open" in
  let fd = ref None in
  let close_fd () =
    match !fd with
    | Some d ->
      fd := None;
      (try Unix.close d with Unix.Unix_error _ -> ())
    | None -> ()
  in
  try
    let d =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    fd := Some d;
    step := "write";
    let payload = Failpoint.guard_write "artifact.write.mid" contents in
    write_all ~path ~site:"artifact.write.syscall" d payload;
    step := "fsync";
    Failpoint.guard "artifact.write.fsync";
    Unix.fsync d;
    close_fd ();
    step := "rename";
    Failpoint.guard "artifact.write.rename";
    Unix.rename tmp path;
    fsync_dir (Filename.dirname path)
  with e ->
    (* Clean up, then report what actually went wrong: the unlink is
       best-effort and its own failure must never shadow [e]. *)
    close_fd ();
    (try Sys.remove tmp with Sys_error _ | Unix.Unix_error _ -> ());
    raise (located path !step e)

let float_token f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let dec = Printf.sprintf "%.17g" f in
    if float_of_string dec = f then dec else Printf.sprintf "%h" f

let read_file path =
  Failpoint.guard "artifact.read";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
