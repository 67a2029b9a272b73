exception Load_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Load_error msg)) fmt

let fail_at line fmt =
  Printf.ksprintf (fun msg -> raise (Load_error (Printf.sprintf "line %d: %s" line msg))) fmt

let float_token = Compass_util.Artifact.float_token

let is_zoo_model name = List.mem name Compass_nn.Models.all_names

let to_string (plan : Compiler.t) =
  let buf = Buffer.create 256 in
  let model_name = Compass_nn.Graph.name plan.Compiler.model in
  Buffer.add_string buf "compass-plan 1\n";
  Buffer.add_string buf (Printf.sprintf "model %s\n" model_name);
  Buffer.add_string buf
    (Printf.sprintf "chip %s\n" plan.Compiler.chip.Compass_arch.Config.label);
  Buffer.add_string buf (Printf.sprintf "batch %d\n" plan.Compiler.batch);
  Buffer.add_string buf
    (Printf.sprintf "objective %s\n" (Fitness.objective_to_string plan.Compiler.objective));
  Buffer.add_string buf
    (Printf.sprintf "scheme %s\n" (Compiler.scheme_to_string plan.Compiler.scheme));
  Buffer.add_string buf
    (Printf.sprintf "cuts %s\n"
       (String.concat " "
          (List.map string_of_int (Array.to_list (Partition.cuts plan.Compiler.group)))));
  (match plan.Compiler.faults with
  | Some f when not (Compass_arch.Fault.is_trivial f) ->
    (* Realized scenarios serialize with fixed clauses only, so reloading
       needs no seed. *)
    Buffer.add_string buf (Printf.sprintf "faults %s\n" (Compass_arch.Fault.to_string f))
  | Some _ | None -> ());
  if not (is_zoo_model model_name) then begin
    Buffer.add_string buf "model-text\n";
    Buffer.add_string buf (Compass_nn.Model_text.to_string plan.Compiler.model)
  end;
  Buffer.contents buf

let save path plan =
  Compass_util.Failpoint.guard "plan_text.save";
  Compass_util.Artifact.write_atomic path (to_string plan)

let of_string text =
  (* Header lines until an optional model-text marker; every field keeps
     its 1-based source line for diagnostics. *)
  let lines = String.split_on_char '\n' text in
  let fields : (string, int * string) Hashtbl.t = Hashtbl.create 8 in
  let rec scan lineno = function
    | [] -> None
    | line :: rest -> (
      match String.index_opt line ' ' with
      | _ when String.trim line = "" -> scan (lineno + 1) rest
      | _ when String.trim line = "model-text" -> Some (lineno + 1, String.concat "\n" rest)
      | Some i ->
        Hashtbl.replace fields (String.sub line 0 i)
          (lineno, String.sub line (i + 1) (String.length line - i - 1));
        scan (lineno + 1) rest
      | None -> fail_at lineno "malformed line %S (expected \"key value\")" line)
  in
  let inline_model = scan 1 lines in
  let get key =
    match Hashtbl.find_opt fields key with
    | Some (line, v) -> (line, String.trim v)
    | None -> fail "missing field %s" key
  in
  (match Hashtbl.find_opt fields "compass-plan" with
  | None -> fail "not a compass-plan file (missing \"compass-plan 1\" header)"
  | Some (line, v) when String.trim v <> "1" ->
    fail_at line "unsupported compass-plan version %S (this build reads version 1)"
      (String.trim v)
  | Some _ -> ());
  let _, model_name = get "model" in
  let model =
    match inline_model with
    | Some (first_line, text) -> (
      try Compass_nn.Model_text.parse text
      with Compass_nn.Model_text.Parse_error (line, msg) ->
        fail_at (first_line + line - 1) "inline model (its line %d): %s" line msg)
    | None -> (
      try Compass_nn.Models.by_name model_name
      with Not_found ->
        let line, _ = get "model" in
        fail_at line "unknown zoo model %s" model_name)
  in
  let chip =
    let line, label = get "chip" in
    try Compass_arch.Config.by_label label
    with Not_found -> fail_at line "unknown chip %s" label
  in
  let batch =
    let line, v = get "batch" in
    match int_of_string_opt v with
    | Some b when b >= 1 -> b
    | _ -> fail_at line "bad batch %S" v
  in
  let objective =
    let line, v = get "objective" in
    try Fitness.objective_of_string v
    with Invalid_argument _ -> fail_at line "bad objective %S" v
  in
  let scheme =
    let line, v = get "scheme" in
    try Compiler.scheme_of_string v
    with Invalid_argument _ -> fail_at line "bad scheme %S" v
  in
  let cuts_line, cuts =
    let line, v = get "cuts" in
    let words = String.split_on_char ' ' v |> List.filter (fun w -> w <> "") in
    match List.map int_of_string_opt words with
    | ints when List.for_all Option.is_some ints && ints <> [] ->
      (line, Array.of_list (List.map Option.get ints))
    | _ -> fail_at line "bad cuts %S" v
  in
  let faults =
    match Hashtbl.find_opt fields "faults" with
    | None -> None
    | Some (line, spec) -> (
      try
        let f =
          Compass_arch.Fault.of_string (String.trim spec) ~seed:0 ~cores:chip.Compass_arch.Config.cores
            ~macros_per_core:chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core
        in
        if Compass_arch.Fault.is_trivial f then None else Some f
      with Invalid_argument msg -> fail_at line "bad faults %S: %s" (String.trim spec) msg)
  in
  let units = Unit_gen.generate model chip in
  let group =
    try Partition.of_cuts cuts
    with Invalid_argument msg -> fail_at cuts_line "invalid cuts: %s" msg
  in
  if Partition.total_units group <> Unit_gen.unit_count units then
    fail_at cuts_line "cuts cover %d units but the decomposition has %d (different hardware?)"
      (Partition.total_units group) (Unit_gen.unit_count units);
  let validity =
    try Validity.build ?faults units
    with Invalid_argument msg -> fail "fault scenario rejects the model: %s" msg
  in
  if not (Validity.group_valid validity group) then
    fail_at cuts_line "stored partitioning is not valid for chip %s%s"
      chip.Compass_arch.Config.label
      (if faults = None then "" else " under the stored fault scenario");
  let ctx = Dataflow.context units in
  let options = { Estimator.default_options with Estimator.faults } in
  let perf = Estimator.evaluate ~options ctx ~batch group in
  {
    Compiler.model;
    chip;
    batch;
    scheme;
    objective;
    units;
    ctx;
    validity;
    group;
    perf;
    ga = None;
    dp = None;
    faults;
    budget_exhausted = false;
  }

let load path = of_string (Compass_util.Artifact.read_file path)

(* {1 GA checkpoints}

   A checkpoint is a strictly ordered sequence of "key value" lines (the
   writer below is the format's specification); loads locate every
   complaint.  Order sensitivity is fine for a machine-written artifact
   and keeps truncation diagnostics precise: the first missing line names
   exactly what the file lost. *)

let scheme_of_name line = function
  | "merge" -> Ga.Merge
  | "split" -> Ga.Split
  | "move" -> Ga.Move
  | "fixed_random" -> Ga.Fixed_random
  | other -> fail_at line "unknown mutation scheme %S" other

let cuts_token group =
  String.concat " " (List.map string_of_int (Array.to_list (Partition.cuts group)))

(* (fitness, partition-count) pair lists of a generation record. *)
let pairs_token = function
  | [] -> "-"
  | pairs ->
    String.concat ","
      (List.map (fun (f, p) -> Printf.sprintf "%s:%d" (float_token f) p) pairs)

let parse_pairs line = function
  | "-" -> []
  | s ->
    List.map
      (fun tok ->
        match String.rindex_opt tok ':' with
        | None -> fail_at line "bad fitness:partitions pair %S" tok
        | Some i -> (
          let f = String.sub tok 0 i in
          let p = String.sub tok (i + 1) (String.length tok - i - 1) in
          match (float_of_string_opt f, int_of_string_opt p) with
          | Some f, Some p -> (f, p)
          | _ -> fail_at line "bad fitness:partitions pair %S" tok))
      (String.split_on_char ',' s)

let checkpoint_to_string (ck : Ga.checkpoint) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let p = ck.Ga.ck_params in
  add "compass-ga-checkpoint 1";
  add "objective %s" (Fitness.objective_to_string ck.Ga.ck_objective);
  add "batch %d" ck.Ga.ck_batch;
  add "generation %d" ck.Ga.ck_generation;
  add "rng-state %Ld" ck.Ga.ck_rng_state;
  add "best-seen %s" (float_token ck.Ga.ck_best_seen);
  add "stall %d" ck.Ga.ck_stall;
  add "evaluations %d" ck.Ga.ck_evaluations;
  add "population %d" p.Ga.population;
  add "generations %d" p.Ga.generations;
  add "n-sel %d" p.Ga.n_sel;
  add "n-mut %d" p.Ga.n_mut;
  add "early-stop-patience %d" p.Ga.early_stop_patience;
  add "mutation-retries %d" p.Ga.mutation_retries;
  add "schemes %s" (String.concat "," (List.map Ga.scheme_name p.Ga.schemes));
  add "seed %d" p.Ga.seed;
  add "jobs %d" p.Ga.jobs;
  add "warm-start %d" (List.length p.Ga.warm_start);
  List.iter (fun g -> add "cuts %s" (cuts_token g)) p.Ga.warm_start;
  add "individuals %d" (Array.length ck.Ga.ck_population);
  Array.iter (fun g -> add "cuts %s" (cuts_token g)) ck.Ga.ck_population;
  add "records %d" (List.length ck.Ga.ck_history);
  List.iter
    (fun (r : Ga.generation_record) ->
      add "record %d %s %s %s" r.Ga.generation (float_token r.Ga.best_fitness)
        (pairs_token r.Ga.selected) (pairs_token r.Ga.mutated))
    ck.Ga.ck_history;
  Buffer.contents buf

let checkpoint_of_string text =
  (* Non-empty lines with their 1-based positions, consumed in order. *)
  let lines =
    List.filteri
      (fun _ (_, l) -> String.trim l <> "")
      (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text))
  in
  let cursor = ref lines in
  let next key =
    match !cursor with
    | [] -> fail "truncated checkpoint: missing field %s" key
    | (line, l) :: rest -> (
      cursor := rest;
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = key ->
        (line, String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> fail_at line "expected field %s, found %S" key l)
  in
  let int_field key =
    let line, v = next key in
    match int_of_string_opt v with
    | Some n -> (line, n)
    | None -> fail_at line "bad %s %S (expected an integer)" key v
  in
  let float_field key =
    let line, v = next key in
    match float_of_string_opt v with
    | Some f -> (line, f)
    | None -> fail_at line "bad %s %S (expected a float)" key v
  in
  let cuts_field () =
    let line, v = next "cuts" in
    let words = String.split_on_char ' ' v |> List.filter (fun w -> w <> "") in
    match List.map int_of_string_opt words with
    | ints when List.for_all Option.is_some ints && ints <> [] -> (
      let cuts = Array.of_list (List.map Option.get ints) in
      try Partition.of_cuts cuts
      with Invalid_argument msg -> fail_at line "invalid cuts: %s" msg)
    | _ -> fail_at line "bad cuts %S" v
  in
  (match !cursor with
  | [] -> fail "not a compass-ga-checkpoint file (empty)"
  | (line, l) :: _ -> (
    match String.index_opt l ' ' with
    | Some i when String.sub l 0 i = "compass-ga-checkpoint" ->
      let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
      if v <> "1" then
        fail_at line
          "unsupported compass-ga-checkpoint version %S (this build reads version 1)" v
      else cursor := List.tl !cursor
    | _ -> fail_at line "not a compass-ga-checkpoint file (missing header)"));
  let obj_line, obj = next "objective" in
  let ck_objective =
    try Fitness.objective_of_string obj
    with Invalid_argument _ -> fail_at obj_line "bad objective %S" obj
  in
  let _, ck_batch = int_field "batch" in
  let _, ck_generation = int_field "generation" in
  let ck_rng_state =
    let line, v = next "rng-state" in
    match Int64.of_string_opt v with
    | Some s -> s
    | None -> fail_at line "bad rng-state %S (expected a 64-bit integer)" v
  in
  let _, ck_best_seen = float_field "best-seen" in
  let _, ck_stall = int_field "stall" in
  let _, ck_evaluations = int_field "evaluations" in
  let _, population = int_field "population" in
  let _, generations = int_field "generations" in
  let _, n_sel = int_field "n-sel" in
  let _, n_mut = int_field "n-mut" in
  let _, early_stop_patience = int_field "early-stop-patience" in
  let _, mutation_retries = int_field "mutation-retries" in
  let schemes =
    let line, v = next "schemes" in
    match String.split_on_char ',' v |> List.filter (fun s -> s <> "") with
    | [] -> fail_at line "no mutation schemes listed"
    | names -> List.map (scheme_of_name line) names
  in
  (* Checkpoints written while the GA still had a crossover extension
     carry its rate here; the inert rate 0 resumes bit-identically. *)
  (match !cursor with
  | (_, l) :: _ when String.starts_with ~prefix:"crossover-rate " l ->
    let line, rate = float_field "crossover-rate" in
    if rate <> 0. then
      fail_at line "crossover-rate %g is no longer supported (only 0 resumes)" rate
  | _ -> ());
  let _, seed = int_field "seed" in
  let _, jobs = int_field "jobs" in
  let _, nwarm = int_field "warm-start" in
  let warm_start = List.init nwarm (fun _ -> cuts_field ()) in
  let _, nind = int_field "individuals" in
  if nind < 1 then fail "checkpoint has no population";
  let ck_population = Array.init nind (fun _ -> cuts_field ()) in
  let _, nrec = int_field "records" in
  let ck_history =
    List.init nrec (fun _ ->
        let line, v = next "record" in
        match String.split_on_char ' ' v |> List.filter (fun s -> s <> "") with
        | [ gen; best; sel; mut ] -> (
          match (int_of_string_opt gen, float_of_string_opt best) with
          | Some generation, Some best_fitness ->
            {
              Ga.generation;
              best_fitness;
              selected = parse_pairs line sel;
              mutated = parse_pairs line mut;
            }
          | _ -> fail_at line "bad record %S" v)
        | _ -> fail_at line "bad record %S (expected gen best selected mutated)" v)
  in
  (match !cursor with
  | [] -> ()
  | (line, l) :: _ -> fail_at line "trailing content %S after the checkpoint" l);
  {
    Ga.ck_params =
      {
        Ga.population;
        generations;
        n_sel;
        n_mut;
        early_stop_patience;
        mutation_retries;
        schemes;
        seed;
        jobs;
        warm_start;
      };
    ck_objective;
    ck_batch;
    ck_generation;
    ck_rng_state;
    ck_best_seen;
    ck_stall;
    ck_evaluations;
    ck_population;
    ck_history;
  }

let save_checkpoint path ck =
  Compass_util.Failpoint.guard "plan_text.checkpoint.save";
  Compass_util.Artifact.write_atomic path (checkpoint_to_string ck)

let load_checkpoint path =
  Compass_util.Failpoint.guard "plan_text.checkpoint.load";
  checkpoint_of_string (Compass_util.Artifact.read_file path)

let append_checkpoint path ck =
  Compass_util.Failpoint.guard "plan_text.checkpoint.save";
  Compass_util.Artifact.append_durable path (checkpoint_to_string ck)

(* {1 Checkpoint salvage}

   A torn checkpoint — truncated by a crash mid-write or a torn journal
   append — is recovered instead of failing resume.  The file is split
   into blocks at "compass-ga-checkpoint" header lines (a journal holds
   several; an atomic snapshot holds one) and blocks are tried newest
   first.  Within a torn block, a final partial line (no trailing
   newline) is untrustworthy and dropped — a truncated "cuts" line can
   still parse as a {e different} individual, which would silently break
   resume determinism.  The population must survive complete; truncated
   trailing history records are dropped (history is reporting-only, so
   the resumed trajectory is unaffected). *)

type salvage = {
  recovered : Ga.checkpoint;
  generation : int;
  complete : bool;
  dropped_records : int;
}

let header_token = "compass-ga-checkpoint"

(* Start offsets of every block header at a line start. *)
let block_starts text =
  let n = String.length text and hn = String.length header_token in
  let at i = i + hn <= n && String.sub text i hn = header_token in
  let starts = ref (if at 0 then [ 0 ] else []) in
  String.iteri (fun i c -> if c = '\n' && at (i + 1) then starts := (i + 1) :: !starts) text;
  List.rev !starts

(* A well-formed "key v..." line, reusing the strict parsers so tolerance
   never accepts what the strict reader would reject. *)
let record_line_ok l =
  match String.index_opt l ' ' with
  | Some i when String.sub l 0 i = "record" -> (
    let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
    match String.split_on_char ' ' v |> List.filter (fun s -> s <> "") with
    | [ gen; best; sel; mut ] -> (
      match (int_of_string_opt gen, float_of_string_opt best) with
      | Some _, Some _ -> (
        match (parse_pairs 0 sel, parse_pairs 0 mut) with
        | _, _ -> true
        | exception Load_error _ -> false)
      | _ -> false)
    | _ -> false)
  | _ -> false

let records_count_line l =
  match String.index_opt l ' ' with
  | Some i when String.sub l 0 i = "records" ->
    int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
  | _ -> None

let salvage_block text =
  (* A block whose final line lacks its newline is torn mid-line; a torn
     line must never be trusted even when it happens to parse (a
     truncated "record" pairs token still reads as a — shorter — valid
     token), so the strict path only runs on newline-terminated text. *)
  let torn_tail = text <> "" && text.[String.length text - 1] <> '\n' in
  match if torn_tail then fail "torn final line" else checkpoint_of_string text with
  | ck ->
    { recovered = ck; generation = ck.Ga.ck_generation; complete = true; dropped_records = 0 }
  | exception (Load_error _ as strict_failure) ->
    (* Drop the torn final partial line, then rebuild the records section
       from the complete, well-formed record lines and re-run the strict
       parser on the repaired text — tolerance never invents fields. *)
    let text =
      match String.rindex_opt text '\n' with
      | Some i when i = String.length text - 1 -> text
      | Some i -> String.sub text 0 (i + 1)
      | None -> raise strict_failure
    in
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
    in
    let rec split_at_records prefix = function
      | [] -> (List.rev prefix, None, [])
      | l :: rest -> (
        match records_count_line l with
        | Some n -> (List.rev prefix, Some n, rest)
        | None -> split_at_records (l :: prefix) rest)
    in
    let prefix, declared, tail = split_at_records [] lines in
    let kept =
      let rec take n = function
        | l :: rest when n > 0 && record_line_ok l -> l :: take (n - 1) rest
        | _ -> []
      in
      take (Option.value ~default:0 declared) tail
    in
    let nkept = List.length kept in
    let repaired =
      String.concat "\n"
        (prefix @ (Printf.sprintf "records %d" nkept :: kept) @ [ "" ])
    in
    let ck = checkpoint_of_string repaired in
    {
      recovered = ck;
      generation = ck.Ga.ck_generation;
      complete = false;
      dropped_records = (match declared with Some n -> max 0 (n - nkept) | None -> 0);
    }

let salvage_of_string text =
  match block_starts text with
  | [] -> fail "not a compass-ga-checkpoint file (missing header)"
  | starts ->
    let n = String.length text in
    let blocks =
      let rec spans = function
        | [] -> []
        | [ s ] -> [ String.sub text s (n - s) ]
        | s :: (s' :: _ as rest) -> String.sub text s (s' - s) :: spans rest
      in
      spans starts
    in
    let rec newest_first = function
      | [] -> assert false
      | [ b ] -> salvage_block b
      | b :: earlier -> (
        match salvage_block b with
        | s -> s
        | exception (Load_error _ as e) -> (
          (* The newest block's diagnostic is the one that matters. *)
          try newest_first earlier with Load_error _ -> raise e))
    in
    (* Blocks were built oldest-first; try newest first. *)
    newest_first (List.rev blocks)

let salvage_checkpoint path =
  Compass_util.Failpoint.guard "plan_text.checkpoint.load";
  salvage_of_string (Compass_util.Artifact.read_file path)
