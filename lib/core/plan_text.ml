module Located = Compass_util.Located

exception Load_error = Located.Error

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

(* A "key value" line: the key and the trimmed, located value; [None]
   for a line without a space. *)
let field l =
  Option.map (fun ((k : Located.token), v) -> (k.text, Located.trim v)) (Located.cut ' ' l)

let nonblank lines = List.filter (fun (l : Located.token) -> String.trim l.text <> "") lines

(* A "cuts" value: a non-empty list of integers forming a partition. *)
let parse_cuts (v : Located.token) =
  let bad _ = Printf.sprintf "bad cuts %S" v.text in
  match Located.words v with
  | [] -> Located.at v "%s" (bad ())
  | words -> (
    let cuts = Array.of_list (List.map (Located.int bad) words) in
    try Partition.of_cuts cuts
    with Invalid_argument msg -> Located.at v "invalid cuts: %s" msg)

let of_string text =
  (* Header lines until an optional model-text marker; every field keeps
     its located value for diagnostics. *)
  let fields : (string, Located.token) Hashtbl.t = Hashtbl.create 8 in
  let rec scan = function
    | [] -> None
    | (l : Located.token) :: rest -> (
      if String.trim l.text = "" then scan rest
      else if String.trim l.text = "model-text" then Some (l.line, rest)
      else
        match field l with
        | Some (key, v) ->
          Hashtbl.replace fields key v;
          scan rest
        | None -> Located.at l "malformed line %S (expected \"key value\")" l.text)
  in
  let inline_model = scan (Located.lines text) in
  let get key =
    match Hashtbl.find_opt fields key with
    | Some v -> v
    | None -> Located.fail "missing field %s" key
  in
  (match Hashtbl.find_opt fields "compass-plan" with
  | None -> Located.fail "not a compass-plan file (missing \"compass-plan 1\" header)"
  | Some v when v.text <> "1" ->
    Located.at v "unsupported compass-plan version %S (this build reads version 1)" v.text
  | Some _ -> ());
  let model_name = get "model" in
  let model =
    match inline_model with
    | Some (marker, rest) ->
      (* The marker reads as the model's blank first line, so the model's
         line numbers are the plan's offset by the marker's, and a
         whole-model complaint lands on the marker. *)
      Located.shift ~line:marker ~col:1 (fun () ->
          Compass_nn.Model_text.parse
            (String.concat "\n" ("" :: List.map (fun (l : Located.token) -> l.text) rest)))
    | None -> (
      try Compass_nn.Models.by_name model_name.text
      with Not_found -> Located.at model_name "unknown zoo model %s" model_name.text)
  in
  let chip =
    let v = get "chip" in
    try Compass_arch.Config.by_label v.text
    with Not_found -> Located.at v "unknown chip %s" v.text
  in
  let batch =
    Located.int ~valid:(fun b -> b >= 1) (Printf.sprintf "bad batch %S") (get "batch")
  in
  let objective =
    let v = get "objective" in
    try Fitness.objective_of_string v.text
    with Invalid_argument _ -> Located.at v "bad objective %S" v.text
  in
  let scheme =
    let v = get "scheme" in
    try Compiler.scheme_of_string v.text
    with Invalid_argument _ -> Located.at v "bad scheme %S" v.text
  in
  let cuts = get "cuts" in
  let group = parse_cuts cuts in
  let faults =
    Option.bind (Hashtbl.find_opt fields "faults") (fun v ->
        let f =
          (* Spec syntax errors land on their own column of the spec; the
             realization's semantic complaints concern the whole value. *)
          try
            Located.shift ~line:v.line ~col:v.col (fun () ->
                Compass_arch.Fault.of_string v.text ~seed:0
                  ~cores:chip.Compass_arch.Config.cores
                  ~macros_per_core:chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core)
          with Invalid_argument msg -> Located.at v "bad faults %S: %s" v.text msg
        in
        if Compass_arch.Fault.is_trivial f then None else Some f)
  in
  let units = Unit_gen.generate model chip in
  if Partition.total_units group <> Unit_gen.unit_count units then
    Located.at cuts "cuts cover %d units but the decomposition has %d (different hardware?)"
      (Partition.total_units group) (Unit_gen.unit_count units);
  let validity =
    try Validity.build ?faults units
    with Invalid_argument msg -> Located.fail "fault scenario rejects the model: %s" msg
  in
  if not (Validity.group_valid validity group) then
    Located.at cuts "stored partitioning is not valid for chip %s%s"
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

let load path =
  Located.in_file path (fun () -> of_string (Compass_util.Artifact.read_file path))

(* {1 GA checkpoints}

   A checkpoint is a strictly ordered sequence of "key value" lines (the
   writer below is the format's specification); loads locate every
   complaint.  Order sensitivity is fine for a machine-written artifact
   and keeps truncation diagnostics precise: the first missing line names
   exactly what the file lost. *)

let scheme_of_name (tok : Located.token) =
  match tok.text with
  | "merge" -> Ga.Merge
  | "split" -> Ga.Split
  | "move" -> Ga.Move
  | "fixed_random" -> Ga.Fixed_random
  | other -> Located.at tok "unknown mutation scheme %S" other

let cuts_token group =
  String.concat " " (List.map string_of_int (Array.to_list (Partition.cuts group)))

(* (fitness, partition-count) pair lists of a generation record. *)
let pairs_token = function
  | [] -> "-"
  | pairs ->
    String.concat ","
      (List.map (fun (f, p) -> Printf.sprintf "%s:%d" (float_token f) p) pairs)

let parse_pairs (tok : Located.token) =
  if tok.text = "-" then []
  else
    List.map
      (fun (pair : Located.token) ->
        let bad _ = Printf.sprintf "bad fitness:partitions pair %S" pair.text in
        match Located.cut ':' pair with
        | None -> Located.at pair "%s" (bad ())
        | Some (f, p) ->
          let f = Located.float bad f in
          (f, Located.int bad p))
      (Located.split ',' tok)

(* The value of a "record" line: generation, best fitness, selected and
   mutated pairs. *)
let parse_record (v : Located.token) =
  match Located.words v with
  | [ gen; best; sel; mut ] ->
    let bad _ = Printf.sprintf "bad record %S" v.text in
    let generation = Located.int bad gen in
    let best_fitness = Located.float bad best in
    let selected = parse_pairs sel in
    { Ga.generation; best_fitness; selected; mutated = parse_pairs mut }
  | _ -> Located.at v "bad record %S (expected gen best selected mutated)" v.text

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
  (* Non-empty lines, consumed in order. *)
  let cursor = ref (nonblank (Located.lines text)) in
  let next key =
    match !cursor with
    | [] -> Located.fail "truncated checkpoint: missing field %s" key
    | l :: rest -> (
      cursor := rest;
      match field l with
      | Some (k, v) when k = key -> v
      | _ -> Located.at l "expected field %s, found %S" key l.text)
  in
  let int_field key =
    Located.int (Printf.sprintf "bad %s %S (expected an integer)" key) (next key)
  in
  (* Counts size the lists that follow them. *)
  let count_field key =
    Located.int ~valid:(fun n -> n >= 0)
      (Printf.sprintf "bad %s %S (expected a count)" key)
      (next key)
  in
  let float_field key =
    Located.float (Printf.sprintf "bad %s %S (expected a float)" key) (next key)
  in
  (match !cursor with
  | [] -> Located.fail "not a compass-ga-checkpoint file (empty)"
  | l :: _ -> (
    match field l with
    | Some ("compass-ga-checkpoint", _) -> ()
    | _ -> Located.at l "not a compass-ga-checkpoint file (missing header)"));
  let version = next "compass-ga-checkpoint" in
  if version.text <> "1" then
    Located.at version
      "unsupported compass-ga-checkpoint version %S (this build reads version 1)" version.text;
  let ck_objective =
    let v = next "objective" in
    try Fitness.objective_of_string v.text
    with Invalid_argument _ -> Located.at v "bad objective %S" v.text
  in
  let ck_batch = int_field "batch" in
  let ck_generation = int_field "generation" in
  let ck_rng_state =
    let v = next "rng-state" in
    match Int64.of_string_opt v.text with
    | Some s -> s
    | None -> Located.at v "bad rng-state %S (expected a 64-bit integer)" v.text
  in
  let ck_best_seen = float_field "best-seen" in
  let ck_stall = int_field "stall" in
  let ck_evaluations = int_field "evaluations" in
  let population = int_field "population" in
  let generations = int_field "generations" in
  let n_sel = int_field "n-sel" in
  let n_mut = int_field "n-mut" in
  let early_stop_patience = int_field "early-stop-patience" in
  let mutation_retries = int_field "mutation-retries" in
  let schemes =
    let v = next "schemes" in
    match Located.words ~sep:',' v with
    | [] -> Located.at v "no mutation schemes listed"
    | names -> List.map scheme_of_name names
  in
  (* Checkpoints written while the GA still had a crossover extension
     carry its rate here; the inert rate 0 resumes bit-identically. *)
  (match !cursor with
  | l :: _ when String.starts_with ~prefix:"crossover-rate " l.text ->
    let v = next "crossover-rate" in
    let rate = Located.float (Printf.sprintf "bad crossover-rate %S (expected a float)") v in
    if rate <> 0. then
      Located.at v "crossover-rate %g is no longer supported (only 0 resumes)" rate
  | _ -> ());
  let seed = int_field "seed" in
  let jobs = int_field "jobs" in
  let nwarm = count_field "warm-start" in
  let warm_start = List.init nwarm (fun _ -> parse_cuts (next "cuts")) in
  let nind = count_field "individuals" in
  if nind < 1 then Located.fail "checkpoint has no population";
  let ck_population = Array.init nind (fun _ -> parse_cuts (next "cuts")) in
  let nrec = count_field "records" in
  let ck_history = List.init nrec (fun _ -> parse_record (next "record")) in
  (match !cursor with
  | [] -> ()
  | l :: _ -> Located.at l "trailing content %S after the checkpoint" l.text);
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
  Located.in_file path (fun () -> checkpoint_of_string (Compass_util.Artifact.read_file path))

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

(* Start offsets of every block header at a line start, each with its
   1-based line. *)
let block_starts text =
  let n = String.length text and hn = String.length header_token in
  let at i = i + hn <= n && String.sub text i hn = header_token in
  let starts = ref (if at 0 then [ (0, 1) ] else []) and line = ref 1 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        incr line;
        if at (i + 1) then starts := (i + 1, !line) :: !starts
      end)
    text;
  List.rev !starts

(* A well-formed record line, reusing the strict parser so tolerance
   never accepts what the strict reader would reject. *)
let record_line_ok l =
  match field l with
  | Some ("record", v) -> (
    match parse_record v with _ -> true | exception Located.Error _ -> false)
  | _ -> false

let salvage_block text =
  (* A block whose final line lacks its newline is torn mid-line; a torn
     line must never be trusted even when it happens to parse (a
     truncated "record" pairs token still reads as a — shorter — valid
     token), so the strict path only runs on newline-terminated text. *)
  let torn_tail = text <> "" && text.[String.length text - 1] <> '\n' in
  match if torn_tail then Located.fail "torn final line" else checkpoint_of_string text with
  | ck ->
    { recovered = ck; generation = ck.Ga.ck_generation; complete = true; dropped_records = 0 }
  | exception (Located.Error _ as strict_failure) ->
    (* Drop the torn final partial line, then rebuild the records section
       from the complete, well-formed record lines and re-run the strict
       parser on the repaired text — tolerance never invents fields. *)
    let text =
      match String.rindex_opt text '\n' with
      | Some i when i = String.length text - 1 -> text
      | Some i -> String.sub text 0 (i + 1)
      | None -> raise strict_failure
    in
    let rec split_at_records prefix = function
      | [] -> (List.rev prefix, None, [])
      | (l : Located.token) :: rest -> (
        match field l with
        | Some ("records", v) -> (List.rev prefix, int_of_string_opt v.text, rest)
        | _ -> split_at_records (l.text :: prefix) rest)
    in
    let prefix, declared, tail = split_at_records [] (nonblank (Located.lines text)) in
    let kept =
      let rec take n = function
        | (l : Located.token) :: rest when n > 0 && record_line_ok l ->
          l.text :: take (n - 1) rest
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
  | [] -> Located.fail "not a compass-ga-checkpoint file (missing header)"
  | starts ->
    let n = String.length text in
    let blocks =
      let rec spans = function
        | [] -> []
        | [ (s, line) ] -> [ (line, String.sub text s (n - s)) ]
        | (s, line) :: ((s', _) :: _ as rest) -> (line, String.sub text s (s' - s)) :: spans rest
      in
      spans starts
    in
    (* A block's errors are re-based onto the file's lines. *)
    let salvage (line, b) = Located.shift ~line ~col:1 (fun () -> salvage_block b) in
    let rec newest_first = function
      | [] -> assert false
      | [ b ] -> salvage b
      | b :: earlier -> (
        match salvage b with
        | s -> s
        | exception (Located.Error _ as e) -> (
          (* The newest block's diagnostic is the one that matters. *)
          try newest_first earlier with Located.Error _ -> raise e))
    in
    (* Blocks were built oldest-first; try newest first. *)
    newest_first (List.rev blocks)

let salvage_checkpoint path =
  Compass_util.Failpoint.guard "plan_text.checkpoint.load";
  Located.in_file path (fun () -> salvage_of_string (Compass_util.Artifact.read_file path))
