(* compass — command-line front end for the COMPASS compiler framework.
   Each subcommand's [Cmd.info] documents it; `compass --help` lists them.

   Exit codes (documented in README.md):
     0  success
     1  verify: the plan violates at least one invariant
     2  user error (unknown names, bad flag values, malformed files,
        unwritable output paths, infeasible scenarios)
     3  internal error — a compass bug, with a bug-report hint on stderr  *)

open Cmdliner
open Compass_core

let model_arg =
  let doc =
    "Network model: " ^ String.concat ", " Compass_nn.Models.all_names ^ "."
  in
  Arg.(value & opt string "resnet18" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let chip_arg =
  let doc = "Chip preset: S, M or L (paper Table I)." in
  Arg.(value & opt string "S" & info [ "c"; "chip" ] ~docv:"CHIP" ~doc)

let batch_arg =
  let doc = "Batch size per weight-replacement round." in
  Arg.(value & opt int 16 & info [ "b"; "batch" ] ~docv:"N" ~doc)

let scheme_arg =
  let doc =
    "Partitioning scheme: compass (GA), greedy, layerwise, or dp (exact \
     dynamic programming over the valid-span DAG)."
  in
  Arg.(value & opt string "compass" & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let warm_start_arg =
  let doc =
    "Seed the GA with the DP optimum (compass scheme only): the exact \
     latency/energy optimizer runs first and its group joins the initial \
     population."
  in
  Arg.(value & flag & info [ "warm-start" ] ~doc)

let objective_arg =
  let doc = "GA objective: latency, energy, edp or wear." in
  Arg.(value & opt string "latency" & info [ "o"; "objective" ] ~docv:"OBJ" ~doc)

let faults_arg =
  let doc =
    "Fault scenario, e.g. 'dead:3,7', 'degraded:1=4', 'random:dead=2', \
     'dead:3;endurance:1e6', or 'none' (grammar in docs/FORMATS.md).  The plan \
     routes around dead and degraded cores."
  in
  Arg.(value & opt string "none" & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed for 'random:' fault clauses (deterministic scenarios)." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let seed_arg =
  let doc = "GA random seed." in
  Arg.(value & opt int Ga.default_params.Ga.seed & info [ "seed" ] ~docv:"SEED" ~doc)

let simulate_arg =
  let doc = "Also lower to instructions, simulate, and replay the DRAM trace." in
  Arg.(value & flag & info [ "simulate" ] ~doc)

let quick_arg =
  let doc = "Use a small GA budget (population 24, 10 generations)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let tech_arg =
  let doc = "IMC technology: sram, reram or mram (paper Sec. V-B)." in
  Arg.(value & opt string "sram" & info [ "tech" ] ~docv:"TECH" ~doc)

(* Flags shared across subcommands: each is declared once and reused by
   every subcommand that takes it. *)

let jobs_arg =
  let doc =
    "Worker domains for GA candidate evaluation and for the samples of an \
     inference batch (default: the COMPASS_JOBS environment variable, else 1; \
     0 picks the machine's recommended domain count).  Results are \
     bit-identical for every value."
  in
  let jobs =
    let parse s =
      Result.bind (Arg.conv_parser Arg.int s) (fun n ->
          try Ok (Compass_util.Pool.resolve_jobs n)
          with Invalid_argument msg -> Error (`Msg msg))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt jobs (Compass_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget in seconds.  For a compile or explore search it makes \
     the search anytime: when the deadline expires the search stops and the \
     plan is the best candidate found so far (overrunning by at most one \
     evaluation wave).  For serve it is the default per-request deadline, \
     applied when a request carries no $(b,deadline) line: expired compiles \
     return best-so-far plans marked $(b,degraded); expired inferences are \
     cancelled between layers and answered $(b,timeout)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let task_retries_arg =
  let doc =
    "Supervise parallel workers: re-execute a crashed pool task up to $(docv) \
     times on the main domain before giving up (0, the default, surfaces the \
     first failure as a located diagnostic).  Task evaluation is pure, so a \
     recovered run is bit-identical to an unfailed one."
  in
  Arg.(value & opt int 0 & info [ "task-retries" ] ~docv:"N" ~doc)

(* The GA configuration of every subcommand that searches. *)
let ga_params_arg =
  let ga_params quick seed jobs =
    let base = if quick then Ga.quick_params else Ga.default_params in
    { base with Ga.seed; jobs }
  in
  Term.(const ga_params $ quick_arg $ seed_arg $ jobs_arg)

(* The harness of every subcommand that runs compiler or inference work:
   observability and chaos drills.  [with_harness] honours all three
   flags, so no subcommand body reads them. *)
type harness = {
  trace : string option;
  metrics : bool;
  failpoints : string option;
}

let no_harness = { trace = None; metrics = false; failpoints = None }

let harness_arg =
  let trace =
    let doc =
      "Record a structured trace of the run and write it to $(docv) as Chrome \
       trace_event JSON (open in Perfetto or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Collect typed counters and gauges during the run and print the merged \
       metrics table (plus a span summary when tracing is on) afterwards."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let failpoints =
    let doc =
      "Arm a deterministic failpoint schedule for this run (chaos drills), e.g. \
       'artifact.write.mid=raise@once' or 'pool.task=raise@nth:3'.  Grammar and \
       site catalogue in docs/FORMATS.md; also settable via the \
       COMPASS_FAILPOINTS environment variable."
    in
    Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC" ~doc)
  in
  Term.(
    const (fun trace metrics failpoints -> { trace; metrics; failpoints })
    $ trace $ metrics $ failpoints)

let lookup what hint find name =
  try find name
  with Not_found -> invalid_arg (Printf.sprintf "unknown %s %s (try %s)" what name hint)

let lookup_tech = lookup "technology" "sram, reram, mram" Compass_arch.Technology.by_name

let lookup_model =
  let names = String.concat ", " Compass_nn.Models.all_names in
  lookup "model" names Compass_nn.Models.by_name

let lookup_chip = lookup "chip" "S, M, L" Compass_arch.Config.by_label

let retarget ~tech chip =
  if tech.Compass_arch.Technology.name = "sram" then chip
  else Compass_arch.Technology.chip tech chip

(* Misuse (unknown names, bad fault specs, malformed artifact files,
   infeasible fault scenarios, ...) surfaces as Invalid_argument /
   Located.Error / Sys_error from the library: a one-line diagnostic,
   exit 2.  Every text grammar raises Located.Error, naming its source
   (file, flag or environment variable), line and column.  Injected chaos
   (--failpoints / COMPASS_FAILPOINTS) counts as an environment failure,
   not a bug: Failpoint.Injected and simulated syscall errors also exit
   2, as does a supervised pool task that exhausted its retries on one of
   those.  Anything else (None) is a compass bug. *)
let rec diagnosis = function
  | Invalid_argument msg | Sys_error msg -> Some msg
  | Compass_util.Located.Error e -> Some (Compass_util.Located.render e)
  | Compass_util.Failpoint.Injected site ->
    Some (Printf.sprintf "injected failpoint %s fired" site)
  | Unix.Unix_error (e, fn, arg) ->
    Some
      (Printf.sprintf "%s%s: %s" fn
         (if arg = "" then "" else " " ^ arg)
         (Unix.error_message e))
  | Compass_util.Pool.Task_error { index; attempts; error; _ } ->
    Option.map
      (Printf.sprintf "task %d failed after %d attempt(s): %s" index attempts)
      (diagnosis error)
  | _ -> None

(* Output paths are validated before any compilation work starts, so a
   typo'd --trace/--checkpoint path fails in milliseconds with a located
   diagnostic (exit 2) instead of surfacing as a bare Sys_error after the
   search has already run. *)
let ensure_writable ~flag path =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then
    fail "%s %s: directory %s does not exist" flag path dir
  else if not (Sys.is_directory dir) then fail "%s %s: %s is not a directory" flag path dir
  else if Sys.file_exists path && Sys.is_directory path then
    fail "%s %s: is a directory" flag path
  else
    let probe = if Sys.file_exists path then path else dir in
    match Unix.access probe [ Unix.W_OK ] with
    | () -> ()
    | exception Unix.Unix_error _ -> fail "%s %s: permission denied" flag path

(* A compass bug, as opposed to a user error: exit 3 with a bug-report hint. *)
let bug fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "compass: %s\n\
         This is a bug in compass, not in your input.  Please report it together\n\
         with the exact command line and any input files.\n"
        msg;
      exit 3)
    fmt

(* The run wrapper of every subcommand.  In order: map escaping
   exceptions to exit codes ([diagnosis]: 2, else 3 with a bug-report
   hint), arm failpoints, check the output paths ([outputs] pairs a flag
   with its optional path), enable observability, run [body], then export
   the trace and metrics.  Returns [body]'s result so a caller can exit
   on it after the trace is written.  COMPASS_INTERNAL_FAULT=1 injects a
   synthetic internal failure so the exit-3 path itself is testable. *)
let with_harness ?(harness = no_harness) ?(outputs = []) body =
  try
    (match Sys.getenv_opt "COMPASS_INTERNAL_FAULT" with
    | Some "1" -> failwith "synthetic internal fault (COMPASS_INTERNAL_FAULT=1)"
    | Some _ | None -> ());
    Option.iter
      (fun spec ->
        Compass_util.Located.in_file "--failpoints" (fun () ->
            Compass_util.Failpoint.set spec))
      harness.failpoints;
    List.iter
      (fun (flag, path) -> Option.iter (ensure_writable ~flag) path)
      (outputs @ [ ("--trace", harness.trace) ]);
    if harness.trace <> None then Compass_util.Trace.enable ();
    if harness.metrics then Compass_util.Metrics.enable ();
    let result = body () in
    (match harness.trace with
    | Some path ->
      Compass_util.Trace.save_chrome path;
      Printf.printf "wrote trace to %s (open in Perfetto / chrome://tracing)\n" path
    | None -> ());
    if harness.metrics then begin
      print_newline ();
      print_endline "metrics:";
      Compass_util.Table.print (Report.profile_table ());
      if Compass_util.Trace.enabled () then begin
        print_newline ();
        print_endline "span summary:";
        Compass_util.Table.print (Compass_util.Trace.summary_table ())
      end
    end;
    result
  with e -> (
    match diagnosis e with
    | Some msg ->
      Printf.eprintf "compass: %s\n" msg;
      exit 2
    | None -> bug "internal error: %s" (Printexc.to_string e))

let supervision_of ?watchdog retries =
  if retries < 0 then invalid_arg "--task-retries: must be >= 0"
  else if retries = 0 then None
  else Some (Compass_util.Pool.supervision ~retries ?watchdog ())

(* A torn checkpoint (crash mid-write) is salvaged on resume instead of
   failing it: the recovered generation continues the search, with a
   notice on stdout. *)
let load_checkpoint_salvaging path =
  match Plan_text.load_checkpoint path with
  | ck -> ck
  | exception (Compass_util.Located.Error _ as strict) -> (
    match Plan_text.salvage_checkpoint path with
    | s ->
      Printf.printf "salvaged torn checkpoint %s: resuming from generation %d%s\n%!"
        path s.Plan_text.generation
        (if s.Plan_text.dropped_records > 0 then
           Printf.sprintf " (%d torn history record(s) dropped)" s.Plan_text.dropped_records
         else "");
      s.Plan_text.recovered
    | exception Compass_util.Located.Error _ -> raise strict)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The realized scenario is printed before any work that depends on it. *)
let realize_faults spec ~seed chip =
  let f =
    Compass_util.Located.in_file "--faults" (fun () ->
        Compass_arch.Fault.of_string spec ~seed ~cores:chip.Compass_arch.Config.cores
          ~macros_per_core:chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core)
  in
  if Compass_arch.Fault.is_trivial f then None
  else begin
    Format.printf "%a@." Compass_arch.Fault.pp f;
    Some f
  end

(* info *)

let info_cmd =
  let run () =
    with_harness @@ fun () ->
    print_endline "Hardware presets (paper Table I):";
    Compass_util.Table.print (Compass_arch.Config.table1 ());
    print_newline ();
    print_endline "Model zoo at 4-bit weights (paper Table II):";
    Compass_util.Table.print
      (Compass_nn.Summary.table2
         (List.map Compass_nn.Models.by_name Compass_nn.Models.all_names));
    print_newline ();
    print_endline "Support against chip S (Prev. = all-weights-on-chip compilers):";
    Compass_util.Table.print
      (Report.support_table (Compass_nn.Models.evaluation_models ())
         Compass_arch.Config.chip_s)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print hardware presets and model sizes")
    Term.(const run $ const ())

(* compile *)

let recover_arg =
  let doc =
    "Execute one inference under the fault scenario with self-healing \
     enabled: ABFT column checksums verify every MVM, transient faults are \
     retried with backoff, persistent ones retire the faulty core and remap \
     to spare capacity.  Prints the escalation log and whether the recovered \
     output is bit-identical to the fault-free reference."
  in
  Arg.(value & flag & info [ "recover" ] ~doc)

let fault_at_arg =
  let doc =
    "Fail-stop drill (requires $(b,--faults)): inject the scenario's dead \
     cores into a simulation of the compiled schedule at $(docv) seconds, \
     then repair the plan and measure the recovered schedule."
  in
  Arg.(value & opt (some float) None & info [ "fault-at" ] ~docv:"SECONDS" ~doc)

let compile_cmd =
  let save_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"PATH" ~doc:"Archive the compiled plan (see Plan_text).")
  in
  let checkpoint_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Write a GA checkpoint to $(docv) after every completed generation \
             (atomic write; compass scheme only).")
  in
  let resume_arg =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Resume the GA from a checkpoint written by $(b,--checkpoint).  The \
             resumed search is bit-identical to the uninterrupted one.")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-check the compiled plan with the independent verifier; a \
             violation here is a compass bug and exits 3.")
  in
  let run model chip batch scheme objective ga_params simulate save tech faults
      fault_seed warm_start deadline checkpoint resume verify recover fault_at harness
      task_retries =
    with_harness ~harness ~outputs:[ ("--checkpoint", checkpoint); ("--save", save) ]
    @@ fun () ->
    let model = lookup_model model in
    let chip = retarget ~tech:(lookup_tech tech) (lookup_chip chip) in
    let scheme = Compiler.scheme_of_string scheme in
    let objective = Fitness.objective_of_string objective in
    let faults = realize_faults faults ~seed:fault_seed chip in
    let budget = Option.map (fun s -> Compass_util.Budget.of_deadline s) deadline in
    let supervision = supervision_of ?watchdog:budget task_retries in
    let resume = Option.map load_checkpoint_salvaging resume in
    let on_checkpoint =
      Option.map (fun path ck -> Plan_text.save_checkpoint path ck) checkpoint
    in
    let plan =
      Compiler.compile ~objective ~ga_params ~warm_start ?faults ?budget ?supervision
        ?resume ?on_checkpoint ~model ~chip ~batch scheme
    in
    if plan.Compiler.budget_exhausted then
      Format.printf
        "deadline expired: this plan is the best candidate found within the budget@.";
    if verify then begin
      match Verify.check plan with
      | [] -> Format.printf "verified: plan satisfies all verifier invariants@."
      | violations ->
        bug "the compiled plan fails its own verifier:\n%s" (Verify.render violations)
    end;
    Format.printf "%a" Compiler.pp_plan plan;
    (match plan.Compiler.ga with
    | Some ga ->
      Format.printf "GA: %d generations, %d evaluations, %d distinct spans@."
        ga.Ga.generations_run ga.Ga.evaluations ga.Ga.cache_spans
    | None -> ());
    (match plan.Compiler.dp with
    | Some dp -> Format.printf "%a" Optimal.pp dp
    | None -> ());
    (match save with
    | Some path ->
      Plan_text.save path plan;
      Format.printf "saved plan to %s@." path
    | None -> ());
    if simulate then begin
      let m = Compiler.measure plan in
      Format.printf "@.simulated: makespan %s (estimator %s), %d instructions@."
        (Compass_util.Units.time_to_string m.Compiler.sim.Compass_isa.Sim.makespan_s)
        (Compass_util.Units.time_to_string plan.Compiler.perf.Estimator.batch_latency_s)
        m.Compiler.schedule.Scheduler.instruction_count;
      Format.printf "%a@." Compass_dram.Dram.pp_stats m.Compiler.dram;
      let open Compass_util in
      let table =
        Table.create
          ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
          [ "component"; "estimator"; "simulator"; "sim/est" ]
      in
      let row name est sim =
        Table.add_row table
          [
            name;
            Units.energy_to_string est;
            Units.energy_to_string sim;
            (if est > 0. then Printf.sprintf "%.3f" (sim /. est) else "-");
          ]
      in
      let sim = m.Compiler.sim.Compass_isa.Sim.energy_components in
      List.iter
        (fun (name, est) -> row name est (List.assoc name sim))
        plan.Compiler.perf.Estimator.energy_components;
      row "total" plan.Compiler.perf.Estimator.energy_j
        m.Compiler.sim.Compass_isa.Sim.energy_j;
      Format.printf "energy:@.";
      Table.print table
    end;
    (match fault_at with
    | None -> ()
    | Some at_s -> (
      let faults =
        match faults with
        | Some f -> f
        | None -> invalid_arg "--fault-at needs --faults (the scenario to inject)"
      in
      match Compiler.measure_with_faults plan ~at_s ~faults with
      | Error msg -> invalid_arg ("fault drill: " ^ msg)
      | Ok fr ->
        Format.printf
          "@.fault drill at %s: interrupted batch drained in %s (%d instructions \
           dropped)@."
          (Compass_util.Units.time_to_string at_s)
          (Compass_util.Units.time_to_string
             fr.Compiler.faulted_sim.Compass_isa.Sim.makespan_s)
          fr.Compiler.faulted_sim.Compass_isa.Sim.dropped_instructions;
        Format.printf "repair: %s, latency %s -> %s (x%.2f)@."
          (match fr.Compiler.repair.Compiler.strategy with
          | Compiler.Unchanged -> "mapping moved"
          | Compiler.Remapped n -> Printf.sprintf "%d spans re-split" n
          | Compiler.Recompiled -> "recompiled")
          (Compass_util.Units.time_to_string fr.Compiler.repair.Compiler.latency_before_s)
          (Compass_util.Units.time_to_string fr.Compiler.repair.Compiler.latency_after_s)
          fr.Compiler.repair.Compiler.degradation;
        Format.printf "recovery latency (drain + repaired batch): %s@."
          (Compass_util.Units.time_to_string fr.Compiler.recovery_latency_s)));
    if recover then begin
      let weights = Compass_nn.Executor.random_weights model in
      let input = Compass_nn.Executor.random_input model in
      let r = Recovery.run ~seed:fault_seed ~weights ~input plan in
      Format.printf "@.%a@." Recovery.pp_report r;
      List.iter (fun a -> Format.printf "  %a@." Recovery.pp_action a) r.Recovery.actions;
      if r.Recovery.bit_identical then
        Format.printf "recovered output is bit-identical to the fault-free reference@."
      else
        Format.printf
          "warning: recovered output DIFFERS from the fault-free reference \
           (%d layer(s) degraded)@."
          r.Recovery.degraded_layers
    end
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile one workload with one scheme")
    Term.(
      const run $ model_arg $ chip_arg $ batch_arg $ scheme_arg $ objective_arg
      $ ga_params_arg $ simulate_arg $ save_arg $ tech_arg $ faults_arg $ fault_seed_arg
      $ warm_start_arg $ deadline_arg $ checkpoint_arg $ resume_arg $ verify_flag
      $ recover_arg $ fault_at_arg $ harness_arg $ task_retries_arg)

(* plan: reload an archived plan *)

let plan_file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Archived plan (written by compile --save).")

let plan_cmd =
  let layers_arg =
    Arg.(value & flag & info [ "layers" ] ~doc:"Also print the per-layer table.")
  in
  let run file layers =
    with_harness @@ fun () ->
    let plan = Plan_text.load file in
    Format.printf "%a" Compiler.pp_plan plan;
    if layers then Compass_util.Table.print (Report.plan_layer_table plan)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Reload and re-estimate an archived plan")
    Term.(const run $ plan_file_arg $ layers_arg)

(* verify: independent re-check of an archived plan *)

let verify_cmd =
  let run file harness =
    let violations =
      with_harness ~harness @@ fun () ->
      let violations = Verify.check (Plan_text.load file) in
      print_endline (Verify.render violations);
      violations
    in
    if violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Independently re-check an archived plan against every legality \
          invariant (coverage, capacity, replication, dataflow, endurance).  \
          Exit 0 when clean, 1 when violations are found, 2 when the file \
          cannot be read.")
    Term.(const run $ plan_file_arg $ harness_arg)

(* validity *)

let validity_cmd =
  let cells_arg =
    Arg.(value & opt int 32 & info [ "cells" ] ~docv:"N" ~doc:"Heat-map resolution.")
  in
  let run model chip cells faults fault_seed harness =
    with_harness ~harness @@ fun () ->
    let model = lookup_model model in
    let chip = lookup_chip chip in
    let faults = realize_faults faults ~seed:fault_seed chip in
    let units = Unit_gen.generate model chip in
    let v = Validity.build ?faults units in
    print_endline (Validity.render ~cells v)
  in
  Cmd.v (Cmd.info "validity" ~doc:"Render the partition validity map (Fig. 5)")
    Term.(
      const run $ model_arg $ chip_arg $ cells_arg $ faults_arg $ fault_seed_arg
      $ harness_arg)

(* schedule *)

let schedule_cmd =
  let listing_arg =
    Arg.(value & flag & info [ "listing" ] ~doc:"Dump the per-core instruction listings.")
  in
  let run model chip batch scheme ga_params listing harness =
    with_harness ~harness @@ fun () ->
    let model = lookup_model model in
    let chip = lookup_chip chip in
    let scheme = Compiler.scheme_of_string scheme in
    let plan = Compiler.compile ~ga_params ~model ~chip ~batch scheme in
    let m = Compiler.measure plan in
    Format.printf "%s (%s): %d instructions, weights %s, activations peak %s@."
      (Compiler.label plan)
      (Compiler.scheme_to_string scheme)
      m.Compiler.schedule.Scheduler.instruction_count
      (Compass_util.Units.bytes_to_string
         (float_of_int m.Compiler.schedule.Scheduler.weight_region_bytes))
      (Compass_util.Units.bytes_to_string
         (float_of_int m.Compiler.schedule.Scheduler.activation_high_water_bytes));
    Format.printf "instruction mix: %s@."
      (String.concat ", "
         (List.map
            (fun (k, n) -> Printf.sprintf "%s x%d" k n)
            (Compass_isa.Program.instruction_mix m.Compiler.schedule.Scheduler.programs)));
    print_endline (Compass_isa.Timeline.render m.Compiler.sim);
    if listing then
      List.iter
        (fun p ->
          if Compass_isa.Program.length p > 0 then
            Format.printf "%a@." Compass_isa.Program.pp p)
        m.Compiler.schedule.Scheduler.programs
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Lower a plan to instructions, simulate, show the timeline")
    Term.(
      const run $ model_arg $ chip_arg $ batch_arg $ scheme_arg $ ga_params_arg
      $ listing_arg $ harness_arg)

(* model *)

let model_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Textual model description (.model).")
  in
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"PATH" ~doc:"Also write a Graphviz rendering.")
  in
  let run file dot =
    with_harness ~outputs:[ ("--dot", dot) ] @@ fun () ->
    let g = Compass_nn.Model_text.parse_file file in
    Format.printf "%a" Compass_nn.Graph.pp_summary g;
    Compass_util.Table.print (Compass_nn.Summary.table2 [ g ]);
    match dot with
    | Some path ->
      Compass_util.Artifact.write_atomic path (Compass_nn.Graph.to_dot g);
      Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "model" ~doc:"Parse and summarize a textual model description")
    Term.(const run $ file_arg $ dot_arg)

(* explore *)

let explore_cmd =
  let target_arg =
    Arg.(
      value & opt (some float) None
      & info [ "target" ] ~docv:"INF/S" ~doc:"Find the smallest chip meeting this throughput.")
  in
  let run model ga_params target deadline harness =
    with_harness ~harness @@ fun () ->
    let model = lookup_model model in
    let chips = List.map snd Compass_arch.Config.presets in
    let budget = Option.map (fun s -> Compass_util.Budget.of_deadline s) deadline in
    let points =
      Explore.sweep ?budget ~ga_params ~model ~chips ~batches:[ 1; 4; 16 ] ()
    in
    (match budget with
    | Some b when Compass_util.Budget.exhausted b ->
      Printf.printf "deadline expired: %d point(s) compiled before the cutoff\n"
        (List.length points)
    | Some _ | None -> ());
    Compass_util.Table.print (Explore.points_table points);
    print_endline "\nPareto frontier:";
    Compass_util.Table.print (Explore.points_table (Explore.pareto points));
    match target with
    | None -> ()
    | Some throughput_per_s -> (
      match Explore.cheapest_meeting ~throughput_per_s points with
      | Some p ->
        Printf.printf "\nsmallest chip meeting %.0f inf/s: %s at batch %d\n"
          throughput_per_s p.Explore.chip.Compass_arch.Config.label p.Explore.batch
      | None -> Printf.printf "\nno preset reaches %.0f inf/s\n" throughput_per_s)
  in
  Cmd.v (Cmd.info "explore" ~doc:"Sweep chips and batches; print the Pareto frontier")
    Term.(
      const run $ model_arg $ ga_params_arg $ target_arg $ deadline_arg $ harness_arg)

(* sweep *)

let sweep_cmd =
  let models_arg =
    Arg.(
      value
      & opt (list string) [ "vgg16"; "resnet18"; "squeezenet" ]
      & info [ "models" ] ~docv:"M1,M2" ~doc:"Models to sweep.")
  in
  let chips_arg =
    Arg.(
      value
      & opt (list string) [ "S"; "M"; "L" ]
      & info [ "chips" ] ~docv:"C1,C2" ~doc:"Chip presets to sweep.")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the rows as CSV.")
  in
  let run models chips batch ga_params csv harness =
    with_harness ~harness ~outputs:[ ("--csv", csv) ] @@ fun () ->
    let rows = ref [] in
    List.iter
      (fun mname ->
        List.iter
          (fun clabel ->
            let model = lookup_model mname in
            let chip = lookup_chip clabel in
            rows := !rows @ Report.compare_schemes ~ga_params ~model ~chip ~batch ())
          chips)
      models;
    Compass_util.Table.print (Report.rows_table !rows);
    match csv with
    | Some path ->
      Report.write_csv path !rows;
      Printf.printf "\nwrote %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Compare schemes across workloads (Fig. 6)")
    Term.(
      const run $ models_arg $ chips_arg $ batch_arg $ ga_params_arg $ csv_arg
      $ harness_arg)

(* infer: host functional inference with the im2col/GEMM engine *)

let infer_cmd =
  let engine_arg =
    let doc =
      "Kernel engine: gemm (im2col + cache-blocked GEMM, the default) or naive \
       (the scalar reference — bit-identical, much slower)."
    in
    Arg.(value & opt string "gemm" & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let rounds_arg =
    let doc = "Timed repetitions of the whole batch." in
    Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let check_arg =
    let doc =
      "Also run the first sample through both engines and confirm the outputs \
       are bit-identical (a disagreement is a compass bug and exits 3)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let infer_batch_arg =
    let doc = "Samples per layer traversal (fanned across --jobs domains)." in
    Arg.(value & opt int 1 & info [ "b"; "batch" ] ~docv:"N" ~doc)
  in
  let run model batch engine rounds check seed jobs harness task_retries =
    with_harness ~harness @@ fun () ->
    let supervision = supervision_of task_retries in
    let model = lookup_model model in
    let engine =
      match Compass_nn.Executor.engine_of_string engine with
      | Some e -> e
      | None -> invalid_arg (Printf.sprintf "unknown engine %s (try gemm, naive)" engine)
    in
    if batch < 1 then invalid_arg "infer: batch must be >= 1";
    if rounds < 1 then invalid_arg "infer: rounds must be >= 1";
    let weights = Compass_nn.Executor.random_weights ~seed model in
    let inputs =
      Array.init batch (fun i ->
          Compass_nn.Executor.random_input ~seed:(seed + 100 + i) model)
    in
    let timed f =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let run_rounds pool () =
      for _ = 1 to rounds do
        ignore
          (Compass_nn.Executor.output_batch ~engine ?pool ?supervision model weights
             inputs)
      done
    in
    let elapsed_s =
      if jobs > 1 then
        Compass_util.Pool.with_pool ~jobs (fun pool ->
            timed (run_rounds (Some pool)))
      else timed (run_rounds None)
    in
    let images = batch * rounds in
    Printf.printf "%s: engine %s, batch %d, %d round(s), %d worker(s)\n"
      (Compass_nn.Graph.name model)
      (Compass_nn.Executor.engine_to_string engine)
      batch rounds jobs;
    Printf.printf "%d image(s) in %s: %.2f images/s (%.1f ms/image)\n" images
      (Compass_util.Units.time_to_string elapsed_s)
      (float_of_int images /. elapsed_s)
      (1000. *. elapsed_s /. float_of_int images);
    if check then begin
      let first engine = Compass_nn.Executor.output ~engine model weights inputs.(0) in
      let reference = first Compass_nn.Executor.Naive in
      let fast = first Compass_nn.Executor.Gemm in
      if Compass_nn.Tensor.same_bits reference fast then
        print_endline "check: gemm output is bit-identical to the naive reference"
      else
        bug "gemm and naive engines disagree (max diff %g)"
          (Compass_nn.Tensor.max_abs_diff reference fast)
    end
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Run host functional inference (random weights and inputs) and report \
          serving throughput in images/s.  The gemm engine is bit-identical to \
          the naive reference; batches are fanned across worker domains \
          deterministically.")
    Term.(
      const run $ model_arg $ infer_batch_arg $ engine_arg $ rounds_arg $ check_arg
      $ seed_arg $ jobs_arg $ harness_arg $ task_retries_arg)

(* gap: how far each scheme lands from the DP's certified bound *)

let gap_cmd =
  let run model chip batch objective ga_params harness =
    with_harness ~harness @@ fun () ->
    let model = lookup_model model in
    let chip = lookup_chip chip in
    let objective = Fitness.objective_of_string objective in
    let dp, rows = Report.optimality_gap ~objective ~ga_params ~model ~chip ~batch () in
    Compass_util.Table.print (Report.optimality_gap_table ~objective (dp, rows));
    Format.printf "%a" Optimal.pp dp
  in
  Cmd.v
    (Cmd.info "gap"
       ~doc:"Optimality gap of every scheme against the exact DP bound")
    Term.(
      const run $ model_arg $ chip_arg $ batch_arg $ objective_arg $ ga_params_arg
      $ harness_arg)

(* serve: the resilient long-lived daemon (lib/serve).  Stdio by default
   — stdout is the protocol channel, banners go to stderr — or a unix
   socket with --socket.  First SIGTERM/SIGINT drains (stop admitting,
   finish in-flight work, flush observability, exit 0); a second signal
   aborts with exit 3. *)

let serve_cmd =
  let module Server = Compass_serve.Server in
  let module Protocol = Compass_serve.Protocol in
  let run socket deadline queue_high queue_low retries backoff breaker_threshold
      breaker_cooldown seed jobs harness =
    with_harness ~harness ~outputs:[ ("--socket", socket) ] @@ fun () ->
    let stop = ref false in
    let handler signal =
      if !stop then begin
        Printf.eprintf "compass: serve: second signal (%d) — aborting drain\n%!" signal;
        Stdlib.exit 3
      end
      else stop := true
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    let out = ref Stdlib.stdout in
    let respond resp =
      (* A client that hung up must not take the daemon — or the drain of
         everything still queued — down with it. *)
      try
        output_string !out (Protocol.response_to_string resp);
        Stdlib.flush !out
      with Sys_error _ -> ()
    in
    let config =
      {
        Server.default_config with
        Server.queue_high;
        queue_low =
          (match queue_low with Some l -> l | None -> max 1 (queue_high / 2));
        default_deadline_s = deadline;
        max_retries = retries;
        retry_backoff_s = backoff;
        breaker_threshold;
        breaker_cooldown_s = breaker_cooldown;
        seed;
        jobs;
      }
    in
    let server = Server.create ~config ~respond () in
    Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
    let stop () = !stop in
    (match socket with
    | None ->
      Printf.eprintf "compass serve: reading requests from stdin (end with EOF)\n%!";
      (match Server.run_fd server ~stop Unix.stdin with `Eof | `Stopped -> ())
    | Some path ->
      if Sys.file_exists path then Sys.remove path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          close_quietly sock;
          if Sys.file_exists path then Sys.remove path)
      @@ fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Printf.eprintf "compass serve: listening on %s (SIGTERM drains)\n%!" path;
      let rec accept_loop () =
        if stop () then ()
        else
          match Unix.select [ sock ] [] [] 0.1 with
          | [ _ ], _, _ ->
            let conn, _ = Unix.accept sock in
            let ch = Unix.out_channel_of_descr conn in
            out := ch;
            let outcome = Server.run_fd server ~stop conn in
            (* Finish this client's queued work before hanging up — but
               keep admitting from the next connection, so only answer
               the queue, don't enter the drain state. *)
            while Server.step server do () done;
            (try Stdlib.flush ch with Sys_error _ -> ());
            out := Stdlib.stdout;
            close_quietly conn;
            (match outcome with `Eof -> accept_loop () | `Stopped -> ())
          | _ -> accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ());
    Server.drain server;
    Printf.eprintf "compass serve: drained; %d response(s) emitted\n%!"
      (Server.responded server)
  in
  let socket_arg =
    let doc =
      "Listen on a unix-domain socket at $(docv) (one connection at a time) \
       instead of stdin/stdout.  The socket file is created at startup and \
       unlinked on exit."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let queue_high_arg =
    let doc =
      "Admission-queue high watermark: past $(docv) queued requests, new work \
       is rejected with an $(b,overloaded) note until the queue drains below \
       the low watermark."
    in
    Arg.(value & opt int 64 & info [ "queue-high" ] ~docv:"N" ~doc)
  in
  let queue_low_arg =
    let doc = "Admission-queue low watermark (default: half the high one)." in
    Arg.(value & opt (some int) None & info [ "queue-low" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Re-execute a request that failed transiently (injected failpoints, \
       simulated syscall errors, pool worker crashes) up to $(docv) times, \
       with doubling backoff, before answering $(b,error)."
    in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc =
      "Initial retry backoff in seconds (doubles per retry, capped at 60); the \
       request waits in the queue meanwhile."
    in
    Arg.(value & opt float 0.01 & info [ "retry-backoff" ] ~docv:"SECS" ~doc)
  in
  let breaker_threshold_arg =
    let doc =
      "Open a request class's circuit breaker after $(docv) consecutive \
       failures; while open, requests of that class are rejected immediately."
    in
    Arg.(value & opt int 5 & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown_arg =
    let doc =
      "Initial breaker cooldown in seconds before a half-open probe; doubles \
       per consecutive open (with seeded jitter), capped at 60."
    in
    Arg.(value & opt float 1.0 & info [ "breaker-cooldown" ] ~docv:"SECS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived request daemon: newline-delimited compile/infer/verify \
          requests over stdin/stdout or a unix socket, with bounded admission, \
          per-request deadlines, per-class circuit breakers, transient-failure \
          retry and graceful drain on SIGTERM.  Wire format in docs/FORMATS.md.")
    Term.(
      const run $ socket_arg $ deadline_arg $ queue_high_arg $ queue_low_arg
      $ retries_arg $ backoff_arg $ breaker_threshold_arg $ breaker_cooldown_arg
      $ seed_arg $ jobs_arg $ harness_arg)

(* doctor: self-check of the chaos machinery — supervision, crash
   consistency, salvage.  Runs entirely against temp files and a tiny
   lenet5 search; exit 0 when every drill passes, 1 otherwise. *)

let doctor_cmd =
  let run () =
    with_harness @@ fun () ->
    let failures = ref 0 in
    let checks = ref 0 in
    let expect cond fmt =
      Printf.ksprintf (fun msg -> if not cond then failwith msg) fmt
    in
    let check name f =
      incr checks;
      match f () with
      | () -> Printf.printf "doctor: %-30s ok\n%!" name
      | exception e ->
        incr failures;
        Printf.printf "doctor: %-30s FAIL: %s\n%!" name (Printexc.to_string e)
    in
    let with_temp_dir f =
      let dir = Filename.temp_file "compass-doctor" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Unix.rmdir dir)
        (fun () -> f dir)
    in
    let open Compass_util in
    check "failpoint schedule" (fun () ->
        Failpoint.with_schedule "doctor.drill=raise@nth:2" @@ fun () ->
        Failpoint.guard "doctor.drill";
        (match Failpoint.guard "doctor.drill" with
        | () -> failwith "nth:2 rule did not fire on the second hit"
        | exception Failpoint.Injected "doctor.drill" -> ());
        expect (Failpoint.hits "doctor.drill" = 2) "expected 2 recorded hits";
        expect (Failpoint.fired () = [ ("doctor.drill", 1) ]) "expected 1 recorded firing");
    check "pool task diagnostics" (fun () ->
        (* At jobs = 1 tasks run in index order, so the 3rd pool.task
           guard is task index 2 — the located diagnostic must say so. *)
        Pool.with_pool ~jobs:1 @@ fun p ->
        Failpoint.with_schedule "pool.task=raise@nth:3" @@ fun () ->
        match Pool.map p succ (Array.init 8 Fun.id) with
        | _ -> failwith "injected worker crash did not surface"
        | exception Pool.Task_error { index = 2; attempts = 1; error = Failpoint.Injected "pool.task"; _ } -> ()
        | exception Pool.Task_error { index; _ } ->
          failwith (Printf.sprintf "Task_error located at index %d, expected 2" index));
    check "pool supervised recovery" (fun () ->
        Pool.with_pool ~jobs:1 @@ fun p ->
        Failpoint.with_schedule "pool.task=raise@nth:3" @@ fun () ->
        let supervision = Pool.supervision ~retries:2 () in
        let got = Pool.map ~supervision p succ (Array.init 8 Fun.id) in
        expect (got = Array.init 8 (fun i -> i + 1))
          "supervised retry did not reproduce the unfailed result");
    check "artifact crash consistency" (fun () ->
        with_temp_dir @@ fun dir ->
        let path = Filename.concat dir "artifact.txt" in
        (Failpoint.with_schedule "artifact.write.rename=enospc@once" @@ fun () ->
         match Artifact.write_atomic path "doomed" with
         | () -> failwith "injected ENOSPC did not surface"
         | exception Sys_error msg ->
           expect
             (String.length msg >= String.length path)
             "diagnostic %S does not name the path" msg);
        expect
          (Array.length (Sys.readdir dir) = 0)
          "failed write left litter behind (temp file not cleaned)";
        Artifact.write_atomic path "payload";
        expect (Artifact.read_file path = "payload") "clean write did not round-trip");
    check "artifact EINTR retry" (fun () ->
        with_temp_dir @@ fun dir ->
        let path = Filename.concat dir "artifact.txt" in
        (Failpoint.with_schedule "artifact.write.syscall=eintr@once" @@ fun () ->
         Artifact.write_atomic path "interrupted once");
        expect
          (Artifact.read_file path = "interrupted once")
          "EINTR was not retried transparently");
    check "checkpoint salvage" (fun () ->
        let units =
          Unit_gen.generate (Compass_nn.Models.by_name "lenet5") Compass_arch.Config.chip_s
        in
        let v = Validity.build units in
        let ctx = Dataflow.context units in
        let params = { Ga.quick_params with Ga.seed = 11; jobs = 1 } in
        let last = ref None in
        ignore (Ga.optimize ~params ~on_checkpoint:(fun ck -> last := Some ck) ctx v ~batch:4);
        let last = Option.get !last in
        let text = Plan_text.checkpoint_to_string last in
        (* A snapshot torn inside the history section: the population
           survives, only reporting records are dropped. *)
        let cut =
          let marker = "\nrecords " in
          let rec find i =
            if i + String.length marker > String.length text then String.length text * 2 / 3
            else if String.sub text i (String.length marker) = marker then
              i + String.length marker + 3
            else find (i + 1)
          in
          min (find 0) (String.length text)
        in
        let s = Plan_text.salvage_of_string (String.sub text 0 cut) in
        expect
          (s.Plan_text.generation = last.Ga.ck_generation)
          "torn-history salvage lost the newest generation");
    check "serve socket lifecycle" (fun () ->
        (* The daemon's socket plumbing, end to end: create, bind (file
           appears), listen, connect, accept, round-trip one framed ping
           request's bytes, unlink (file gone). *)
        with_temp_dir @@ fun dir ->
        let path = Filename.concat dir "compass.sock" in
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> close_quietly srv)
          (fun () ->
            Unix.bind srv (Unix.ADDR_UNIX path);
            Unix.listen srv 1;
            expect (Sys.file_exists path) "bind did not create the socket file";
            let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> close_quietly client)
              (fun () ->
                Unix.connect client (Unix.ADDR_UNIX path);
                let conn, _ = Unix.accept srv in
                Fun.protect
                  ~finally:(fun () -> close_quietly conn)
                  (fun () ->
                    let msg = "request doctor-1 ping\nend\n" in
                    let n = Unix.write_substring client msg 0 (String.length msg) in
                    expect (n = String.length msg) "short write on the socket";
                    let buf = Bytes.create 64 in
                    let n = Unix.read conn buf 0 64 in
                    expect
                      (Bytes.sub_string buf 0 n = msg)
                      "socket did not round-trip the request bytes")));
        Sys.remove path;
        expect (not (Sys.file_exists path)) "unlink left the socket file behind");
    check "serve signal handling" (fun () ->
        (* The drain path's first move is installing a SIGTERM handler;
           verify a handler installed the same way actually runs. *)
        let hit = ref false in
        let prev = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> hit := true)) in
        Fun.protect
          ~finally:(fun () -> Sys.set_signal Sys.sigterm prev)
          (fun () ->
            Unix.kill (Unix.getpid ()) Sys.sigterm;
            let deadline = Unix.gettimeofday () +. 1.0 in
            while (not !hit) && Unix.gettimeofday () < deadline do
              ignore (Sys.opaque_identity (ref 0))
            done;
            expect !hit "SIGTERM handler did not run within 1 s"));
    check "salvage rejects hopeless input" (fun () ->
        (match Plan_text.salvage_of_string "not a checkpoint at all" with
        | _ -> failwith "garbage salvaged"
        | exception Compass_util.Located.Error _ -> ());
        match Plan_text.salvage_of_string "compass-ga-checkpoint 1\nobjective lat" with
        | _ -> failwith "checkpoint with no population salvaged"
        | exception Compass_util.Located.Error _ -> ());
    if !failures = 0 then
      Printf.printf "doctor: all %d checks passed\n" !checks
    else begin
      Printf.eprintf "compass: doctor: %d of %d check(s) failed\n" !failures !checks;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Self-check the chaos-hardening machinery: failpoint schedules, \
          supervised worker recovery, crash-consistent artifact writes, and \
          torn-checkpoint salvage.  Exit 0 when every drill passes, 1 \
          otherwise.")
    Term.(const run $ const ())

let () =
  let doc = "COMPASS: compiler for resource-constrained crossbar PIM accelerators" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let status =
    Cmd.eval
      (Cmd.group ~default
         (Cmd.info "compass" ~version:"1.0.0" ~doc)
         [
           info_cmd; compile_cmd; validity_cmd; sweep_cmd; gap_cmd; schedule_cmd;
           model_cmd; explore_cmd; plan_cmd; verify_cmd; infer_cmd; serve_cmd;
           doctor_cmd;
         ])
  in
  (* cmdliner reports a usage error (a bad flag value, an unknown option)
     as 124 and an exception it caught as 125; the documented contract is
     2 and 3. *)
  exit
    (if status = Cmd.Exit.cli_error then 2
     else if status = Cmd.Exit.internal_error then 3
     else status)
