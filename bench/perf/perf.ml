(* The COMPASS benchmark.

     perf.exe run --workload NAME --seed N [--seconds S] [--trace [0|1]]
                  [--out FILE] [--trace-out FILE] [--spec BENCHMARK.json]
     perf.exe diff BASE.json NEW.json [--spec BENCHMARK.json]
     perf.exe smoke [--spec BENCHMARK.json]

   [run] prints every metric as a table and, as its last line, the
   one-line summary object of the declared metrics; it exits 1 when a
   correctness check fails.  See bench/perf/README.md. *)

open Compass_perf

let workloads =
  [
    ("compile_sweep", Workloads.compile_sweep);
    ("simulate_sweep", Workloads.simulate_sweep);
    ("infer_batch", Workloads.infer_batch);
    ("serve_mix", Workloads.serve_mix_workload);
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

let is_flag = String.starts_with ~prefix:"--"

(* Positional arguments, and flags as (name, value) pairs; [--trace]
   alone means [--trace 1]. *)
let parse args =
  let rec go pos flags = function
    | "--trace" :: (("0" | "1") as v) :: rest -> go pos (("--trace", v) :: flags) rest
    | "--trace" :: rest -> go pos (("--trace", "1") :: flags) rest
    | flag :: v :: rest when is_flag flag -> go pos ((flag, v) :: flags) rest
    | [ flag ] when is_flag flag -> die "flag %s needs a value" flag
    | arg :: rest -> go (arg :: pos) flags rest
    | [] -> (List.rev pos, List.rev flags)
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let number flags name of_string =
  Option.map
    (fun v -> match of_string v with Some n -> n | None -> die "%s: not a number: %s" name v)
    (flag flags name)

let spec_of flags =
  Report.load_spec (Option.value (flag flags "--spec") ~default:"BENCHMARK.json")

let execute spec ~workload (cfg : Workloads.config) =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None ->
      die "unknown workload %s (one of %s)" workload
        (String.concat ", " (List.map fst workloads))
  in
  if not (List.mem workload spec.Report.workloads) then
    die "workload %s is not declared in the spec" workload;
  let o : Workloads.outcome = run cfg in
  let per_layer =
    match List.rev o.traced_passes with last :: _ when cfg.traced -> last | _ -> []
  in
  let metrics = per_layer @ o.metrics in
  let r =
    {
      Report.workload;
      seed = cfg.seed;
      traced = cfg.traced;
      correct = o.failed = 0;
      attempted = o.attempted;
      failed = o.failed;
      metrics = List.map (fun m -> (m, Report.bound_of spec m)) metrics;
    }
  in
  (r, o)

let run_cmd args =
  let flags =
    match parse args with [], flags -> flags | arg :: _, _ -> die "unexpected argument %s" arg
  in
  let spec = spec_of flags in
  let workload =
    match flag flags "--workload" with
    | Some w -> w
    | None -> die "run: --workload is required"
  in
  let cfg =
    {
      Workloads.seed = Option.value (number flags "--seed" int_of_string_opt) ~default:1;
      seconds =
        Option.value (number flags "--seconds" float_of_string_opt)
          ~default:spec.Report.run_seconds;
      traced = flag flags "--trace" = Some "1";
      smoke = false;
    }
  in
  let r, o = execute spec ~workload cfg in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) o.failures;
  (match Report.missing_end_to_end spec r with
  | [] -> ()
  | missing ->
    die "%s reports no %s" workload
      (String.concat ", " (List.map (fun d -> d.Report.d_name) missing)));
  if cfg.traced then begin
    let path =
      Option.value (flag flags "--trace-out")
        ~default:(Filename.concat "bench/perf/out" (workload ^ ".trace.json"))
    in
    let dir = Filename.dirname path in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       Compass_util.Trace.save_chrome path;
       prerr_endline ("chrome trace: " ^ path)
     with Sys_error e -> prerr_endline ("chrome trace not written: " ^ e))
  end;
  Option.iter (fun path -> Report.append path r) (flag flags "--out");
  print_string (Report.table r);
  print_newline ();
  print_endline (Report.summary_line spec r);
  exit (if r.Report.correct then 0 else 1)

let diff_cmd args =
  let base, fresh, flags =
    match parse args with
    | [ b; n ], flags -> (b, n, flags)
    | _ -> die "usage: perf.exe diff BASE.json NEW.json [--spec BENCHMARK.json]"
  in
  let rows =
    Report.diff (spec_of flags) ~base:(Report.load_runs base) ~fresh:(Report.load_runs fresh)
  in
  print_string (Report.diff_table rows);
  let count v = List.length (List.filter (fun r -> r.Report.verdict = v) rows) in
  Printf.printf "\n%d rows: %d better, %d same, %d worse, %d unresolved\n" (List.length rows)
    (count Report.Better) (count Report.Same) (count Report.Worse)
    (count Report.Unresolved);
  exit (if count Report.Worse > 0 then 1 else 0)

(* Every workload in miniature, untraced and traced: every declared
   metric is reported somewhere with its declared unit and direction,
   every value is finite, every check passes, and the two traced
   passes allocate exactly alike. *)
let smoke_cmd args =
  let spec = spec_of (snd (parse args)) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let seen = Hashtbl.create 128 in
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let cfg = { Workloads.seed = 1; seconds = 0.; traced; smoke = true } in
          let (r, o), dt = Measure.timed (fun () -> execute spec ~workload cfg) in
          Printf.printf "%-15s %-8s %5.2fs  %d checks, %d failed\n%!" workload
            (if traced then "traced" else "untraced") dt r.Report.attempted r.Report.failed;
          List.iter (problem "%s: check failed: %s" workload) o.failures;
          List.iter
            (fun ((m : Measure.metric), _) ->
              Hashtbl.replace seen m.name ();
              if not (Float.is_finite m.value) then
                problem "%s: %s is %f" workload m.name m.value;
              if m.unit_ = "" then problem "%s: %s has no unit" workload m.name;
              match Report.find_declared spec m.name with
              | Some d when d.d_unit <> m.unit_ || d.d_better <> m.better ->
                problem "%s: %s reports unit %s, %s; declared %s, %s" workload m.name
                  m.unit_ (Measure.better_to_string m.better) d.d_unit
                  (Measure.better_to_string d.d_better)
              | _ -> ())
            r.Report.metrics;
          match o.traced_passes with
          | [ a; b ] ->
            List.iter2
              (fun (x : Measure.metric) (y : Measure.metric) ->
                if x.exact && x.value <> y.value then
                  problem "%s: %s differs between traced passes: %.0f vs %.0f" workload x.name
                    x.value y.value)
              a b
          | _ -> if traced then problem "%s: expected two traced passes" workload)
        [ false; true ])
    spec.Report.workloads;
  List.iter
    (fun d ->
      if not (Hashtbl.mem seen d.Report.d_name) then
        problem "no workload reports %s" d.Report.d_name)
    (spec.Report.end_to_end @ spec.Report.per_layer);
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_cmd args
  | _ :: "diff" :: args -> diff_cmd args
  | _ :: "smoke" :: args -> smoke_cmd args
  | _ -> die "usage: perf.exe (run|diff|smoke) ...; see bench/perf/README.md"
