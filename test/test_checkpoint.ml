(* GA checkpoint/resume: serialization round trips, crash-safe writes, and
   the golden bit-identical-resume contract. *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

let params = { Ga.quick_params with Ga.seed = 11; jobs = 1 }

let history_testable =
  let record_eq (a : Ga.generation_record) (b : Ga.generation_record) =
    a.Ga.generation = b.Ga.generation
    && a.Ga.best_fitness = b.Ga.best_fitness
    && a.Ga.selected = b.Ga.selected
    && a.Ga.mutated = b.Ga.mutated
  in
  Alcotest.testable
    (fun ppf h -> Format.fprintf ppf "<%d records>" (List.length h))
    (fun a b -> List.length a = List.length b && List.for_all2 record_eq a b)

(* The golden test of the resume contract: a search resumed from any
   generation-k checkpoint lands on exactly the run the uninterrupted
   search produced — same best group, same fitness, same history. *)
let test_resume_bit_identical () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let checkpoints = ref [] in
  let full =
    Ga.optimize ~params ~on_checkpoint:(fun ck -> checkpoints := ck :: !checkpoints)
      ctx v ~batch:4
  in
  Alcotest.(check bool) "saw checkpoints" true (List.length !checkpoints > 1);
  List.iter
    (fun ck ->
      (* Serialize through the text format, so the golden check covers the
         full save/load path, float precision included. *)
      let ck = Helpers.checkpoint_of_string (Plan_text.checkpoint_to_string ck) in
      let resumed = Ga.optimize ~params ~resume:ck ctx v ~batch:4 in
      let tag = Printf.sprintf "gen %d: " ck.Ga.ck_generation in
      Alcotest.(check bool)
        (tag ^ "same best group") true
        (Partition.equal full.Ga.best.Ga.group resumed.Ga.best.Ga.group);
      Alcotest.(check (float 0.))
        (tag ^ "same best fitness") full.Ga.best.Ga.fitness resumed.Ga.best.Ga.fitness;
      Alcotest.check history_testable (tag ^ "same history") full.Ga.history
        resumed.Ga.history;
      Alcotest.(check int)
        (tag ^ "same generations") full.Ga.generations_run resumed.Ga.generations_run)
    !checkpoints

let test_checkpoint_stream_unchanged_by_tracing () =
  (* The serialized checkpoint stream — RNG state, floats, everything —
     must be byte-identical with tracing and metrics enabled: the
     observability layer rides along without touching the search. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let capture () =
    let texts = ref [] in
    ignore
      (Ga.optimize ~params
         ~on_checkpoint:(fun ck -> texts := Plan_text.checkpoint_to_string ck :: !texts)
         ctx v ~batch:4);
    List.rev !texts
  in
  let untraced = capture () in
  let open Compass_util in
  Trace.reset ();
  Metrics.reset ();
  Trace.enable ();
  Metrics.enable ();
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Metrics.disable ();
        Trace.reset ();
        Metrics.reset ())
      capture
  in
  Alcotest.(check (list string)) "byte-identical checkpoint stream" untraced traced

let test_resume_jobs_agnostic () =
  (* Resuming with a different worker count must not change the result. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let captured = ref None in
  let full =
    Ga.optimize ~params
      ~on_checkpoint:(fun ck -> if ck.Ga.ck_generation = 2 then captured := Some ck)
      ctx v ~batch:4
  in
  match !captured with
  | None -> Alcotest.fail "no generation-2 checkpoint"
  | Some ck ->
    let resumed =
      Ga.optimize ~params:{ params with Ga.jobs = 2 } ~resume:ck ctx v ~batch:4
    in
    Alcotest.(check bool) "same best group" true
      (Partition.equal full.Ga.best.Ga.group resumed.Ga.best.Ga.group);
    Alcotest.(check (float 0.)) "same fitness" full.Ga.best.Ga.fitness
      resumed.Ga.best.Ga.fitness

let test_roundtrip_fixed_point () =
  (* to_string (of_string s) = s: the parser loses nothing the writer
     emits, floats included. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let captured = ref None in
  ignore (Ga.optimize ~params ~on_checkpoint:(fun ck -> captured := Some ck) ctx v ~batch:4);
  match !captured with
  | None -> Alcotest.fail "no checkpoint"
  | Some ck ->
    let text = Plan_text.checkpoint_to_string ck in
    let reparsed = Helpers.checkpoint_of_string text in
    Alcotest.(check string) "fixed point" text (Plan_text.checkpoint_to_string reparsed)

let capture_one () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let captured = ref None in
  ignore (Ga.optimize ~params ~on_checkpoint:(fun ck -> captured := Some ck) ctx v ~batch:4);
  Option.get !captured

let test_save_is_atomic () =
  let ck = capture_one () in
  let dir = Filename.temp_file "compass" ".ckdir" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "ck.txt" in
  Plan_text.save_checkpoint path ck;
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  (* No temporary litter: the tmp file was renamed over the target. *)
  Alcotest.(check (list string)) "only the artifact" [ "ck.txt" ]
    (Array.to_list (Sys.readdir dir));
  let reloaded = Plan_text.load_checkpoint path in
  Alcotest.(check string) "reload matches"
    (Plan_text.checkpoint_to_string ck)
    (Plan_text.checkpoint_to_string reloaded);
  Sys.remove path;
  Unix.rmdir dir

let expect ~line ?col ~mentions text =
  Located_check.expect_located ~line ?col ~mentions (fun () ->
      Helpers.checkpoint_of_string text)

let test_corrupt_loads () =
  let ck = capture_one () in
  let text = Plan_text.checkpoint_to_string ck in
  expect ~line:0 ~mentions:"not a compass-ga-checkpoint" "";
  expect ~line:1 ~col:1 ~mentions:"not a compass-ga-checkpoint" "plain garbage\n";
  expect ~line:1 ~col:23 ~mentions:"unsupported compass-ga-checkpoint version"
    "compass-ga-checkpoint 99\n";
  (* Truncation at every line boundary either parses (never silently
     wrong) or produces a located diagnostic. *)
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  for keep = 0 to n - 2 do
    let truncated =
      String.concat "\n" (List.filteri (fun i _ -> i < keep) lines) ^ "\n"
    in
    match Helpers.checkpoint_of_string truncated with
    | _ -> Alcotest.failf "truncation to %d lines parsed" keep
    | exception Compass_util.Located.Error _ -> ()
  done;
  (* Field-level corruption is located at the field's value. *)
  let corrupt_field key bad =
    String.concat "\n"
      (List.map
         (fun l ->
           match String.index_opt l ' ' with
           | Some i when String.sub l 0 i = key -> key ^ " " ^ bad
           | _ -> l)
         lines)
  in
  expect ~line:5 ~col:11 ~mentions:"bad rng-state" (corrupt_field "rng-state" "xyzzy");
  expect ~line:3 ~col:7 ~mentions:"bad batch" (corrupt_field "batch" "many");
  expect ~line:6 ~col:11 ~mentions:"bad best-seen" (corrupt_field "best-seen" "fast");
  expect ~line:15 ~col:15 ~mentions:"unknown mutation scheme \"warp\""
    (corrupt_field "schemes" "merge,warp");
  expect ~line:n ~col:1 ~mentions:"trailing content" (text ^ "surplus line\n")

(* Checkpoints written while the GA still had a crossover extension
   carry a [crossover-rate 0] line right after [schemes].  They keep
   loading and resume to the uninterrupted run; a nonzero legacy rate is
   a located load error rather than a silently different search. *)
let test_legacy_crossover_line () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let captured = ref None in
  let full =
    Ga.optimize ~params
      ~on_checkpoint:(fun ck -> if ck.Ga.ck_generation = 2 then captured := Some ck)
      ctx v ~batch:4
  in
  let text = Plan_text.checkpoint_to_string (Option.get !captured) in
  let legacy rate =
    String.split_on_char '\n' text
    |> List.concat_map (fun l ->
           if String.starts_with ~prefix:"schemes " l then [ l; "crossover-rate " ^ rate ]
           else [ l ])
    |> String.concat "\n"
  in
  let ck = Helpers.checkpoint_of_string (legacy "0") in
  Alcotest.(check string) "rewritten without the legacy line" text
    (Plan_text.checkpoint_to_string ck);
  let resumed = Ga.optimize ~params ~resume:ck ctx v ~batch:4 in
  Alcotest.(check bool) "same best group" true
    (Partition.equal full.Ga.best.Ga.group resumed.Ga.best.Ga.group);
  Alcotest.(check (float 0.)) "same best fitness" full.Ga.best.Ga.fitness
    resumed.Ga.best.Ga.fitness;
  Alcotest.check history_testable "same history" full.Ga.history resumed.Ga.history;
  expect ~line:16 ~col:16 ~mentions:"crossover-rate 0.3 is no longer supported" (legacy "0.3")

let test_resume_rejects_wrong_model () =
  (* A checkpoint carries partitions for one validity map; resuming it
     against another model must be refused, not silently mis-searched. *)
  let _, v_lenet, ctx_lenet = setup "lenet5" Config.chip_s in
  let captured = ref None in
  ignore
    (Ga.optimize ~params
       ~on_checkpoint:(fun ck -> captured := Some ck)
       ctx_lenet v_lenet ~batch:4);
  let ck = Option.get !captured in
  let _, v_other, ctx_other = setup "resnet18" Config.chip_s in
  (match Ga.optimize ~params ~resume:ck ctx_other v_other ~batch:4 with
  | _ -> Alcotest.fail "resume against the wrong model succeeded"
  | exception Invalid_argument _ -> ());
  match Ga.optimize ~params ~resume:{ ck with Ga.ck_batch = 8 } ctx_lenet v_lenet ~batch:4 with
  | _ -> Alcotest.fail "resume with a different batch succeeded"
  | exception Invalid_argument _ -> ()

let test_budget_exhausted_flag () =
  (* An instantly expired budget still returns a best-so-far candidate,
     flagged; an unlimited run is not flagged. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let r = Ga.optimize ~params ctx v ~batch:4 in
  Alcotest.(check bool) "unbounded not flagged" false r.Ga.budget_exhausted;
  let now = ref 0. in
  let b = Compass_util.Budget.of_deadline ~now:(fun () -> !now) 0. in
  let r = Ga.optimize ~params ~budget:b ctx v ~batch:4 in
  Alcotest.(check bool) "flagged" true r.Ga.budget_exhausted;
  Alcotest.(check bool) "still returns a plan" true
    (r.Ga.best.Ga.fitness < Float.infinity);
  (* At most one wave beyond expiry at jobs = 1: exactly one candidate. *)
  Alcotest.(check int) "one grace evaluation" 1 r.Ga.evaluations

let test_anytime_prefix_of_full_run () =
  (* A run cut mid-search is a prefix of the unbounded run, not a
     different search: every generation it completed matches the full
     run's record for that generation. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let full = Ga.optimize ~params ctx v ~batch:4 in
  (* Expire the injected clock after a fixed number of reads, landing
     somewhere inside the search; the exact landing spot is irrelevant to
     the prefix property. *)
  let reads = ref 0 in
  let now () =
    incr reads;
    if !reads > 60 then 10. else 0.
  in
  let b = Compass_util.Budget.of_deadline ~now 5. in
  let cut = Ga.optimize ~params ~budget:b ctx v ~batch:4 in
  Alcotest.(check bool) "cut short" true cut.Ga.budget_exhausted;
  Alcotest.(check bool) "fewer generations" true
    (cut.Ga.generations_run <= full.Ga.generations_run);
  Alcotest.(check bool) "cut best is a valid group" true
    (Validity.group_valid v cut.Ga.best.Ga.group);
  (* All but the cut run's final record (whose offspring wave may be
     incomplete) must equal the full run's records verbatim. *)
  let completed =
    (* Oldest-first, without the final (possibly incomplete) record. *)
    match List.rev cut.Ga.history with [] -> [] | _ :: rest -> List.rev rest
  in
  let full_prefix =
    List.filteri (fun i _ -> i < List.length completed) full.Ga.history
  in
  Alcotest.check history_testable "completed generations match" full_prefix completed

let () =
  Alcotest.run "checkpoint"
    [
      ( "resume",
        [
          Alcotest.test_case "bit-identical resume (golden)" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "jobs-agnostic resume" `Quick test_resume_jobs_agnostic;
          Alcotest.test_case "checkpoint stream unchanged by tracing" `Quick
            test_checkpoint_stream_unchanged_by_tracing;
          Alcotest.test_case "rejects wrong model/batch" `Quick
            test_resume_rejects_wrong_model;
        ] );
      ( "format",
        [
          Alcotest.test_case "serialization fixed point" `Quick
            test_roundtrip_fixed_point;
          Alcotest.test_case "atomic save" `Quick test_save_is_atomic;
          Alcotest.test_case "corrupt loads diagnosed" `Quick test_corrupt_loads;
          Alcotest.test_case "legacy crossover-rate line" `Quick
            test_legacy_crossover_line;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "budget_exhausted flag" `Quick test_budget_exhausted_flag;
          Alcotest.test_case "anytime is a prefix" `Quick test_anytime_prefix_of_full_run;
        ] );
    ]
