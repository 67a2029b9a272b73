(* Tests for plan serialization and the per-layer report. *)

open Compass_core
open Compass_arch

let quick = Ga.quick_params

let compile ?(batch = 8) name scheme =
  Compiler.compile ~ga_params:quick ~model:(Compass_nn.Models.by_name name)
    ~chip:Config.chip_s ~batch scheme

let test_roundtrip_zoo_plan () =
  let plan = compile "resnet18" Compiler.Compass in
  let reloaded = Plan_text.of_string (Plan_text.to_string plan) in
  Alcotest.(check bool) "same group" true
    (Partition.equal plan.Compiler.group reloaded.Compiler.group);
  Alcotest.(check int) "same batch" plan.Compiler.batch reloaded.Compiler.batch;
  Alcotest.(check bool) "same scheme" true (reloaded.Compiler.scheme = Compiler.Compass);
  Alcotest.(check (float 1e-12)) "same estimated latency"
    plan.Compiler.perf.Estimator.batch_latency_s
    reloaded.Compiler.perf.Estimator.batch_latency_s

let test_roundtrip_custom_model () =
  (* Non-zoo models are embedded inline via Model_text. *)
  let model =
    Compass_nn.Model_text.parse
      "model custom9\ninput in 3x16x16\nconv c1 from in out=8 kernel=3\nrelu r from c1\ngap g from r\nlinear fc from g out=4\n"
  in
  let plan =
    Compiler.compile ~ga_params:quick ~model ~chip:Config.chip_s ~batch:2 Compiler.Greedy
  in
  let text = Plan_text.to_string plan in
  Alcotest.(check bool) "embeds the model" true (Located_check.contains text "model-text");
  let reloaded = Plan_text.of_string text in
  Alcotest.(check string) "model name survives" "custom9"
    (Compass_nn.Graph.name reloaded.Compiler.model);
  Alcotest.(check bool) "same group" true
    (Partition.equal plan.Compiler.group reloaded.Compiler.group)

let test_save_load_file () =
  let plan = compile "lenet5" Compiler.Greedy in
  let path = Filename.temp_file "compass" ".plan" in
  Plan_text.save path plan;
  let reloaded = Plan_text.load path in
  Sys.remove path;
  Alcotest.(check bool) "same group" true
    (Partition.equal plan.Compiler.group reloaded.Compiler.group)

let expect ~line ?col ~mentions text =
  Located_check.expect_located ~line ?col ~mentions (fun () -> Plan_text.of_string text)

(* A lenet5 plan up to its cuts line (line 7). *)
let header =
  "compass-plan 1\nmodel lenet5\nchip S\nbatch 2\nobjective latency\nscheme greedy\n"

let test_load_errors () =
  expect ~line:1 ~col:1 ~mentions:"malformed line" "garbage";
  expect ~line:0 ~mentions:"not a compass-plan" "note hello\n";
  expect ~line:0 ~mentions:"missing field model"
    "compass-plan 1\nchip S\nbatch 2\nobjective latency\nscheme greedy\ncuts 0 1\n";
  expect ~line:1 ~col:14 ~mentions:"unsupported compass-plan version \"9\"" "compass-plan 9\n";
  expect ~line:2 ~col:7 ~mentions:"unknown zoo model"
    "compass-plan 1\nmodel nosuch\nchip S\nbatch 2\nobjective latency\nscheme greedy\n\
     cuts 0 1\n";
  expect ~line:7 ~col:6 ~mentions:"cover" (header ^ "cuts 0 1\n");
  expect ~line:4 ~col:7 ~mentions:"bad batch"
    "compass-plan 1\nmodel lenet5\nchip S\nbatch 0\nobjective latency\nscheme greedy\n\
     cuts 0 5\n";
  (* The offending cut, not just its line. *)
  expect ~line:7 ~col:8 ~mentions:"bad cuts \"1 x 3\"" (header ^ "cuts 1 x 3\n");
  expect ~line:7 ~col:6 ~mentions:"invalid cuts" (header ^ "cuts 0 0\n")

(* Nested grammars report at the host's line and column, with their own
   message and no second prefix. *)
let test_nested_errors_shifted () =
  let faulty = header ^ "cuts 0 5\nfaults dead:banana\n" in
  expect ~line:8 ~col:13 ~mentions:"bad core \"banana\"" faulty;
  (match Plan_text.of_string faulty with
  | _ -> Alcotest.fail "bad fault spec accepted"
  | exception Compass_util.Located.Error e ->
    Alcotest.(check string) "one prefix"
      "bad core \"banana\" (expected a non-negative integer)" e.msg);
  (* Semantic fault errors still name the stored spec. *)
  expect ~line:8 ~col:8 ~mentions:"bad faults \"dead:99\""
    (header ^ "cuts 0 5\nfaults dead:99\n");
  (* An inline model's error lands on the plan's line and column. *)
  let inline =
    "compass-plan 1\nmodel custom\nchip S\nbatch 2\nobjective latency\nscheme greedy\n\
     cuts 0 1\nmodel-text\nmodel custom\ninput in 8\nlinear fc from in out=banana\n"
  in
  expect ~line:11 ~col:23 ~mentions:"attribute out" inline

let test_wrong_chip_rejected () =
  (* Cuts computed for chip S do not cover the chip L decomposition. *)
  let plan = compile "resnet18" Compiler.Greedy in
  let text = Plan_text.to_string plan in
  let retargeted =
    String.concat "\n"
      (List.map
         (fun line -> if line = "chip S" then "chip L" else line)
         (String.split_on_char '\n' text))
  in
  expect ~line:7 ~col:6 ~mentions:"different hardware" retargeted

let test_plan_layer_table () =
  let plan = compile "resnet18" Compiler.Compass in
  let table = Report.plan_layer_table plan in
  (* One row per (layer, partition) stage entry. *)
  let stage_rows =
    List.fold_left
      (fun acc sp -> acc + List.length sp.Estimator.stage_times)
      0 plan.Compiler.perf.Estimator.spans
  in
  Alcotest.(check int) "row per stage" stage_rows (Compass_util.Table.row_count table)

let () =
  Alcotest.run "plan_text"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "zoo plan" `Quick test_roundtrip_zoo_plan;
          Alcotest.test_case "custom model plan" `Quick test_roundtrip_custom_model;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
        ] );
      ( "errors",
        [
          Alcotest.test_case "load errors" `Quick test_load_errors;
          Alcotest.test_case "wrong chip rejected" `Quick test_wrong_chip_rejected;
          Alcotest.test_case "nested errors shifted" `Quick test_nested_errors_shifted;
        ] );
      ( "report",
        [ Alcotest.test_case "per-layer table" `Quick test_plan_layer_table ] );
    ]
