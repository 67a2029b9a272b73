(* The metric and span catalogue of docs/FORMATS.md ("Trace and metrics
   output") against the code, both ways.  Every name a run emits is
   listed: a quick compile with simulation, a partitioned and a batched
   inference, and a few serve steps run with tracing and metrics on, and
   each name they record must match a documented one.  A [<placeholder>]
   segment of a documented name matches any one segment; a histogram row
   also documents its derived [.count], [.p50] and [.p99] names.  And
   every listed name is still emitted somewhere: its literal part, up to
   the first placeholder segment, opens a string literal in some [.ml]
   under lib/ or bin/. *)

open Compass_core
open Compass_util

let formats = "../docs/FORMATS.md"

(* The backticked names in the first cell of each table row of the
   section, each with whether its row documents a histogram. *)
let rows text =
  let lines = String.split_on_char '\n' text in
  let rec section inside = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"## " l ->
      if inside then [] else section (String.starts_with ~prefix:"## Trace and metrics" l) rest
    | l :: rest -> if inside then l :: section inside rest else section inside rest
  in
  let backticked cell =
    String.split_on_char '`' cell |> List.filteri (fun i _ -> i mod 2 = 1)
  in
  List.concat_map
    (fun line ->
      match String.split_on_char '|' line with
      | "" :: first :: meaning :: _ when String.contains first '`' ->
        let histogram = String.starts_with ~prefix:"(histogram)" (String.trim meaning) in
        List.map (fun n -> (n, histogram)) (backticked first)
      | _ -> [])
    (section false lines)

let catalogue () =
  List.concat_map
    (fun (n, histogram) ->
      if histogram then [ n; n ^ ".count"; n ^ ".p50"; n ^ ".p99" ] else [ n ])
    (rows (Artifact.read_file formats))

let placeholder s = String.length s > 1 && s.[0] = '<' && s.[String.length s - 1] = '>'

let documented catalogue name =
  let segments = String.split_on_char '.' in
  List.exists
    (fun pattern ->
      let p = segments pattern and n = segments name in
      List.length p = List.length n
      && List.for_all2 (fun p n -> placeholder p || p = n) p n)
    catalogue

(* The concatenated text of every [.ml] under [dirs]. *)
let sources dirs =
  let b = Buffer.create (1 lsl 20) in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then Buffer.add_string b (Artifact.read_file path)
  in
  List.iter walk dirs;
  Buffer.contents b

(* A documented name's literal part: its segments up to the first
   placeholder, with the dot that precedes the placeholder. *)
let literal name =
  let rec take = function
    | [] -> []
    | s :: _ when placeholder s -> [ "" ]
    | s :: rest -> s :: take rest
  in
  String.concat "." (take (String.split_on_char '.' name))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Documented names whose literal part opens no string literal in
   [source]. *)
let stale source rows =
  List.filter_map
    (fun (name, _) -> if contains ~sub:("\"" ^ literal name) source then None else Some name)
    rows

let workload () =
  let model = Compass_nn.Models.by_name "lenet5" in
  let chip = Compass_arch.Config.chip_s in
  (* compass compile --quick --simulate, then the exact DP search. *)
  let plan =
    Compiler.compile ~ga_params:{ Ga.quick_params with Ga.jobs = 1 } ~model ~chip ~batch:2
      Compiler.Compass
  in
  ignore (Compiler.measure plan);
  ignore (Compiler.compile ~model ~chip ~batch:2 Compiler.Optimal);
  (* Partitioned replay and batched inference. *)
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  ignore (Partition_exec.run plan.Compiler.ctx plan.Compiler.group weights input);
  ignore (Compass_nn.Executor.output_batch model weights [| input; input |]);
  (* Serve steps, one request shed at the watermark. *)
  let config = { Compass_serve.Server.default_config with queue_high = 2; queue_low = 1 } in
  let server = Compass_serve.Server.create ~config ~respond:ignore () in
  List.iter
    (Compass_serve.Server.submit server)
    [
      [ "request p ping" ];
      [ "request i infer"; "model tiny_mlp"; "batch 1"; "seed 0" ];
      [ "request c compile"; "model lenet5"; "chip S"; "batch 2"; "seed 0"; "quick true" ];
      [ "request s infer"; "model tiny_mlp"; "batch 1"; "seed 1" ];
      [ "garbage" ];
    ];
  Compass_serve.Server.drain server;
  Compass_serve.Server.close server

let test_names_documented () =
  Trace.reset ();
  Metrics.reset ();
  Trace.enable ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ();
      Trace.reset ();
      Metrics.reset ())
  @@ fun () ->
  workload ();
  let catalogue = catalogue () in
  let spans =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()))
  in
  let metrics = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 10);
  Alcotest.(check bool) "metrics recorded" true (List.length metrics > 20);
  Alcotest.(check bool) "a request was shed" true (List.mem "serve.shed" metrics);
  List.iter
    (fun name ->
      if not (documented catalogue name) then
        Alcotest.failf "%S is emitted but not in the %s catalogue" name formats)
    (spans @ metrics)

let test_matching () =
  let catalogue = [ "serve.status.<status>"; "sim.core.<id>.instrs"; "dram.reads" ] in
  let check name want =
    Alcotest.(check bool) name want (documented catalogue name)
  in
  check "serve.status.ok" true;
  check "sim.core.3.instrs" true;
  check "dram.reads" true;
  check "serve.status" false;
  check "sim.core.3.instrs.extra" false;
  check "dram.writes" false

let test_documented_names_emitted () =
  let source = sources [ "../lib"; "../bin" ] in
  Alcotest.(check (list string))
    "documented but emitted nowhere" []
    (stale source (rows (Artifact.read_file formats)))

let test_planted_stale_row () =
  (* A row for a metric the code no longer emits must be caught. *)
  let source = sources [ "../lib"; "../bin" ] in
  let planted =
    String.concat "\n"
      (List.concat_map
         (fun l ->
           if String.starts_with ~prefix:"| `sim.checks` |" l then
             [ l; "| `sim.detections` | ABFT checksum mismatches |" ]
           else [ l ])
         (String.split_on_char '\n' (Artifact.read_file formats)))
  in
  Alcotest.(check (list string)) "planted row reported" [ "sim.detections" ]
    (stale source (rows planted));
  Alcotest.(check string) "literal part" "sim.core." (literal "sim.core.<id>.instrs");
  Alcotest.(check string) "whole name" "dram.reads" (literal "dram.reads")

let () =
  Alcotest.run "catalogue"
    [
      ( "catalogue",
        [
          Alcotest.test_case "placeholder matching" `Quick test_matching;
          Alcotest.test_case "emitted names documented" `Quick test_names_documented;
          Alcotest.test_case "documented names emitted" `Quick test_documented_names_emitted;
          Alcotest.test_case "planted stale row caught" `Quick test_planted_stale_row;
        ] );
    ]
