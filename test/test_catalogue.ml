(* Every metric and span name a run emits is listed in the catalogue of
   docs/FORMATS.md ("Trace and metrics output"): a quick compile with
   simulation, a partitioned and a batched inference, and a few serve
   steps run with tracing and metrics on, and each name they record must
   match a documented one.  A [<placeholder>] segment of a documented
   name matches any one segment; a histogram row also documents its
   derived [.count], [.p50] and [.p99] names. *)

open Compass_core
open Compass_util

let formats = "../docs/FORMATS.md"

(* The backticked names in the first cell of each table row of the
   section. *)
let catalogue () =
  let lines = String.split_on_char '\n' (Artifact.read_file formats) in
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
        let names = backticked first in
        if String.starts_with ~prefix:"(histogram)" (String.trim meaning) then
          List.concat_map (fun n -> [ n; n ^ ".count"; n ^ ".p50"; n ^ ".p99" ]) names
        else names
      | _ -> [])
    (section false lines)

let documented catalogue name =
  let segments = String.split_on_char '.' in
  let placeholder s = String.length s > 1 && s.[0] = '<' && s.[String.length s - 1] = '>' in
  List.exists
    (fun pattern ->
      let p = segments pattern and n = segments name in
      List.length p = List.length n
      && List.for_all2 (fun p n -> placeholder p || p = n) p n)
    catalogue

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

let () =
  Alcotest.run "catalogue"
    [
      ( "catalogue",
        [
          Alcotest.test_case "placeholder matching" `Quick test_matching;
          Alcotest.test_case "emitted names documented" `Quick test_names_documented;
        ] );
    ]
