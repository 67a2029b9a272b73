(* Tests for the reference tensor operators, the functional executor,
   quantization and partitioned-execution equivalence. *)

open Compass_nn
open Compass_core

let fm ~c ~h ~w data =
  Helpers.tensor_of_array (Shape.feature_map ~channels:c ~height:h ~width:w) data

(* Tensor operators on hand-checked examples. *)

let test_conv_identity_kernel () =
  (* A centered 1 in a 3x3 kernel with same padding is the identity. *)
  let input = fm ~c:1 ~h:3 ~w:3 [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  let conv =
    match Layer.conv ~in_channels:1 ~out_channels:1 3 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  let weights = [| 0.; 0.; 0.; 0.; 1.; 0.; 0.; 0.; 0. |] in
  let out = Tensor.conv2d conv ~weights input in
  Alcotest.(check bool) "identity" true (Tensor.equal input out)

let test_conv_sum_kernel () =
  (* An all-ones 3x3 kernel computes padded neighbourhood sums. *)
  let input = fm ~c:1 ~h:2 ~w:2 [| 1.; 2.; 3.; 4. |] in
  let conv =
    match Layer.conv ~in_channels:1 ~out_channels:1 3 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  let out = Tensor.conv2d conv ~weights:(Array.make 9 1.) input in
  Alcotest.(check (float 1e-9)) "corner sums all" 10. (Tensor.to_array out).(0);
  Alcotest.(check (float 1e-9)) "all corners equal" 10. (Tensor.to_array out).(3)

let test_conv_stride_downsamples () =
  let input = fm ~c:1 ~h:4 ~w:4 (Array.init 16 float_of_int) in
  let conv =
    match Layer.conv ~stride:2 ~padding:0 ~in_channels:1 ~out_channels:1 1 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  let out = Tensor.conv2d conv ~weights:[| 1. |] input in
  Alcotest.(check bool) "2x2 output" true
    (Shape.equal (Tensor.shape out) (Shape.feature_map ~channels:1 ~height:2 ~width:2));
  Alcotest.(check (float 1e-9)) "picks strided corners" 10. (Tensor.to_array out).(3);
  Alcotest.(check (float 1e-9)) "top-right corner" 2. (Tensor.to_array out).(1)

let test_conv_multichannel () =
  (* Two input channels summed by a 1x1 kernel of ones. *)
  let input = fm ~c:2 ~h:1 ~w:1 [| 3.; 4. |] in
  let conv =
    match Layer.conv ~padding:0 ~in_channels:2 ~out_channels:1 1 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  let out = Tensor.conv2d conv ~weights:[| 1.; 1. |] input in
  Alcotest.(check (float 1e-9)) "channel sum" 7. (Tensor.to_array out).(0)

let test_linear () =
  let input = Helpers.tensor_of_array (Shape.vector 3) [| 1.; 2.; 3. |] in
  let weights = [| 1.; 0.; 0.; 0.; 1.; 1. |] in
  let out = Tensor.linear ~in_features:3 ~out_features:2 ~weights input in
  Alcotest.(check (float 1e-9)) "row 0" 1. (Tensor.to_array out).(0);
  Alcotest.(check (float 1e-9)) "row 1" 5. (Tensor.to_array out).(1)

let test_pools () =
  let input = fm ~c:1 ~h:2 ~w:2 [| 1.; 2.; 3.; 4. |] in
  let mx = Tensor.max_pool ~kernel:2 ~stride:2 ~padding:0 input in
  let av = Tensor.avg_pool ~kernel:2 ~stride:2 ~padding:0 input in
  Alcotest.(check (float 1e-9)) "max" 4. (Tensor.to_array mx).(0);
  Alcotest.(check (float 1e-9)) "avg" 2.5 (Tensor.to_array av).(0);
  let gap = Tensor.global_avg_pool input in
  Alcotest.(check (float 1e-9)) "gap" 2.5 (Tensor.to_array gap).(0)

let test_elementwise () =
  let a = fm ~c:1 ~h:1 ~w:2 [| -1.; 2. |] in
  let b = fm ~c:1 ~h:1 ~w:2 [| 3.; -5. |] in
  Alcotest.(check (float 1e-9)) "relu clamps" 0. (Tensor.to_array (Tensor.relu a)).(0);
  Alcotest.(check (float 1e-9)) "add" 2. (Tensor.to_array (Tensor.add a b)).(0);
  let cat = Tensor.concat [ a; b ] in
  Alcotest.(check int) "concat size" 4 (Array.length (Tensor.to_array cat));
  Alcotest.(check (float 1e-9)) "concat order" 3. (Tensor.to_array cat).(2);
  let flat = Tensor.flatten a in
  Alcotest.(check bool) "flatten shape" true
    (Shape.equal (Tensor.shape flat) (Shape.vector 2))

let test_shape_guards () =
  let a = fm ~c:1 ~h:1 ~w:2 [| 1.; 2. |] in
  let b = Helpers.tensor_of_array (Shape.vector 2) [| 1.; 2. |] in
  Alcotest.(check bool) "add mismatch" true
    (try
       ignore (Tensor.add a b);
       false
     with Invalid_argument _ -> true)

let test_depthwise_conv () =
  (* Depthwise 1x1 with per-channel weight = channel scaling. *)
  let input = fm ~c:2 ~h:1 ~w:2 [| 1.; 2.; 3.; 4. |] in
  let dw =
    match Layer.depthwise ~padding:0 ~channels:2 1 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  let out = Tensor.conv2d dw ~weights:[| 10.; 100. |] input in
  Alcotest.(check (float 1e-9)) "channel 0 scaled" 10. (Tensor.to_array out).(0);
  Alcotest.(check (float 1e-9)) "channel 1 scaled" 300. (Tensor.to_array out).(2)

let test_grouped_conv_blocks () =
  (* groups=2 over 4 channels: output group 1 ignores input group 0. *)
  let input = fm ~c:4 ~h:1 ~w:1 [| 1.; 2.; 4.; 8. |] in
  let grouped =
    match Layer.conv ~padding:0 ~groups:2 ~in_channels:4 ~out_channels:2 1 with
    | Layer.Conv c -> c
    | _ -> assert false
  in
  (* Each output channel sums its group's two inputs. *)
  let out = Tensor.conv2d grouped ~weights:[| 1.; 1.; 1.; 1. |] input in
  Alcotest.(check (float 1e-9)) "group 0" 3. (Tensor.to_array out).(0);
  Alcotest.(check (float 1e-9)) "group 1" 12. (Tensor.to_array out).(1)

let test_mobilenet_block_equivalence () =
  (* A depthwise-separable model survives partitioning functionally. *)
  let text =
    "model dwnet\ninput in 4x8x8\nconv stem from in out=8 kernel=3\nrelu r0 from stem\n\
     depthwise dw from r0 kernel=3\nrelu r1 from dw\nconv pw from r1 out=8 kernel=1 pad=0\n\
     relu r2 from pw\ngap g from r2\nlinear fc from g out=4\n"
  in
  let model = Model_text.parse text in
  let chip = Compass_arch.Config.custom ~label:"tiny" ~cores:2 ~macros_per_core:2 () in
  let units = Compass_core.Unit_gen.generate model chip in
  let v = Compass_core.Validity.build units in
  let ctx = Compass_core.Dataflow.context units in
  let weights = Executor.random_weights model in
  let input = Executor.random_input model in
  let rng = Compass_util.Rng.create 77 in
  for _ = 1 to 5 do
    let g = Compass_core.Validity.random_group rng v in
    Alcotest.(check bool) "depthwise partitioned equivalence" true
      (Compass_core.Partition_exec.matches_reference ctx g weights input)
  done

(* Executor *)

let test_executor_shapes_match_inference () =
  List.iter
    (fun name ->
      let g = Models.by_name name in
      let weights = Executor.random_weights g in
      let input = Executor.random_input g in
      let lookup = Executor.run g weights input in
      List.iter
        (fun node ->
          Alcotest.(check bool)
            (Printf.sprintf "%s node %d shape" name node)
            true
            (Shape.equal (Graph.shape_of g node) (Tensor.shape (lookup node))))
        (Graph.nodes g))
    [ "lenet5"; "tiny_resnet"; "tiny_mlp" ]

let test_executor_deterministic () =
  let g = Models.lenet5 () in
  let w = Executor.random_weights g in
  let x = Executor.random_input g in
  let a = Executor.output g w x in
  let b = Executor.output g w x in
  Alcotest.(check bool) "same output" true (Tensor.equal a b)

let test_executor_missing_weights () =
  let g = Models.by_name "tiny_mlp" in
  let x = Executor.random_input g in
  Alcotest.(check bool) "missing weights rejected" true
    (try
       ignore (Executor.output g (Hashtbl.create 1) x);
       false
     with Invalid_argument _ -> true)

let test_executor_relu_nonnegative () =
  let g = Models.lenet5 () in
  let w = Executor.random_weights g in
  let x = Executor.random_input g in
  let lookup = Executor.run g w x in
  let relu_node =
    List.find (fun n -> (Graph.layer g n).Layer.op = Layer.Relu) (Graph.nodes g)
  in
  let t = Tensor.to_array (lookup relu_node) in
  Alcotest.(check bool) "non-negative" true (Array.for_all (fun v -> v >= 0.) t)

(* Quant *)

let test_quant_roundtrip_range () =
  let data = [| -1.0; -0.3; 0.; 0.4; 1.0 |] in
  let q, spec = Quant.quantize ~bits:4 data in
  Alcotest.(check int) "bits kept" 4 spec.Quant.bits;
  Alcotest.(check (float 1e-9)) "peak preserved" 1.0 (abs_float q.(4));
  Alcotest.(check bool) "error bounded by scale/2" true
    (Array.for_all2 (fun x y -> abs_float (x -. y) <= (spec.Quant.scale /. 2.) +. 1e-12) data q)

let test_quant_zero_input () =
  let q, spec = Quant.quantize ~bits:4 [| 0.; 0. |] in
  Alcotest.(check (float 0.)) "zeros stay" 0. q.(0);
  Alcotest.(check (float 0.)) "scale 1" 1. spec.Quant.scale

let test_quant_codes_bounded () =
  let data = Array.init 100 (fun i -> sin (float_of_int i)) in
  let q, spec = Quant.quantize ~bits:4 data in
  let codes = Quant.codes spec q in
  Array.iter
    (fun c -> Alcotest.(check bool) "4-bit symmetric" true (c >= -7 && c <= 7))
    codes

let test_quant_more_bits_less_error () =
  let data = Array.init 257 (fun i -> cos (float_of_int i /. 10.)) in
  let q4, _ = Quant.quantize ~bits:4 data in
  let q8, _ = Quant.quantize ~bits:8 data in
  Alcotest.(check bool) "8b better than 4b" true
    (Quant.mean_squared_error ~original:data ~quantized:q8
    < Quant.mean_squared_error ~original:data ~quantized:q4)

let test_quant_weights_executable () =
  let g = Models.lenet5 () in
  let w = Executor.random_weights g in
  let wq = Quant.quantize_weights ~bits:4 w in
  let x = Executor.random_input g in
  let ref_out = Executor.output g w x in
  let q_out = Executor.output g wq x in
  (* Quantized output differs but stays in the same ballpark. *)
  Alcotest.(check bool) "finite outputs" true
    (Array.for_all Float.is_finite (Tensor.to_array q_out));
  Alcotest.(check bool) "not wildly off" true
    (Tensor.max_abs_diff ref_out q_out < 1.)

let test_quant_storage () =
  Alcotest.(check int) "4b x 1000" 4000 (Quant.storage_bits ~bits:4 1000)

(* Partition_exec: the functional-equivalence theorem of the compiler. *)

let tiny_chip = Compass_arch.Config.custom ~label:"tiny" ~cores:2 ~macros_per_core:2 ()

let setup name chip =
  let model = Models.by_name name in
  let units = Unit_gen.generate model chip in
  let v = Validity.build units in
  (model, v, Dataflow.context units)

let test_partitioned_equals_reference () =
  List.iter
    (fun name ->
      let model, v, ctx = setup name tiny_chip in
      let weights = Executor.random_weights model in
      let input = Executor.random_input model in
      let rng = Compass_util.Rng.create 5 in
      for _ = 1 to 5 do
        let g = Validity.random_group rng v in
        Alcotest.(check bool)
          (Printf.sprintf "%s %d partitions" name (Partition.partition_count g))
          true
          (Partition_exec.matches_reference ctx g weights input)
      done)
    [ "lenet5"; "tiny_resnet"; "tiny_mlp" ]

let test_partitioned_matches_compiled_plans () =
  (* The actual plans the compiler produces (all three schemes) preserve the
     function too. *)
  let model, v, ctx = setup "tiny_resnet" tiny_chip in
  let weights = Executor.random_weights model in
  let input = Executor.random_input model in
  List.iter
    (fun g ->
      Alcotest.(check bool) "compiled plan equivalent" true
        (Partition_exec.matches_reference ctx g weights input))
    [ Baselines.greedy v; Baselines.layerwise v ]

let test_traffic_within_dataflow_sets () =
  (* Every observed load/store is predicted by the span-io analysis. *)
  let model, v, ctx = setup "tiny_resnet" tiny_chip in
  let weights = Executor.random_weights model in
  let input = Executor.random_input model in
  let rng = Compass_util.Rng.create 9 in
  for _ = 1 to 5 do
    let g = Validity.random_group rng v in
    let r = Partition_exec.run ctx g weights input in
    let ios = Helpers.group_io ctx g in
    List.iter
      (fun e ->
        let io = ios.(e.Partition_exec.partition) in
        match e.Partition_exec.direction with
        | `Load ->
          Alcotest.(check bool) "load predicted" true
            (List.mem_assoc e.Partition_exec.node io.Dataflow.loads)
        | `Store ->
          Alcotest.(check bool) "store predicted" true
            (List.mem_assoc e.Partition_exec.node io.Dataflow.stores))
      r.Partition_exec.traffic
  done;
  ignore model

let test_single_partition_traffic_minimal () =
  let model, v, ctx = setup "lenet5" Compass_arch.Config.chip_s in
  ignore v;
  let weights = Executor.random_weights model in
  let input = Executor.random_input model in
  let m = Unit_gen.unit_count (Dataflow.units ctx) in
  let r = Partition_exec.run ctx (Partition.singleton m) weights input in
  (* One load (the input) and one store (the output). *)
  Alcotest.(check int) "2 transfers" 2 (List.length r.Partition_exec.traffic);
  Alcotest.(check int) "one partition" 1 r.Partition_exec.partitions_executed

let test_quantized_partitioned_execution () =
  (* 4-bit weights through a multi-partition plan: the full deployment
     story (quantize -> partition -> execute) stays consistent. *)
  let model, v, ctx = setup "lenet5" tiny_chip in
  let weights = Quant.quantize_weights ~bits:4 (Executor.random_weights model) in
  let input = Executor.random_input model in
  let g = Baselines.greedy v in
  Alcotest.(check bool) "quantized equivalence" true
    (Partition_exec.matches_reference ctx g weights input)

(* Random branchy DAG models: stem conv, a fork that reconverges through
   Add or Concat, optional pooling, classifier head. *)
let random_dag_model seed =
  let rng = Compass_util.Rng.create seed in
  let g = Graph.create ~name:(Printf.sprintf "dag%d" seed) () in
  let input =
    Graph.add g "in" (Layer.Input (Shape.feature_map ~channels:3 ~height:16 ~width:16))
  in
  let channels = 4 + (2 * Compass_util.Rng.int rng 3) in
  let stem =
    Graph.add g ~inputs:[ input ] "stem"
      (Layer.conv ~in_channels:3 ~out_channels:channels 3)
  in
  let act = Graph.add g ~inputs:[ stem ] "stem_relu" Layer.Relu in
  (* Fork. *)
  let left =
    Graph.add g ~inputs:[ act ] "left"
      (Layer.conv ~in_channels:channels ~out_channels:channels 3)
  in
  let right =
    Graph.add g ~inputs:[ act ] "right"
      (Layer.conv ~in_channels:channels ~out_channels:channels 1)
  in
  let joined =
    if Compass_util.Rng.bool rng then
      Graph.add g ~inputs:[ left; right ] "join" Layer.Add
    else Graph.add g ~inputs:[ left; right ] "join" Layer.Concat
  in
  let joined_c =
    match Graph.shape_of g joined with
    | Shape.Feature_map { channels; _ } -> channels
    | Shape.Vector { features } -> features
  in
  let pooled =
    if Compass_util.Rng.bool rng then
      Graph.add g ~inputs:[ joined ] "pool" (Layer.max_pool ~kernel:2 ~stride:2 ())
    else joined
  in
  let tail =
    Graph.add g ~inputs:[ pooled ] "tail"
      (Layer.conv ~in_channels:joined_c ~out_channels:8 3)
  in
  let gap = Graph.add g ~inputs:[ tail ] "gap" Layer.Global_avg_pool in
  let _fc =
    Graph.add g ~inputs:[ gap ] "fc" (Layer.linear ~in_features:8 ~out_features:4)
  in
  g

let prop_random_dags_equivalent =
  QCheck.Test.make ~name:"random DAG models survive partitioning" ~count:20
    QCheck.small_int (fun seed ->
      let model = random_dag_model seed in
      (match Graph.validate model with Ok () -> () | Error e -> failwith e);
      let units = Unit_gen.generate model tiny_chip in
      let v = Validity.build units in
      let ctx = Dataflow.context units in
      let weights = Executor.random_weights ~seed model in
      let input = Executor.random_input ~seed model in
      let rng = Compass_util.Rng.create (seed + 1000) in
      List.for_all
        (fun g -> Partition_exec.matches_reference ctx g weights input)
        [
          Baselines.greedy v;
          Baselines.layerwise v;
          Validity.random_group rng v;
          Validity.random_group rng v;
        ])

let test_row_split_equivalence () =
  (* macros_per_core = 1 forces input-dimension splits (partial sums); the
     partitioned function must still be exact. *)
  let chip = Compass_arch.Config.custom ~label:"one" ~cores:4 ~macros_per_core:1 () in
  let model = Models.lenet5 () in
  let units = Compass_core.Unit_gen.generate model chip in
  let v = Compass_core.Validity.build units in
  let ctx = Compass_core.Dataflow.context units in
  let weights = Executor.random_weights model in
  let input = Executor.random_input model in
  let rng = Compass_util.Rng.create 21 in
  for _ = 1 to 5 do
    let g = Compass_core.Validity.random_group rng v in
    Alcotest.(check bool) "row-split equivalence" true
      (Compass_core.Partition_exec.matches_reference ctx g weights input)
  done

let prop_random_groups_equivalent =
  QCheck.Test.make ~name:"partitioned execution always equals reference" ~count:15
    QCheck.small_int (fun seed ->
      let model, v, ctx = setup "tiny_resnet" tiny_chip in
      let weights = Executor.random_weights model in
      let input = Executor.random_input model in
      let g = Validity.random_group (Compass_util.Rng.create seed) v in
      Partition_exec.matches_reference ctx g weights input)

let () =
  Alcotest.run "executor"
    [
      ( "tensor",
        [
          Alcotest.test_case "conv identity" `Quick test_conv_identity_kernel;
          Alcotest.test_case "conv sum" `Quick test_conv_sum_kernel;
          Alcotest.test_case "conv stride" `Quick test_conv_stride_downsamples;
          Alcotest.test_case "conv multichannel" `Quick test_conv_multichannel;
          Alcotest.test_case "linear" `Quick test_linear;
          Alcotest.test_case "pools" `Quick test_pools;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "shape guards" `Quick test_shape_guards;
          Alcotest.test_case "depthwise conv" `Quick test_depthwise_conv;
          Alcotest.test_case "grouped conv blocks" `Quick test_grouped_conv_blocks;
          Alcotest.test_case "mobilenet block equivalence" `Quick
            test_mobilenet_block_equivalence;
        ] );
      ( "executor",
        [
          Alcotest.test_case "shapes match inference" `Quick
            test_executor_shapes_match_inference;
          Alcotest.test_case "deterministic" `Quick test_executor_deterministic;
          Alcotest.test_case "missing weights" `Quick test_executor_missing_weights;
          Alcotest.test_case "relu non-negative" `Quick test_executor_relu_nonnegative;
        ] );
      ( "quant",
        [
          Alcotest.test_case "roundtrip range" `Quick test_quant_roundtrip_range;
          Alcotest.test_case "zero input" `Quick test_quant_zero_input;
          Alcotest.test_case "codes bounded" `Quick test_quant_codes_bounded;
          Alcotest.test_case "more bits less error" `Quick test_quant_more_bits_less_error;
          Alcotest.test_case "quantized weights execute" `Quick
            test_quant_weights_executable;
          Alcotest.test_case "storage" `Quick test_quant_storage;
        ] );
      ( "partition_exec",
        [
          Alcotest.test_case "equals reference" `Quick test_partitioned_equals_reference;
          Alcotest.test_case "compiled plans equivalent" `Quick
            test_partitioned_matches_compiled_plans;
          Alcotest.test_case "traffic within dataflow sets" `Quick
            test_traffic_within_dataflow_sets;
          Alcotest.test_case "single partition minimal" `Quick
            test_single_partition_traffic_minimal;
          Alcotest.test_case "quantized partitioned execution" `Quick
            test_quantized_partitioned_execution;
          Alcotest.test_case "row-split equivalence" `Quick test_row_split_equivalence;
          QCheck_alcotest.to_alcotest prop_random_groups_equivalent;
          QCheck_alcotest.to_alcotest prop_random_dags_equivalent;
        ] );
    ]
