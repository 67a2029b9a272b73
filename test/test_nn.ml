(* Tests for the model IR: shapes, layers, graphs, the model zoo. *)

open Compass_nn

let check_shape = Alcotest.testable (Fmt.of_to_string Shape.to_string) Shape.equal

(* Shape *)

let test_shape_elements () =
  Alcotest.(check int) "fmap" (3 * 224 * 224)
    (Shape.elements (Shape.feature_map ~channels:3 ~height:224 ~width:224));
  Alcotest.(check int) "vector" 4096 (Shape.elements (Shape.vector 4096))

let test_shape_bytes () =
  Alcotest.(check (float 1e-9)) "4-bit" 0.5
    (Shape.bytes ~activation_bits:4 (Shape.vector 1));
  Alcotest.(check (float 1e-9)) "8-bit" 100.
    (Shape.bytes ~activation_bits:8 (Shape.vector 100))

let test_shape_invalid () =
  Alcotest.check_raises "zero channels"
    (Invalid_argument "Shape.feature_map: non-positive dimension") (fun () ->
      ignore (Shape.feature_map ~channels:0 ~height:1 ~width:1));
  Alcotest.check_raises "zero vector"
    (Invalid_argument "Shape.vector: non-positive dimension") (fun () ->
      ignore (Shape.vector 0))

(* Layer *)

let test_conv_output_shape () =
  let op = Layer.conv ~in_channels:3 ~out_channels:64 3 in
  let out =
    Layer.output_shape op [ Shape.feature_map ~channels:3 ~height:224 ~width:224 ]
  in
  Alcotest.check check_shape "same padding"
    (Shape.feature_map ~channels:64 ~height:224 ~width:224)
    out

let test_conv_stride () =
  let op = Layer.conv ~stride:2 ~padding:3 ~in_channels:3 ~out_channels:64 7 in
  let out =
    Layer.output_shape op [ Shape.feature_map ~channels:3 ~height:224 ~width:224 ]
  in
  Alcotest.check check_shape "resnet stem"
    (Shape.feature_map ~channels:64 ~height:112 ~width:112)
    out

let test_conv_channel_mismatch () =
  let op = Layer.conv ~in_channels:3 ~out_channels:8 3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Layer.output_shape op [ Shape.feature_map ~channels:4 ~height:8 ~width:8 ]);
       false
     with Invalid_argument _ -> true)

let test_linear_shapes () =
  let op = Layer.linear ~in_features:400 ~out_features:120 in
  Alcotest.check check_shape "vector out" (Shape.vector 120)
    (Layer.output_shape op [ Shape.vector 400 ]);
  Alcotest.(check bool) "fmap rejected" true
    (try
       ignore
         (Layer.output_shape op [ Shape.feature_map ~channels:1 ~height:20 ~width:20 ]);
       false
     with Invalid_argument _ -> true)

let test_pool_output () =
  let op = Layer.max_pool ~kernel:2 ~stride:2 () in
  Alcotest.check check_shape "halved"
    (Shape.feature_map ~channels:64 ~height:112 ~width:112)
    (Layer.output_shape op [ Shape.feature_map ~channels:64 ~height:224 ~width:224 ])

let test_add_shapes () =
  let s = Shape.feature_map ~channels:8 ~height:4 ~width:4 in
  Alcotest.check check_shape "add" s (Layer.output_shape Layer.Add [ s; s ]);
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Layer.output_shape Layer.Add [ s; Shape.vector 128 ]);
       false
     with Invalid_argument _ -> true)

let test_concat_shapes () =
  let a = Shape.feature_map ~channels:64 ~height:55 ~width:55 in
  let b = Shape.feature_map ~channels:64 ~height:55 ~width:55 in
  Alcotest.check check_shape "concat"
    (Shape.feature_map ~channels:128 ~height:55 ~width:55)
    (Layer.output_shape Layer.Concat [ a; b ])

let test_flatten_gap () =
  let s = Shape.feature_map ~channels:512 ~height:7 ~width:7 in
  Alcotest.check check_shape "flatten" (Shape.vector 25088)
    (Layer.output_shape Layer.Flatten [ s ]);
  Alcotest.check check_shape "gap" (Shape.vector 512)
    (Layer.output_shape Layer.Global_avg_pool [ s ])

let test_weight_dims () =
  let conv = Layer.conv ~in_channels:64 ~out_channels:128 3 in
  Alcotest.(check int) "conv rows" (64 * 9) (Layer.weight_rows conv);
  Alcotest.(check int) "conv cols" 128 (Layer.weight_cols conv);
  Alcotest.(check int) "conv params" (64 * 9 * 128) (Layer.weight_params conv);
  let lin = Layer.linear ~in_features:4096 ~out_features:1000 in
  Alcotest.(check int) "linear params" 4_096_000 (Layer.weight_params lin);
  Alcotest.(check int) "relu params" 0 (Layer.weight_params Layer.Relu)

let test_mvms_per_sample () =
  let conv = Layer.conv ~in_channels:3 ~out_channels:64 3 in
  let input = [ Shape.feature_map ~channels:3 ~height:32 ~width:32 ] in
  Alcotest.(check int) "one per pixel" (32 * 32) (Layer.mvms_per_sample conv input);
  let lin = Layer.linear ~in_features:10 ~out_features:10 in
  Alcotest.(check int) "one for linear" 1 (Layer.mvms_per_sample lin [ Shape.vector 10 ])

(* Graph *)

let build_diamond () =
  let g = Graph.create ~name:"diamond" () in
  let input =
    Graph.add g "in" (Layer.Input (Shape.feature_map ~channels:4 ~height:8 ~width:8))
  in
  let a =
    Graph.add g ~inputs:[ input ] "a" (Layer.conv ~in_channels:4 ~out_channels:4 3)
  in
  let b = Graph.add g ~inputs:[ a ] "b" (Layer.conv ~in_channels:4 ~out_channels:4 3) in
  let c = Graph.add g ~inputs:[ a ] "c" Layer.Relu in
  let d = Graph.add g ~inputs:[ b; c ] "d" Layer.Add in
  (g, input, a, b, c, d)

let test_graph_edges () =
  let g, input, a, b, c, d = build_diamond () in
  Alcotest.(check (list int)) "preds of d" [ b; c ] (Graph.preds g d);
  Alcotest.(check (list int)) "succs of a" [ b; c ] (Graph.succs g a);
  Alcotest.(check (list int)) "entries" [ input ] (Graph.entry_nodes g);
  Alcotest.(check (list int)) "exits" [ d ] (Graph.exit_nodes g)

let test_graph_topo () =
  let g, _, _, _, _, _ = build_diamond () in
  let order = Graph.topo_order g in
  Alcotest.(check int) "all nodes" (Graph.node_count g) (List.length order);
  let pos = Hashtbl.create 8 in
  List.iteri (fun i n -> Hashtbl.add pos n i) order;
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "pred before" true (Hashtbl.find pos p < Hashtbl.find pos n))
        (Graph.preds g n))
    (Graph.nodes g)

let test_graph_validate_ok () =
  let g, _, _, _, _, _ = build_diamond () in
  Alcotest.(check bool) "valid" true (Graph.validate g = Ok ())

let test_graph_bad_input_rejected () =
  let g = Graph.create () in
  Alcotest.(check bool) "unknown input id" true
    (try
       ignore (Graph.add g ~inputs:[ 42 ] "x" Layer.Relu);
       false
     with Invalid_argument _ -> true)

let test_graph_shape_error_rolls_back () =
  let g = Graph.create () in
  let input = Graph.add g "in" (Layer.Input (Shape.vector 16)) in
  let n = Graph.node_count g in
  (try ignore (Graph.add g ~inputs:[ input ] "bad" (Layer.conv ~in_channels:3 ~out_channels:4 3))
   with Invalid_argument _ -> ());
  Alcotest.(check int) "rolled back" n (Graph.node_count g);
  Alcotest.(check (list int)) "no stale succs" [] (Graph.succs g input)

let test_graph_weighted_nodes () =
  let g, _, a, b, _, _ = build_diamond () in
  Alcotest.(check (list int)) "convs only" [ a; b ] (Graph.weighted_nodes g)

(* Model zoo: the paper's Table II numbers. *)

let summary name = Summary.of_graph (Models.by_name name)

let test_vgg16_sizes () =
  let s = summary "vgg16" in
  Alcotest.(check (float 0.01)) "linear MB" 58.95 s.Summary.linear_mb;
  Alcotest.(check (float 0.01)) "conv MB" 7.01 s.Summary.conv_mb;
  Alcotest.(check (float 0.01)) "total MB" 65.97 s.Summary.total_mb;
  Alcotest.(check int) "13 conv + 3 fc" 16 s.Summary.weighted_layers

let test_resnet18_sizes () =
  let s = summary "resnet18" in
  Alcotest.(check (float 0.01)) "linear MB" 0.244 s.Summary.linear_mb;
  Alcotest.(check (float 0.01)) "conv MB" 5.325 s.Summary.conv_mb;
  Alcotest.(check (float 0.01)) "total MB" 5.569 s.Summary.total_mb;
  (* 20 convs (incl. 3 downsample) + 1 fc *)
  Alcotest.(check int) "weighted" 21 s.Summary.weighted_layers

let test_squeezenet_sizes () =
  let s = summary "squeezenet" in
  Alcotest.(check (float 0.001)) "conv MB" 0.587 s.Summary.conv_mb;
  Alcotest.(check (float 1e-6)) "no linear" 0. s.Summary.linear_mb;
  Alcotest.(check int) "weighted" 26 s.Summary.weighted_layers

let test_all_models_validate () =
  List.iter
    (fun name ->
      let g = Models.by_name name in
      Alcotest.(check bool) (name ^ " valid") true (Graph.validate g = Ok ()))
    Models.all_names

let test_resnet_residual_structure () =
  let g = Models.resnet18 () in
  let adds =
    List.filter (fun n -> (Graph.layer g n).Layer.op = Layer.Add) (Graph.nodes g)
  in
  Alcotest.(check int) "8 residual adds" 8 (List.length adds);
  List.iter
    (fun n -> Alcotest.(check int) "two inputs" 2 (List.length (Graph.preds g n)))
    adds

let test_squeezenet_fire_structure () =
  let g = Models.squeezenet () in
  let concats =
    List.filter (fun n -> (Graph.layer g n).Layer.op = Layer.Concat) (Graph.nodes g)
  in
  Alcotest.(check int) "8 fire concats" 8 (List.length concats)

let test_vgg16_final_shape () =
  let g = Models.vgg16 () in
  let out = List.hd (Graph.exit_nodes g) in
  Alcotest.check check_shape "1000 classes" (Shape.vector 1000) (Graph.shape_of g out)

let test_resnet18_final_shape () =
  let g = Models.resnet18 () in
  let out = List.hd (Graph.exit_nodes g) in
  Alcotest.check check_shape "1000 classes" (Shape.vector 1000) (Graph.shape_of g out)

let test_squeezenet_final_shape () =
  let g = Models.squeezenet () in
  let out = List.hd (Graph.exit_nodes g) in
  Alcotest.check check_shape "1000 classes" (Shape.vector 1000) (Graph.shape_of g out)

let test_by_name_unknown () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Models.by_name "transformer");
       false
     with Not_found -> true)

let test_to_dot () =
  let g = Models.lenet5 () in
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "digraph" true (String.length dot > 0);
  let count_substring sub s =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one box per node" (Graph.node_count g)
    (count_substring "shape=box" dot);
  let edges = List.fold_left (fun acc n -> acc + List.length (Graph.preds g n)) 0 (Graph.nodes g) in
  Alcotest.(check int) "one arrow per edge" edges (count_substring " -> " dot)

let test_alexnet_structure () =
  let s = summary "alexnet" in
  (* 5 convs + 3 fc; fc6 dominates (9216 x 4096). *)
  Alcotest.(check int) "weighted" 8 s.Summary.weighted_layers;
  Alcotest.(check bool) "linear-heavy" true (s.Summary.linear_mb > s.Summary.conv_mb);
  let g = Models.by_name "alexnet" in
  let out = List.hd (Graph.exit_nodes g) in
  Alcotest.check check_shape "1000 classes" (Shape.vector 1000) (Graph.shape_of g out)

let test_vgg11_structure () =
  let s = summary "vgg11" in
  Alcotest.(check int) "8 conv + 3 fc" 11 s.Summary.weighted_layers;
  (* Shares VGG16's classifier: identical linear storage. *)
  Alcotest.(check (float 1e-6)) "same classifier as vgg16" (summary "vgg16").Summary.linear_mb
    s.Summary.linear_mb

let test_resnet34_structure () =
  let s = summary "resnet34" in
  (* 33 convs (incl. 3 downsample) + 1 fc. *)
  Alcotest.(check int) "weighted" 37 s.Summary.weighted_layers;
  Alcotest.(check bool) "about 10 MB of conv" true
    (s.Summary.conv_mb > 9. && s.Summary.conv_mb < 11.);
  let g = Models.by_name "resnet34" in
  let adds = List.filter (fun n -> (Graph.layer g n).Layer.op = Layer.Add) (Graph.nodes g) in
  Alcotest.(check int) "16 residual adds" 16 (List.length adds)

let test_grouped_conv_dims () =
  let dw = Layer.depthwise ~channels:32 3 in
  Alcotest.(check int) "depthwise rows" 9 (Layer.weight_rows dw);
  Alcotest.(check int) "depthwise cols" 32 (Layer.weight_cols dw);
  Alcotest.(check int) "depthwise params" (32 * 9) (Layer.weight_params dw);
  let grouped = Layer.conv ~groups:4 ~in_channels:16 ~out_channels:8 3 in
  Alcotest.(check int) "grouped rows" (4 * 9) (Layer.weight_rows grouped);
  Alcotest.(check int) "grouped params" (8 * 4 * 9) (Layer.weight_params grouped);
  Alcotest.(check bool) "bad groups rejected" true
    (try
       ignore (Layer.conv ~groups:3 ~in_channels:16 ~out_channels:8 3);
       false
     with Invalid_argument _ -> true)

let test_mobilenet_structure () =
  let s = summary "mobilenet_v1" in
  (* Real MobileNetV1 width 1.0: ~4.2M parameters. *)
  let params = s.Summary.conv_params + s.Summary.linear_params in
  Alcotest.(check bool)
    (Printf.sprintf "~4.2M params (got %d)" params)
    true
    (params > 4_100_000 && params < 4_300_000);
  (* 1 stem + 13 dw + 13 pw + 1 fc. *)
  Alcotest.(check int) "weighted layers" 28 s.Summary.weighted_layers;
  let g = Models.by_name "mobilenet_v1" in
  let out = List.hd (Graph.exit_nodes g) in
  Alcotest.check check_shape "1000 classes" (Shape.vector 1000) (Graph.shape_of g out)

(* Property: random chain models always validate and infer shapes. *)

let random_chain_gen =
  QCheck.Gen.(
    let* n_layers = int_range 1 6 in
    let* channels = int_range 1 8 in
    return (n_layers, channels))

let prop_random_chain_valid =
  QCheck.Test.make ~name:"random conv chains validate" ~count:100
    (QCheck.make random_chain_gen) (fun (n_layers, channels) ->
      let g = Graph.create () in
      let prev =
        ref (Graph.add g "in" (Layer.Input (Shape.feature_map ~channels ~height:16 ~width:16)))
      in
      let c = ref channels in
      for i = 1 to n_layers do
        let out_channels = !c + i in
        prev :=
          Graph.add g ~inputs:[ !prev ]
            (Printf.sprintf "conv%d" i)
            (Layer.conv ~in_channels:!c ~out_channels 3);
        c := out_channels
      done;
      Graph.validate g = Ok ())

let () =
  Alcotest.run "compass_nn"
    [
      ( "shape",
        [
          Alcotest.test_case "elements" `Quick test_shape_elements;
          Alcotest.test_case "bytes" `Quick test_shape_bytes;
          Alcotest.test_case "invalid" `Quick test_shape_invalid;
        ] );
      ( "layer",
        [
          Alcotest.test_case "conv output" `Quick test_conv_output_shape;
          Alcotest.test_case "conv stride" `Quick test_conv_stride;
          Alcotest.test_case "conv channel mismatch" `Quick test_conv_channel_mismatch;
          Alcotest.test_case "linear shapes" `Quick test_linear_shapes;
          Alcotest.test_case "pool output" `Quick test_pool_output;
          Alcotest.test_case "add shapes" `Quick test_add_shapes;
          Alcotest.test_case "concat shapes" `Quick test_concat_shapes;
          Alcotest.test_case "flatten and gap" `Quick test_flatten_gap;
          Alcotest.test_case "weight dims" `Quick test_weight_dims;
          Alcotest.test_case "mvms per sample" `Quick test_mvms_per_sample;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "topo order" `Quick test_graph_topo;
          Alcotest.test_case "validate ok" `Quick test_graph_validate_ok;
          Alcotest.test_case "bad input rejected" `Quick test_graph_bad_input_rejected;
          Alcotest.test_case "shape error rolls back" `Quick
            test_graph_shape_error_rolls_back;
          Alcotest.test_case "weighted nodes" `Quick test_graph_weighted_nodes;
          QCheck_alcotest.to_alcotest prop_random_chain_valid;
        ] );
      ( "models",
        [
          Alcotest.test_case "vgg16 Table II sizes" `Quick test_vgg16_sizes;
          Alcotest.test_case "resnet18 Table II sizes" `Quick test_resnet18_sizes;
          Alcotest.test_case "squeezenet Table II sizes" `Quick test_squeezenet_sizes;
          Alcotest.test_case "all models validate" `Quick test_all_models_validate;
          Alcotest.test_case "resnet residual structure" `Quick
            test_resnet_residual_structure;
          Alcotest.test_case "squeezenet fire structure" `Quick
            test_squeezenet_fire_structure;
          Alcotest.test_case "vgg16 final shape" `Quick test_vgg16_final_shape;
          Alcotest.test_case "resnet18 final shape" `Quick test_resnet18_final_shape;
          Alcotest.test_case "squeezenet final shape" `Quick test_squeezenet_final_shape;
          Alcotest.test_case "by_name unknown" `Quick test_by_name_unknown;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          Alcotest.test_case "alexnet structure" `Quick test_alexnet_structure;
          Alcotest.test_case "vgg11 structure" `Quick test_vgg11_structure;
          Alcotest.test_case "resnet34 structure" `Quick test_resnet34_structure;
          Alcotest.test_case "grouped conv dims" `Quick test_grouped_conv_dims;
          Alcotest.test_case "mobilenet structure" `Quick test_mobilenet_structure;
        ] );
    ]
