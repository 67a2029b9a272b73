(* Differential tests for the im2col/GEMM inference engine: the fast
   kernels must be bit-identical to the naive reference (the oracle),
   and batched execution must equal per-sample execution for any pool
   worker count. *)

open Compass_nn

let rng_floats rng n = Array.init n (fun _ -> Compass_util.Rng.float rng 2. -. 1.)

let bit_identical what a b =
  Alcotest.(check bool) what true (Tensor.same_bits a b)

(* A random grouped/strided/padded, possibly asymmetric convolution
   case: (conv record, input tensor, weights). *)
let random_conv_case rng =
  let groups = 1 + Compass_util.Rng.int rng 4 in
  let group_in = 1 + Compass_util.Rng.int rng 4 in
  let group_out = 1 + Compass_util.Rng.int rng 4 in
  let in_channels = groups * group_in in
  let out_channels = groups * group_out in
  let kernel_h = 1 + Compass_util.Rng.int rng 4 in
  let kernel_w = 1 + Compass_util.Rng.int rng 4 in
  let stride = 1 + Compass_util.Rng.int rng 3 in
  let padding = Compass_util.Rng.int rng 4 in
  let height = kernel_h + Compass_util.Rng.int rng 8 in
  let width = kernel_w + Compass_util.Rng.int rng 8 in
  let conv =
    { Layer.in_channels; out_channels; kernel_h; kernel_w; stride; padding; groups }
  in
  let input =
    Helpers.tensor_of_array
      (Shape.feature_map ~channels:in_channels ~height ~width)
      (rng_floats rng (in_channels * height * width))
  in
  let weights = rng_floats rng (out_channels * group_in * kernel_h * kernel_w) in
  (conv, input, weights)

let prop_conv_gemm_bit_identical =
  QCheck.Test.make ~name:"conv2d_gemm bit-identical to conv2d" ~count:120
    QCheck.small_int (fun seed ->
      let rng = Compass_util.Rng.create seed in
      let conv, input, weights = random_conv_case rng in
      let reference = Tensor.conv2d conv ~weights input in
      let fast = Tensor.conv2d_gemm conv ~weights input in
      Tensor.same_bits reference fast)

let prop_conv_gemm_scratch_reuse =
  (* A shared scratch across differently-sized convolutions never leaks
     state between calls. *)
  QCheck.Test.make ~name:"conv2d_gemm scratch reuse is pure" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Compass_util.Rng.create (seed + 5000) in
      let scratch = Im2col.create_scratch () in
      List.for_all
        (fun () ->
          let conv, input, weights = random_conv_case rng in
          let reference = Tensor.conv2d conv ~weights input in
          let fast = Tensor.conv2d_gemm ~scratch conv ~weights input in
          Tensor.same_bits reference fast)
        [ (); (); () ])

let prop_linear_gemm_bit_identical =
  QCheck.Test.make ~name:"linear_gemm bit-identical to linear" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Compass_util.Rng.create seed in
      let in_features = 1 + Compass_util.Rng.int rng 64 in
      let out_features = 1 + Compass_util.Rng.int rng 64 in
      let input =
        Helpers.tensor_of_array (Shape.vector in_features) (rng_floats rng in_features)
      in
      let weights = rng_floats rng (in_features * out_features) in
      let reference = Tensor.linear ~in_features ~out_features ~weights input in
      let fast = Tensor.linear_gemm ~in_features ~out_features ~weights input in
      Tensor.same_bits reference fast)

(* IEEE special values in both operands: NaNs, infinities and signed
   zeros must come out of the panel kernel bit for bit as from the naive
   one.  One NaN payload only: which of two different NaNs a product
   returns is up to the instruction the compiler picks, not the source
   order (see Im2col).  Each case forces a shape family (grouped,
   depthwise, 1x1 stride-1, odd group_out) and the residue of the output
   pixel count mod 4, so the partial last panel is always exercised. *)
let special_floats rng n =
  let specials = [| -0.; 0.; infinity; neg_infinity; nan |] in
  Array.init n (fun _ ->
      if Compass_util.Rng.int rng 3 = 0 then
        specials.(Compass_util.Rng.int rng (Array.length specials))
      else Compass_util.Rng.float rng 2. -. 1.)

let prop_conv_special_values =
  QCheck.Test.make ~name:"conv2d_gemm bit-identical on special values" ~count:300
    QCheck.small_int (fun seed ->
      let family = seed mod 4 and residue = 1 + (seed / 4 mod 3) in
      let rng = Compass_util.Rng.create seed in
      let pick lo hi = lo + Compass_util.Rng.int rng (hi - lo + 1) in
      let groups, group_in, group_out, kernel, stride =
        match family with
        | 0 -> (pick 1 3, pick 1 4, pick 1 4, pick 1 3, pick 1 2)
        | 1 -> (pick 1 6, 1, 1, pick 2 3, pick 1 2)
        | 2 -> (1, pick 1 6, pick 1 6, 1, 1)
        | _ -> (pick 1 2, pick 1 3, 1 + (2 * pick 0 2), pick 1 3, pick 1 2)
      in
      let padding = if kernel = 1 then 0 else pick 0 ((kernel - 1) / 2) in
      (* An odd [ow] is its own inverse mod 4, so p = oh * ow = residue. *)
      let ow = 1 + (2 * pick 0 2) in
      let oh = (4 * pick 0 1) + (residue * ow mod 4) in
      let extent o = ((o - 1) * stride) + kernel - (2 * padding) in
      let in_channels = groups * group_in and out_channels = groups * group_out in
      let conv =
        {
          Layer.in_channels;
          out_channels;
          kernel_h = kernel;
          kernel_w = kernel;
          stride;
          padding;
          groups;
        }
      in
      let input =
        Helpers.tensor_of_array
          (Shape.feature_map ~channels:in_channels ~height:(extent oh) ~width:(extent ow))
          (special_floats rng (in_channels * extent oh * extent ow))
      in
      let weights = special_floats rng (out_channels * group_in * kernel * kernel) in
      let fast = Tensor.conv2d_gemm conv ~weights input in
      Array.length (Tensor.to_array fast) mod 4 = out_channels * residue mod 4
      && Tensor.same_bits (Tensor.conv2d conv ~weights input) fast)

(* Test-local oracles for the element-wise operators both engines share
   (so no engine comparison can catch a change in their semantics):
   polymorphic [Stdlib.max], zero padding, the pre-optimisation window
   walk. *)
let oracle_relu t =
  let data = Tensor.to_array t in
  Tensor.create (Tensor.shape t) (fun i -> max 0. data.(i))

let oracle_pool ~reduce ~init ~finish ~kernel ~stride ~padding t =
  match Tensor.shape t with
  | Shape.Vector _ -> invalid_arg "oracle_pool"
  | Shape.Feature_map { channels; height; width } ->
    let out n = ((n + (2 * padding) - kernel) / stride) + 1 in
    let oh = out height and ow = out width in
    let data = Tensor.to_array t in
    Tensor.create (Shape.feature_map ~channels ~height:oh ~width:ow) (fun i ->
        let c = i / (oh * ow) and y = i / ow mod oh and x = i mod ow in
        let acc = ref init in
        for ky = 0 to kernel - 1 do
          for kx = 0 to kernel - 1 do
            let h = (y * stride) + ky - padding and w = (x * stride) + kx - padding in
            let v =
              if h < 0 || h >= height || w < 0 || w >= width then 0.
              else data.((((c * height) + h) * width) + w)
            in
            acc := reduce !acc v
          done
        done;
        finish !acc)

let prop_pool_relu_oracle =
  QCheck.Test.make ~name:"relu/max_pool/avg_pool match the Stdlib.max oracle" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Compass_util.Rng.create seed in
      let pick lo hi = lo + Compass_util.Rng.int rng (hi - lo + 1) in
      let kernel = pick 1 3 and stride = pick 1 2 in
      let padding = pick 0 (kernel - 1) in
      let channels = pick 1 3 and height = kernel + pick 0 5 and width = kernel + pick 0 5 in
      (* Every third case is all-negative, so whole windows are negative
         and the padding's 0. (or a -0.) wins them. *)
      let negative = seed mod 3 = 0 in
      let t =
        Helpers.tensor_of_array
          (Shape.feature_map ~channels ~height ~width)
          (Array.map
             (fun x -> if negative && not (Float.is_nan x) then -.Float.abs x else x)
             (special_floats rng (channels * height * width)))
      in
      let n = float_of_int (kernel * kernel) in
      Tensor.same_bits (oracle_relu t) (Tensor.relu t)
      && Tensor.same_bits
           (oracle_pool ~reduce:max ~init:neg_infinity ~finish:Fun.id ~kernel ~stride
              ~padding t)
           (Tensor.max_pool ~kernel ~stride ~padding t)
      && Tensor.same_bits
           (oracle_pool ~reduce:( +. ) ~init:0. ~finish:(fun x -> x /. n) ~kernel ~stride
              ~padding t)
           (Tensor.avg_pool ~kernel ~stride ~padding t))

let test_max_pool_edge_cases () =
  (* Hand-picked windows: NaN first and last in a window, -0. against the
     padding's 0., an all-negative window that touches the padding. *)
  let t =
    Helpers.tensor_of_array
      (Shape.feature_map ~channels:1 ~height:2 ~width:3)
      [| nan; -0.; -3.; -1.; -2.; nan |]
  in
  List.iter
    (fun (kernel, stride, padding) ->
      bit_identical
        (Printf.sprintf "max_pool k%d s%d p%d" kernel stride padding)
        (oracle_pool ~reduce:max ~init:neg_infinity ~finish:Fun.id ~kernel ~stride
           ~padding t)
        (Tensor.max_pool ~kernel ~stride ~padding t))
    [ (1, 1, 0); (2, 1, 0); (2, 1, 1); (3, 2, 1); (2, 2, 1) ];
  bit_identical "relu" (oracle_relu t) (Tensor.relu t);
  let scalar x = Helpers.tensor_of_array (Shape.vector 1) [| x |] in
  Alcotest.(check bool) "same_bits tells -0. from 0." false
    (Tensor.same_bits (scalar (-0.)) (scalar 0.))

let test_asymmetric_kernels () =
  (* 1x5 and 5x1 kernels (and friends) exercise the packer's padding
     bounds in both orientations. *)
  List.iter
    (fun (kernel_h, kernel_w, stride, padding) ->
      let conv =
        {
          Layer.in_channels = 3;
          out_channels = 4;
          kernel_h;
          kernel_w;
          stride;
          padding;
          groups = 1;
        }
      in
      let rng = Compass_util.Rng.create (kernel_h + (10 * kernel_w)) in
      let input =
        Helpers.tensor_of_array
          (Shape.feature_map ~channels:3 ~height:9 ~width:9)
          (rng_floats rng (3 * 9 * 9))
      in
      let weights = rng_floats rng (4 * 3 * kernel_h * kernel_w) in
      bit_identical
        (Printf.sprintf "%dx%d s%d p%d" kernel_h kernel_w stride padding)
        (Tensor.conv2d conv ~weights input)
        (Tensor.conv2d_gemm conv ~weights input))
    [ (1, 5, 1, 2); (5, 1, 1, 2); (3, 1, 2, 0); (1, 3, 2, 3); (2, 4, 3, 1) ]

let test_engines_agree_on_models () =
  (* Whole-model runs: every node's tensor, not just the exit. *)
  List.iter
    (fun name ->
      let g = Models.by_name name in
      let w = Executor.random_weights g in
      let x = Executor.random_input g in
      let naive = Helpers.walk ~engine:Executor.Naive g w x in
      let gemm = Helpers.walk ~engine:Executor.Gemm g w x in
      List.iter
        (fun node ->
          bit_identical (Printf.sprintf "%s node %d" name node) (naive node) (gemm node))
        (Graph.nodes g))
    [ "lenet5"; "tiny_resnet"; "tiny_mlp" ]

let batch_inputs g n = Array.init n (fun i -> Executor.random_input ~seed:(100 + i) g)

let test_run_batch_equals_per_sample () =
  (* Batched execution must match N independent single-sample runs
     bit-for-bit, for batch sizes 1-8. *)
  let g = Models.lenet5 () in
  let w = Executor.random_weights g in
  List.iter
    (fun n ->
      let inputs = batch_inputs g n in
      let batched = Executor.output_batch g w inputs in
      Array.iteri
        (fun i x ->
          bit_identical
            (Printf.sprintf "batch %d sample %d" n i)
            (Executor.output g w x) batched.(i))
        inputs)
    [ 1; 2; 3; 4; 8 ]

let test_run_batch_any_worker_count () =
  (* Fanning the batch across a pool never changes a single bit,
     whatever the worker count. *)
  let g = Models.by_name "tiny_resnet" in
  let w = Executor.random_weights g in
  let inputs = batch_inputs g 6 in
  let sequential = Executor.output_batch g w inputs in
  List.iter
    (fun jobs ->
      Compass_util.Pool.with_pool ~jobs (fun pool ->
          let pooled = Executor.output_batch ~pool g w inputs in
          Array.iteri
            (fun i t ->
              bit_identical (Printf.sprintf "jobs %d sample %d" jobs i) sequential.(i) t)
            pooled))
    [ 1; 2; 3; 5 ]

(* The most activation bytes a freeing traversal holds, recomputed
   from positions alone: right after the node at position [i] has run,
   node [u] is held iff it ran no later than [i] and is the exit or has
   a consumer at position [i] or later. *)
let liveness_peak g batch =
  let order = Array.of_list (Graph.topo_order g) in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) order;
  let exits = Graph.exit_nodes g in
  let bytes u = 8 * batch * Shape.elements (Graph.shape_of g u) in
  let held i u =
    Hashtbl.find pos u <= i
    && (List.mem u exits
       || List.exists (fun v -> Hashtbl.find pos v >= i) (Graph.succs g u))
  in
  let live i = Array.fold_left (fun acc u -> if held i u then acc + bytes u else acc) 0 order in
  ( Array.fold_left max 0 (Array.init (Array.length order) live),
    Array.fold_left (fun acc u -> acc + bytes u) 0 order )

let test_live_bytes_peak () =
  (* The gauge is the liveness peak, and it is below what keeping every
     activation would hold. *)
  let module Metrics = Compass_util.Metrics in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      List.iter
        (fun name ->
          let g = Models.by_name name in
          let w = Executor.random_weights g in
          List.iter
            (fun n ->
              ignore (Executor.output_batch g w (batch_inputs g n));
              let gauge =
                match List.assoc_opt "infer.live_bytes_peak" (Metrics.snapshot ()) with
                | Some (Metrics.Float v) -> int_of_float v
                | _ -> Alcotest.fail "infer.live_bytes_peak not set"
              in
              let peak, total = liveness_peak g n in
              let what = Printf.sprintf "%s batch %d" name n in
              Alcotest.(check int) (what ^ " gauge = liveness peak") peak gauge;
              Alcotest.(check bool) (what ^ " below all activations") true (gauge < total))
            [ 1; 3 ])
        [ "lenet5"; "tiny_resnet"; "tiny_mlp"; "squeezenet"; "resnet18" ])

let test_output_batch_equals_walk () =
  (* Freeing dead activations never changes a bit: every zoo model
     (concat, add, and the aliasing batch-norm, dropout and flatten
     layers among them) matches a keep-everything walk, sequentially
     and fanned across two domains. *)
  let gc = Gc.get () in
  (* VGG weights run to a gigabyte, and the default overhead would let
     the major heap grow to twice that before collecting the garbage
     im2col panels: collect sooner, and give each model's heap back
     before the next. *)
  Gc.set { gc with Gc.space_overhead = 40 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  List.iter
    (fun name ->
      let g = Models.by_name name in
      let w = Executor.random_weights g in
      let inputs = batch_inputs g 2 in
      let exit = List.hd (Graph.exit_nodes g) in
      let expected = Array.map (fun x -> Helpers.walk g w x exit) inputs in
      List.iter
        (fun jobs ->
          Compass_util.Pool.with_pool ~jobs (fun pool ->
              Array.iteri
                (fun i t ->
                  bit_identical
                    (Printf.sprintf "%s jobs %d sample %d" name jobs i)
                    expected.(i) t)
                (Executor.output_batch ~pool g w inputs)))
        [ 1; 2 ];
      Gc.compact ())
    Models.all_names

let test_run_batch_rejects_empty () =
  let g = Models.by_name "tiny_mlp" in
  let w = Executor.random_weights g in
  Alcotest.(check bool) "empty batch rejected" true
    (try
       ignore (Executor.output_batch g w [||]);
       false
     with Invalid_argument _ -> true)

let expect_diagnostic f =
  match f () with
  | _ -> None
  | exception Invalid_argument msg -> Some msg

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_located_weight_diagnostic () =
  (* Wrong-size weights name the node, layer kind and geometry, and both
     element counts in one message. *)
  let g = Models.lenet5 () in
  let w = Executor.random_weights g in
  let x = Executor.random_input g in
  let conv_node =
    List.find
      (fun n ->
        match (Graph.layer g n).Layer.op with Layer.Conv _ -> true | _ -> false)
      (Graph.nodes g)
  in
  let expected = Layer.weight_params (Graph.layer g conv_node).Layer.op in
  Hashtbl.replace w conv_node [| 1.; 2.; 3. |];
  List.iter
    (fun engine ->
      match expect_diagnostic (fun () -> Executor.output ~engine g w x) with
      | None -> Alcotest.fail "undersized weights accepted"
      | Some msg ->
        let check_sub part =
          Alcotest.(check bool)
            (Printf.sprintf "%s diagnostic mentions %S" (Executor.engine_to_string engine)
               part)
            true (contains ~sub:part msg)
        in
        check_sub (Printf.sprintf "node %d" conv_node);
        check_sub "conv";
        check_sub (Printf.sprintf "expected %d weight elements" expected);
        check_sub "got 3")
    [ Executor.Naive; Executor.Gemm ]

let test_linear_weight_diagnostic () =
  let g = Models.by_name "tiny_mlp" in
  let w = Executor.random_weights g in
  let x = Executor.random_input g in
  let lin_node =
    List.find
      (fun n ->
        match (Graph.layer g n).Layer.op with Layer.Linear _ -> true | _ -> false)
      (Graph.nodes g)
  in
  Hashtbl.replace w lin_node (Array.make 7 0.) ;
  match expect_diagnostic (fun () -> Executor.output g w x) with
  | None -> Alcotest.fail "undersized weights accepted"
  | Some msg ->
    Alcotest.(check bool) "mentions node" true
      (contains ~sub:(Printf.sprintf "node %d" lin_node) msg);
    Alcotest.(check bool) "mentions linear" true (contains ~sub:"linear" msg);
    Alcotest.(check bool) "mentions got" true (contains ~sub:"got 7" msg)

let test_depthwise_and_grouped_gemm () =
  (* Depthwise (groups = channels) and grouped strided convs through the
     graph executor, both engines. *)
  let g = Graph.create ~name:"dw" () in
  let input =
    Graph.add g "in" (Layer.Input (Shape.feature_map ~channels:6 ~height:11 ~width:7))
  in
  let dw = Graph.add g ~inputs:[ input ] "dw" (Layer.depthwise ~stride:2 ~channels:6 3) in
  let grouped =
    Graph.add g ~inputs:[ dw ] "grp"
      (Layer.conv ~stride:2 ~groups:3 ~in_channels:6 ~out_channels:9 3)
  in
  let gap = Graph.add g ~inputs:[ grouped ] "gap" Layer.Global_avg_pool in
  let _fc = Graph.add g ~inputs:[ gap ] "fc" (Layer.linear ~in_features:9 ~out_features:4) in
  (match Graph.validate g with Ok () -> () | Error e -> failwith e);
  let w = Executor.random_weights g in
  let x = Executor.random_input g in
  bit_identical "depthwise+grouped model"
    (Executor.output ~engine:Executor.Naive g w x)
    (Executor.output ~engine:Executor.Gemm g w x)

let test_quant_dequantize_roundtrip () =
  let data = Array.init 64 (fun i -> sin (float_of_int i /. 3.)) in
  let q, spec = Quant.quantize ~bits:4 data in
  let codes = Quant.codes spec q in
  let back = Quant.dequantize spec codes in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-12)) (Printf.sprintf "code %d" i) x back.(i))
    q

let () =
  Alcotest.run "infer"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_conv_gemm_bit_identical;
          QCheck_alcotest.to_alcotest prop_conv_gemm_scratch_reuse;
          QCheck_alcotest.to_alcotest prop_linear_gemm_bit_identical;
          QCheck_alcotest.to_alcotest prop_conv_special_values;
          QCheck_alcotest.to_alcotest prop_pool_relu_oracle;
          Alcotest.test_case "max_pool edge cases" `Quick test_max_pool_edge_cases;
          Alcotest.test_case "asymmetric kernels" `Quick test_asymmetric_kernels;
          Alcotest.test_case "engines agree on models" `Quick
            test_engines_agree_on_models;
          Alcotest.test_case "depthwise and grouped" `Quick
            test_depthwise_and_grouped_gemm;
        ] );
      ( "batch",
        [
          Alcotest.test_case "equals per-sample" `Quick test_run_batch_equals_per_sample;
          Alcotest.test_case "any worker count" `Quick test_run_batch_any_worker_count;
          Alcotest.test_case "live peak = liveness sum" `Quick test_live_bytes_peak;
          Alcotest.test_case "zoo equals keep-all walk" `Slow
            test_output_batch_equals_walk;
          Alcotest.test_case "empty batch rejected" `Quick test_run_batch_rejects_empty;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "conv weight diagnostic" `Quick
            test_located_weight_diagnostic;
          Alcotest.test_case "linear weight diagnostic" `Quick
            test_linear_weight_diagnostic;
        ] );
      ( "quant",
        [
          Alcotest.test_case "dequantize roundtrip" `Quick test_quant_dequantize_roundtrip;
        ] );
    ]
