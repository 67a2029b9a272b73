(* Tests for the crossbar weight-image backend. *)

open Compass_core
open Compass_nn

let setup name chip =
  let model = Models.by_name name in
  let units = Unit_gen.generate model chip in
  let v = Validity.build units in
  (model, units, v, Dataflow.context units)

let tiny_chip = Compass_arch.Config.custom ~label:"tiny" ~cores:2 ~macros_per_core:2 ()

let test_reconstruction_exact () =
  (* Packing then unpacking reproduces the quantized weight matrix. *)
  let model, units, v, ctx = setup "lenet5" Compass_arch.Config.chip_s in
  ignore units;
  let weights = Executor.random_weights model in
  let group = Baselines.greedy v in
  let layout = Weight_layout.pack_partition ctx group ~partition:0 ~weights () in
  List.iter
    (fun node ->
      match Weight_layout.reconstruct_layer ctx layout node with
      | None -> Alcotest.fail "layer missing from single partition"
      | Some rebuilt ->
        let original = Hashtbl.find weights node in
        let snapped, _ = Quant.quantize ~bits:4 original in
        Alcotest.(check int) "same size" (Array.length snapped) (Array.length rebuilt);
        Array.iteri
          (fun i x ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "weight %d" i)
              x rebuilt.(i))
          snapped)
    (Graph.weighted_nodes model)

let test_reconstruction_multi_partition () =
  (* On a tiny chip, layers split across partitions; each partition rebuilds
     exactly its own column range. *)
  let model, units, v, ctx = setup "lenet5" tiny_chip in
  let weights = Executor.random_weights model in
  let group = Baselines.greedy v in
  let nparts = Partition.partition_count group in
  Alcotest.(check bool) "actually multi-partition" true (nparts > 1);
  (* Sum the reconstructed matrices across partitions: every weight must be
     covered exactly once (column slices are disjoint). *)
  List.iter
    (fun node ->
      let op = (Graph.layer model node).Layer.op in
      let n = Layer.weight_params op in
      let acc = Array.make n 0. in
      let covered = Array.make n 0 in
      for p = 0 to nparts - 1 do
        let layout = Weight_layout.pack_partition ctx group ~partition:p ~weights () in
        match Weight_layout.reconstruct_layer ctx layout node with
        | None -> ()
        | Some rebuilt ->
          let u_list = Unit_gen.units_of_layer units node in
          ignore u_list;
          Array.iteri
            (fun i x ->
              if x <> 0. then begin
                acc.(i) <- acc.(i) +. x;
                covered.(i) <- covered.(i) + 1
              end)
            rebuilt
      done;
      let snapped, _ = Quant.quantize ~bits:4 (Hashtbl.find weights node) in
      Array.iteri
        (fun i x ->
          if x <> 0. then begin
            Alcotest.(check bool) "covered at most once" true (covered.(i) <= 1);
            Alcotest.(check (float 1e-9)) "value correct" x acc.(i)
          end)
        snapped)
    (Graph.weighted_nodes model)

let test_depthwise_reconstruction () =
  (* Grouped convolutions pack and reconstruct too. *)
  let text =
    "model dwpack\ninput in 8x8x8\ndepthwise dw from in kernel=3\nconv pw from dw out=16 kernel=1 pad=0\ngap g from pw\nlinear fc from g out=4\n"
  in
  let model = Model_text.parse text in
  let units = Unit_gen.generate model Compass_arch.Config.chip_s in
  let v = Validity.build units in
  let ctx = Dataflow.context units in
  let weights = Executor.random_weights model in
  let layout =
    Weight_layout.pack_partition ctx (Baselines.greedy v) ~partition:0 ~weights ()
  in
  List.iter
    (fun node ->
      match Weight_layout.reconstruct_layer ctx layout node with
      | None -> Alcotest.fail "layer missing"
      | Some rebuilt ->
        let snapped, _ = Quant.quantize ~bits:4 (Hashtbl.find weights node) in
        Array.iteri
          (fun i x -> Alcotest.(check (float 1e-9)) "depthwise weight" x rebuilt.(i))
          snapped)
    (Graph.weighted_nodes model)

let test_row_split_reconstruction () =
  (* A core with a single macro forces row-splitting (partial-sum units);
     packing must still cover every weight exactly once. *)
  let chip = Compass_arch.Config.custom ~label:"one" ~cores:4 ~macros_per_core:1 () in
  let model = Models.lenet5 () in
  let units = Unit_gen.generate model chip in
  Alcotest.(check bool) "row-split units exist" true
    (Array.exists (fun u -> u.Unit_gen.partial_sum) units.Unit_gen.units);
  let v = Validity.build units in
  let ctx = Dataflow.context units in
  let weights = Executor.random_weights model in
  let group = Baselines.greedy v in
  let nparts = Partition.partition_count group in
  List.iter
    (fun node ->
      let n = Layer.weight_params (Graph.layer model node).Layer.op in
      let acc = Array.make n 0. in
      let covered = Array.make n 0 in
      for p = 0 to nparts - 1 do
        let layout = Weight_layout.pack_partition ctx group ~partition:p ~weights () in
        match Weight_layout.reconstruct_layer ctx layout node with
        | None -> ()
        | Some rebuilt ->
          Array.iteri
            (fun i x ->
              if x <> 0. then begin
                acc.(i) <- acc.(i) +. x;
                covered.(i) <- covered.(i) + 1
              end)
            rebuilt
      done;
      let snapped, _ = Quant.quantize ~bits:4 (Hashtbl.find weights node) in
      Array.iteri
        (fun i x ->
          if x <> 0. then begin
            Alcotest.(check bool) "row-split covered once" true (covered.(i) <= 1);
            Alcotest.(check (float 1e-9)) "row-split value" x acc.(i)
          end)
        snapped)
    (Graph.weighted_nodes model)

let test_codes_within_precision () =
  let model, _, v, ctx = setup "tiny_resnet" Compass_arch.Config.chip_s in
  let weights = Executor.random_weights model in
  let layout =
    Weight_layout.pack_partition ctx (Baselines.greedy v) ~partition:0 ~weights ()
  in
  List.iter
    (fun img ->
      Array.iter
        (fun c -> Alcotest.(check bool) "4-bit code" true (c >= -7 && c <= 7))
        img.Weight_layout.codes)
    layout.Weight_layout.images

let test_macro_count_matches_mapping () =
  (* Image count = sum over placed assignments of their tile grids. *)
  let model, units, v, ctx = setup "tiny_resnet" Compass_arch.Config.chip_s in
  ignore model;
  let group = Baselines.greedy v in
  let weights = Executor.random_weights (Dataflow.units ctx).Unit_gen.model in
  let layout = Weight_layout.pack_partition ctx group ~partition:0 ~weights () in
  (* At least one macro per unit in the span, replicas included. *)
  let span = Partition.span_at group 0 in
  let span_units = span.Partition.stop - span.Partition.start_ in
  Alcotest.(check bool) "at least one image per unit" true
    (List.length layout.Weight_layout.images >= span_units);
  Alcotest.(check bool) "codes programmed" true
    (List.for_all (fun m -> Array.length m.Weight_layout.codes > 0) layout.Weight_layout.images);
  ignore units

let test_replicas_are_copies () =
  let model, _, v, ctx = setup "squeezenet" Compass_arch.Config.chip_s in
  let weights = Executor.random_weights model in
  let layout =
    Weight_layout.pack_partition ctx (Baselines.greedy v) ~partition:0 ~weights ()
  in
  (* Any replica image equals its replica-0 counterpart. *)
  let base = Hashtbl.create 64 in
  List.iter
    (fun img ->
      if img.Weight_layout.replica = 0 then
        Hashtbl.replace base
          (img.Weight_layout.unit_index, img.Weight_layout.row_block, img.Weight_layout.col_block)
          img.Weight_layout.codes)
    layout.Weight_layout.images;
  let checked = ref 0 in
  List.iter
    (fun img ->
      if img.Weight_layout.replica > 0 then begin
        incr checked;
        match
          Hashtbl.find_opt base
            (img.Weight_layout.unit_index, img.Weight_layout.row_block, img.Weight_layout.col_block)
        with
        | Some codes ->
          Alcotest.(check bool) "replica identical" true (codes = img.Weight_layout.codes)
        | None -> Alcotest.fail "replica without base image"
      end)
    layout.Weight_layout.images;
  Alcotest.(check bool) "replication exercised" true (!checked > 0)

let test_missing_weights_rejected () =
  let _, _, v, ctx = setup "lenet5" Compass_arch.Config.chip_s in
  Alcotest.(check bool) "missing weights" true
    (try
       ignore
         (Weight_layout.pack_partition ctx (Baselines.greedy v) ~partition:0
            ~weights:(Hashtbl.create 1) ());
       false
     with Invalid_argument _ -> true)

let test_partition_out_of_range () =
  let model, _, v, ctx = setup "lenet5" Compass_arch.Config.chip_s in
  let weights = Executor.random_weights model in
  Alcotest.(check bool) "range checked" true
    (try
       ignore
         (Weight_layout.pack_partition ctx (Baselines.greedy v) ~partition:99 ~weights ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "weight_layout"
    [
      ( "packing",
        [
          Alcotest.test_case "reconstruction exact" `Quick test_reconstruction_exact;
          Alcotest.test_case "multi-partition coverage" `Quick
            test_reconstruction_multi_partition;
          Alcotest.test_case "codes within precision" `Quick test_codes_within_precision;
          Alcotest.test_case "depthwise reconstruction" `Quick
            test_depthwise_reconstruction;
          Alcotest.test_case "row-split reconstruction" `Quick
            test_row_split_reconstruction;
          Alcotest.test_case "macro count" `Quick test_macro_count_matches_mapping;
          Alcotest.test_case "replicas are copies" `Quick test_replicas_are_copies;
          Alcotest.test_case "missing weights" `Quick test_missing_weights_rejected;
          Alcotest.test_case "partition range" `Quick test_partition_out_of_range;
        ] );
    ]
