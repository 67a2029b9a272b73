(* Tests for dataflow: non-crossbar layer attachment and partition IO
   (paper Sec. III-B2 / III-B3). *)

open Compass_core
open Compass_arch
open Compass_nn

let setup name chip =
  let units = Unit_gen.generate (Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

let test_full_span_io_minimal () =
  (* A model fully in one partition loads only the input and stores only the
     output. *)
  let units, _, ctx = setup "squeezenet" Config.chip_s in
  let io = Dataflow.span_io ctx ~start_:0 ~stop:(Unit_gen.unit_count units) in
  Alcotest.(check int) "one entry" 1 (List.length io.Dataflow.loads);
  Alcotest.(check int) "one exit" 1 (List.length io.Dataflow.stores);
  let model = units.Unit_gen.model in
  let input_node, _ = List.hd io.Dataflow.loads in
  Alcotest.(check bool) "entry is the model input" true
    (match (Graph.layer model input_node).Layer.op with Layer.Input _ -> true | _ -> false)

let test_input_bytes () =
  let units, _, ctx = setup "resnet18" Config.chip_s in
  let io = Dataflow.span_io ctx ~start_:0 ~stop:(Unit_gen.unit_count units) in
  let _, bytes = List.hd io.Dataflow.loads in
  (* 3 x 224 x 224 at 4 bits. *)
  Alcotest.(check (float 1.)) "input bytes" (3. *. 224. *. 224. /. 2.) bytes

let test_boundary_load_store_pair () =
  (* Cutting a chain in two: the boundary tensor is stored by the first span
     and loaded by the second. *)
  let units, _, ctx = setup "lenet5" Config.chip_s in
  let m = Unit_gen.unit_count units in
  let cut = m / 2 in
  let io0 = Dataflow.span_io ctx ~start_:0 ~stop:cut in
  let io1 = Dataflow.span_io ctx ~start_:cut ~stop:m in
  Alcotest.(check bool) "first stores something" true (io0.Dataflow.store_bytes > 0.);
  Alcotest.(check bool) "second loads something" true (io1.Dataflow.load_bytes > 0.);
  (* Boundary tensors must match: everything the second span loads that is
     not the model input was stored by the first. *)
  let model = units.Unit_gen.model in
  List.iter
    (fun (node, bytes) ->
      match (Graph.layer model node).Layer.op with
      | Layer.Input _ -> ()
      | _ ->
        let stored =
          Option.value ~default:0. (List.assoc_opt node io0.Dataflow.stores)
        in
        Alcotest.(check (float 1e-6)) "store covers load" bytes stored)
    io1.Dataflow.loads

let test_residual_multi_endpoint () =
  (* Cut ResNet18 inside a residual block: the partition holding only the
     inner convs must load both the block input (for the shortcut consumer)
     and produce stores, i.e. multiple endpoints (paper Sec. III-B3). *)
  let units, v, ctx = setup "resnet18" Config.chip_s in
  let rng = Compass_util.Rng.create 99 in
  let found = ref false in
  for _ = 1 to 40 do
    let g = Validity.random_group rng v in
    let ios = Helpers.group_io ctx g in
    if Array.exists (fun io -> List.length io.Dataflow.loads >= 2) ios then found := true
  done;
  ignore units;
  Alcotest.(check bool) "some partition has multiple entries" true !found

let test_attached_layers_cover_model () =
  (* Every non-weighted, non-input node lands in exactly one partition. *)
  let units, v, ctx = setup "squeezenet" Config.chip_s in
  let model = units.Unit_gen.model in
  let g = Validity.random_group (Compass_util.Rng.create 11) v in
  let ios = Helpers.group_io ctx g in
  let attached = Array.to_list ios |> List.concat_map (fun io -> io.Dataflow.attached) in
  let expected =
    List.filter
      (fun n ->
        match (Graph.layer model n).Layer.op with
        | Layer.Input _ -> false
        | op -> not (Layer.is_weighted op))
      (Graph.nodes model)
  in
  Alcotest.(check int) "each attached once" (List.length expected) (List.length attached);
  Alcotest.(check (list int)) "same set" (List.sort compare expected)
    (List.sort compare attached)

let test_weighted_layers_cover_model () =
  let units, v, ctx = setup "vgg16" Config.chip_s in
  let model = units.Unit_gen.model in
  let g = Validity.random_group (Compass_util.Rng.create 13) v in
  let ios = Helpers.group_io ctx g in
  let all = Array.to_list ios |> List.concat_map (fun io -> io.Dataflow.weighted_layers) in
  List.iter
    (fun n ->
      Alcotest.(check bool) "weighted layer appears" true (List.mem n all))
    (Graph.weighted_nodes model)

let test_home_unit_monotone () =
  (* Anchors never precede their producers' anchors. *)
  let units, _, ctx = setup "resnet18" Config.chip_s in
  let model = units.Unit_gen.model in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "anchor ordered" true
            (Dataflow.home_unit ctx p <= Dataflow.home_unit ctx n))
        (Graph.preds model n))
    (Graph.topo_order model)

let test_layer_fraction_bounds () =
  let units, _, ctx = setup "resnet18" Config.chip_s in
  let model = units.Unit_gen.model in
  let m = Unit_gen.unit_count units in
  List.iter
    (fun n ->
      let full = Dataflow.layer_fraction_in ctx n ~start_:0 ~stop:m in
      Alcotest.(check (float 1e-9)) "full span covers" 1. full)
    (Graph.weighted_nodes model)

let test_spills_rules () =
  let _, _, ctx = setup "resnet18" Config.chip_s in
  let units = Dataflow.units ctx in
  let model = units.Unit_gen.model in
  let input = List.hd (Graph.entry_nodes model) in
  let output = List.hd (Graph.exit_nodes model) in
  Alcotest.(check bool) "input spills" true (Dataflow.spills_to_dram ctx ~batch:1 input);
  Alcotest.(check bool) "output spills" true (Dataflow.spills_to_dram ctx ~batch:1 output);
  (* A small mid tensor stays on chip at batch 1 but spills at huge batch. *)
  let fc_input =
    List.find
      (fun n -> (Graph.layer model n).Layer.name = "avgpool")
      (Graph.nodes model)
  in
  Alcotest.(check bool) "small tensor on-chip" false
    (Dataflow.spills_to_dram ctx ~batch:1 fc_input);
  Alcotest.(check bool) "huge batch spills" true
    (Dataflow.spills_to_dram ctx ~batch:100_000_000 fc_input)

let test_onchip_buffer_size () =
  let units, _, ctx = setup "lenet5" Config.chip_s in
  (* Half of 16 cores x 6 banks x 64 KB: an inner tensor spills exactly
     once a batch of it outgrows that budget. *)
  let budget = 0.5 *. 16. *. 6. *. 65536. in
  let model = units.Unit_gen.model in
  let inner =
    List.find
      (fun n -> Graph.preds model n <> [] && Graph.succs model n <> [])
      (Graph.nodes model)
  in
  let fits = int_of_float (budget /. Dataflow.tensor_bytes ctx inner) in
  Alcotest.(check bool) "largest batch on chip" false
    (Dataflow.spills_to_dram ctx ~batch:fits inner);
  Alcotest.(check bool) "one more spills" true
    (Dataflow.spills_to_dram ctx ~batch:(fits + 1) inner)

let test_totals_and_counts () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Validity.random_group (Compass_util.Rng.create 17) v in
  let ios = Helpers.group_io ctx g in
  (* Every partition has an entry and an exit endpoint, so both byte
     totals are positive. *)
  Array.iter
    (fun io ->
      Alcotest.(check bool) "entry and exit" true
        (io.Dataflow.loads <> [] && io.Dataflow.stores <> []))
    ios;
  let total f = Array.fold_left (fun acc io -> acc +. f io) 0. ios in
  Alcotest.(check bool) "positive totals" true
    (total (fun io -> io.Dataflow.load_bytes) > 0.
    && total (fun io -> io.Dataflow.store_bytes) > 0.)

(* Every span query the partitioner issues, pinned: the Marshal bytes of
   [Dataflow.span_io] and [Perf_model.span_layers] over every valid span,
   digested per configuration.  Captured from the full-graph reference
   walks these paths replaced, so any drift in endpoint selection, byte
   sizes or per-layer shares shows here. *)
let span_golden =
  [
    ("resnet18", "19703cc21d0c3f1c2cf6ceeeb1e7a1ca");
    ("squeezenet", "992ad0f10a9a9129b872d30fc5580188");
    ("mobilenet_v1", "71705a6bdb707bae963ba88010fd2cf0");
    ("tiny_resnet", "7c404c932d58ca415bacf158d8efd7c8");
  ]

let span_digest name =
  let units, v, ctx = setup name Config.chip_s in
  let buf = Buffer.create (1 lsl 16) in
  for start_ = 0 to Unit_gen.unit_count units - 1 do
    for stop = start_ + 1 to Validity.max_end v start_ do
      let io = Dataflow.span_io ctx ~start_ ~stop in
      let layers = Perf_model.span_layers ctx ~start_ ~stop in
      Buffer.add_string buf (Marshal.to_string (io, layers) [ Marshal.No_sharing ])
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_span_golden () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ "-S") expected (span_digest name))
    span_golden

(* Property: per-partition loads of any valid group are bounded by the sum
   of all tensor sizes (no unbounded duplication). *)

let prop_loads_bounded =
  QCheck.Test.make ~name:"span loads bounded by model tensors" ~count:30
    QCheck.small_int (fun seed ->
      let units, v, ctx = setup "resnet18" Config.chip_s in
      let model = units.Unit_gen.model in
      let total_tensors =
        List.fold_left (fun acc n -> acc +. Dataflow.tensor_bytes ctx n) 0.
          (Graph.nodes model)
      in
      let g = Validity.random_group (Compass_util.Rng.create seed) v in
      let ios = Helpers.group_io ctx g in
      Array.for_all (fun io -> io.Dataflow.load_bytes <= total_tensors) ios)

let () =
  Alcotest.run "dataflow"
    [
      ( "span-io",
        [
          Alcotest.test_case "full span io minimal" `Quick test_full_span_io_minimal;
          Alcotest.test_case "input bytes" `Quick test_input_bytes;
          Alcotest.test_case "boundary load/store pair" `Quick
            test_boundary_load_store_pair;
          Alcotest.test_case "residual multi endpoint" `Quick test_residual_multi_endpoint;
          Alcotest.test_case "span golden" `Quick test_span_golden;
          QCheck_alcotest.to_alcotest prop_loads_bounded;
        ] );
      ( "attachment",
        [
          Alcotest.test_case "attached cover model" `Quick test_attached_layers_cover_model;
          Alcotest.test_case "weighted cover model" `Quick test_weighted_layers_cover_model;
          Alcotest.test_case "home_unit monotone" `Quick test_home_unit_monotone;
          Alcotest.test_case "layer fraction bounds" `Quick test_layer_fraction_bounds;
        ] );
      ( "buffering",
        [
          Alcotest.test_case "spill rules" `Quick test_spills_rules;
          Alcotest.test_case "on-chip buffer size" `Quick test_onchip_buffer_size;
          Alcotest.test_case "totals and counts" `Quick test_totals_and_counts;
        ] );
    ]
