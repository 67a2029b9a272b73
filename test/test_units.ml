(* Tests for model decomposition into partition units. *)

open Compass_core
open Compass_arch

let gen name chip = Unit_gen.generate (Compass_nn.Models.by_name name) chip

let macros chip = chip.Config.core.Config.macros_per_core

let test_units_fit_core () =
  List.iter
    (fun (_, chip) ->
      List.iter
        (fun name ->
          let t = gen name chip in
          Array.iter
            (fun u ->
              Alcotest.(check bool)
                (Printf.sprintf "%s unit %d fits" name u.Unit_gen.index)
                true
                (u.Unit_gen.tiles >= 1 && u.Unit_gen.tiles <= macros chip))
            t.Unit_gen.units)
        [ "vgg16"; "resnet18"; "squeezenet"; "lenet5" ])
    Config.presets

let test_indices_dense () =
  let t = gen "resnet18" Config.chip_s in
  Array.iteri
    (fun i u -> Alcotest.(check int) "dense index" i u.Unit_gen.index)
    t.Unit_gen.units

let test_layer_units_contiguous () =
  let t = gen "vgg16" Config.chip_s in
  List.iter
    (fun (_, idxs) ->
      match idxs with
      | [] -> Alcotest.fail "layer without units"
      | first :: _ ->
        List.iteri
          (fun k i -> Alcotest.(check int) "contiguous" (first + k) i)
          idxs)
    t.Unit_gen.layer_units

let test_weight_bytes_cover_model () =
  List.iter
    (fun name ->
      let model = Compass_nn.Models.by_name name in
      let t = Unit_gen.generate model Config.chip_s in
      let expected = Compass_nn.Graph.weight_bytes ~weight_bits:4 model in
      let got = Unit_gen.span_weight_bytes t 0 (Unit_gen.unit_count t) in
      Alcotest.(check (float 1.)) (name ^ " bytes covered") expected got)
    [ "vgg16"; "resnet18"; "squeezenet"; "lenet5"; "tiny_mlp" ]

let test_column_cover () =
  (* Units of a layer cover its output columns exactly once. *)
  let t = gen "resnet18" Config.chip_s in
  let model = t.Unit_gen.model in
  List.iter
    (fun (node, idxs) ->
      let cols =
        Compass_nn.Layer.weight_cols (Compass_nn.Graph.layer model node).Compass_nn.Layer.op
      in
      (* Sum of column extents over non-partial-sum-duplicated slices. *)
      let covered = Hashtbl.create 16 in
      List.iter
        (fun i ->
          let u = t.Unit_gen.units.(i) in
          for c = u.Unit_gen.col_lo to u.Unit_gen.col_hi - 1 do
            if u.Unit_gen.row_lo = 0 then begin
              Alcotest.(check bool) "no double cover" false (Hashtbl.mem covered c);
              Hashtbl.add covered c ()
            end
          done)
        idxs;
      Alcotest.(check int) "all columns covered" cols (Hashtbl.length covered))
    t.Unit_gen.layer_units

let test_row_split_when_needed () =
  (* VGG16 fc6 has 98 macro rows; chip S cores hold 9 macros, so its units
     must be row-split partial-sum units. *)
  let t = gen "vgg16" Config.chip_s in
  let model = t.Unit_gen.model in
  let fc6 =
    List.find
      (fun (node, _) -> (Compass_nn.Graph.layer model node).Compass_nn.Layer.name = "fc6")
      t.Unit_gen.layer_units
  in
  let idxs = snd fc6 in
  Alcotest.(check int) "64 col blocks x ceil(98/9)" (64 * 11) (List.length idxs);
  List.iter
    (fun i ->
      Alcotest.(check bool) "partial sum" true t.Unit_gen.units.(i).Unit_gen.partial_sum)
    idxs

let test_no_row_split_on_large_core () =
  let t = gen "resnet18" Config.chip_l in
  Array.iter
    (fun u -> Alcotest.(check bool) "no partial sums" false u.Unit_gen.partial_sum)
    t.Unit_gen.units

let test_bigger_chip_fewer_units () =
  let s = Unit_gen.unit_count (gen "vgg16" Config.chip_s) in
  let m = Unit_gen.unit_count (gen "vgg16" Config.chip_m) in
  let l = Unit_gen.unit_count (gen "vgg16" Config.chip_l) in
  Alcotest.(check bool) "monotone" true (s >= m && m >= l)

let test_total_tiles_match_grid () =
  let t = gen "squeezenet" Config.chip_s in
  let model = t.Unit_gen.model in
  let xbar = Config.chip_s.Config.crossbar in
  let expected =
    List.fold_left
      (fun acc node ->
        let op = (Compass_nn.Graph.layer model node).Compass_nn.Layer.op in
        acc
        +
        let rb, cb =
          Crossbar.tile_grid xbar ~rows:(Compass_nn.Layer.weight_rows op)
            ~cols:(Compass_nn.Layer.weight_cols op)
        in
        rb * cb)
      0
      (Compass_nn.Graph.weighted_nodes model)
  in
  Alcotest.(check int) "tiles match per-layer grids" expected
    (Array.fold_left (fun acc u -> acc + u.Unit_gen.tiles) 0 t.Unit_gen.units)

let test_span_helpers () =
  let t = gen "lenet5" Config.chip_s in
  let m = Unit_gen.unit_count t in
  Alcotest.(check (float 0.)) "full span"
    (Array.fold_left (fun acc u -> acc +. u.Unit_gen.weight_bytes) 0. t.Unit_gen.units)
    (Unit_gen.span_weight_bytes t 0 m);
  Alcotest.(check (float 0.)) "empty span" 0. (Unit_gen.span_weight_bytes t 2 2);
  Alcotest.(check bool) "bad span" true
    (try
       ignore (Unit_gen.span_weight_bytes t 3 1);
       false
     with Invalid_argument _ -> true)

let test_layer_of_unit () =
  let t = gen "lenet5" Config.chip_s in
  Array.iter
    (fun u ->
      Alcotest.(check int) "consistent" u.Unit_gen.layer
        (Unit_gen.layer_of_unit t u.Unit_gen.index))
    t.Unit_gen.units

let test_no_weighted_layer_rejected () =
  let g = Compass_nn.Graph.create () in
  let input =
    Compass_nn.Graph.add g "in"
      (Compass_nn.Layer.Input (Compass_nn.Shape.vector 10))
  in
  let _ = Compass_nn.Graph.add g ~inputs:[ input ] "r" Compass_nn.Layer.Relu in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Unit_gen.generate g Config.chip_s);
       false
     with Invalid_argument _ -> true)

let test_col_fraction_sums_to_one () =
  let t = gen "resnet18" Config.chip_m in
  let model = t.Unit_gen.model in
  List.iter
    (fun (_node, idxs) ->
      let total =
        List.fold_left
          (fun acc i ->
            let u = t.Unit_gen.units.(i) in
            if u.Unit_gen.row_lo = 0 then acc +. Unit_gen.col_fraction u model else acc)
          0. idxs
      in
      Alcotest.(check (float 1e-9)) "fractions sum to 1" 1. total)
    t.Unit_gen.layer_units

(* Property over random chips: decomposition invariants hold. *)

let prop_decomposition_invariants =
  QCheck.Test.make ~name:"decomposition invariants on random chips" ~count:40
    QCheck.(pair (int_range 2 20) (int_range 1 40))
    (fun (cores, macros_per_core) ->
      let chip = Config.custom ~label:"q" ~cores ~macros_per_core () in
      let t = Unit_gen.generate (Compass_nn.Models.squeezenet ()) chip in
      Array.for_all
        (fun u -> u.Unit_gen.tiles >= 1 && u.Unit_gen.tiles <= macros_per_core)
        t.Unit_gen.units
      && Unit_gen.unit_count t > 0)

let () =
  Alcotest.run "unit_gen"
    [
      ( "decomposition",
        [
          Alcotest.test_case "units fit a core" `Quick test_units_fit_core;
          Alcotest.test_case "indices dense" `Quick test_indices_dense;
          Alcotest.test_case "layer units contiguous" `Quick test_layer_units_contiguous;
          Alcotest.test_case "weight bytes covered" `Quick test_weight_bytes_cover_model;
          Alcotest.test_case "columns covered once" `Quick test_column_cover;
          Alcotest.test_case "row split when needed" `Quick test_row_split_when_needed;
          Alcotest.test_case "no row split on chip L" `Quick test_no_row_split_on_large_core;
          Alcotest.test_case "bigger chip fewer units" `Quick test_bigger_chip_fewer_units;
          Alcotest.test_case "tiles match grids" `Quick test_total_tiles_match_grid;
          Alcotest.test_case "span helpers" `Quick test_span_helpers;
          Alcotest.test_case "layer_of_unit" `Quick test_layer_of_unit;
          Alcotest.test_case "no weighted layer rejected" `Quick
            test_no_weighted_layer_rejected;
          Alcotest.test_case "col fractions sum to one" `Quick
            test_col_fraction_sums_to_one;
          QCheck_alcotest.to_alcotest prop_decomposition_invariants;
        ] );
    ]
