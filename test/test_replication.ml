(* Tests for the replication allocator and the shared perf model. *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

(* Perf_model *)

let test_span_layers_topo () =
  let units, _, ctx = setup "resnet18" Config.chip_s in
  let m = Unit_gen.unit_count units in
  let layers = Perf_model.span_layers ctx ~start_:0 ~stop:m in
  let expected = Compass_nn.Graph.weighted_nodes units.Unit_gen.model in
  Alcotest.(check (list int)) "all weighted layers in order" expected
    (List.map (fun (p : Perf_model.layer_perf) -> p.Perf_model.node) layers)

let test_stage_time_scales_with_replication () =
  let units, _, ctx = setup "resnet18" Config.chip_s in
  ignore units;
  let layers = Perf_model.span_layers ctx ~start_:0 ~stop:4 in
  List.iter
    (fun (p : Perf_model.layer_perf) ->
      let s1 = Perf_model.stage_time_s p ~replication:1 in
      let s2 = Perf_model.stage_time_s p ~replication:2 in
      Alcotest.(check (float 1e-12)) "halves" (s1 /. 2.) s2)
    layers

let test_op_time_includes_mvm_latency () =
  let units, _, ctx = setup "lenet5" Config.chip_s in
  let m = Unit_gen.unit_count units in
  let layers = Perf_model.span_layers ctx ~start_:0 ~stop:m in
  List.iter
    (fun (p : Perf_model.layer_perf) ->
      Alcotest.(check bool) "op time >= mvm latency" true
        (p.Perf_model.op_time_s
        >= Config.chip_s.Config.crossbar.Crossbar.mvm_latency_s))
    layers

let test_attached_ops_positive () =
  let units, _, ctx = setup "resnet18" Config.chip_s in
  let io = Dataflow.span_io ctx ~start_:0 ~stop:(Unit_gen.unit_count units) in
  Alcotest.(check bool) "relu/pool/bn work exists" true
    (Perf_model.attached_vfu_ops ctx io > 0)

let test_max_useful_replication () =
  let units, _, ctx = setup "vgg16" Config.chip_s in
  let m = Unit_gen.unit_count units in
  let layers = Perf_model.span_layers ctx ~start_:0 ~stop:m in
  let fc =
    List.find
      (fun (p : Perf_model.layer_perf) -> p.Perf_model.mvms = 1)
      layers
  in
  Alcotest.(check int) "linear caps at 1" 1 (Perf_model.max_useful_replication fc)

(* Replication allocator *)

(* Per-unit replication by layer, for re-packing an allocation. *)
let unit_replication alloc units i =
  Replication.replication_of alloc (Unit_gen.layer_of_unit units i)

let test_replication_at_least_one () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let stop = Validity.max_end v 0 in
  let alloc = (Replication.place ctx ~batch:16 ~start_:0 ~stop).replication in
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "r >= 1" true (r >= 1))
    alloc.Replication.per_layer

let test_replication_within_budget () =
  List.iter
    (fun (_, chip) ->
      let _, v, ctx = setup "resnet18" chip in
      let budget = Config.total_macros chip in
      let rec spans pos acc =
        if pos >= Validity.size v then List.rev acc
        else
          let stop = Validity.max_end v pos in
          spans stop ((pos, stop) :: acc)
      in
      List.iter
        (fun (a, b) ->
          let alloc = (Replication.place ctx ~batch:16 ~start_:a ~stop:b).replication in
          Alcotest.(check bool) "tiles within budget" true
            (alloc.Replication.tiles_used <= budget);
          Alcotest.(check int) "spare consistent" budget
            (alloc.Replication.tiles_used + alloc.Replication.spare_tiles))
        (spans 0 []))
    Config.presets

let test_replication_packs () =
  (* The allocation must always be placeable. *)
  let units, v, ctx = setup "squeezenet" Config.chip_s in
  let m = Validity.size v in
  let alloc = (Replication.place ctx ~batch:16 ~start_:0 ~stop:m).replication in
  match
    Mapping.pack units ~start_:0 ~stop:m
      ~replication:(unit_replication alloc units)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("final allocation does not pack: " ^ e)

let test_replication_helps_bottleneck () =
  (* With spare space, the early high-pixel-count conv gets replicated. *)
  let units, v, ctx = setup "squeezenet" Config.chip_s in
  let m = Validity.size v in
  let alloc = (Replication.place ctx ~batch:16 ~start_:0 ~stop:m).replication in
  let model = units.Unit_gen.model in
  let conv1 =
    List.find
      (fun n -> (Compass_nn.Graph.layer model n).Compass_nn.Layer.name = "conv1")
      (Compass_nn.Graph.weighted_nodes model)
  in
  Alcotest.(check bool) "conv1 replicated" true
    (Replication.replication_of alloc conv1 > 1);
  Alcotest.(check bool) "max replication consistent" true
    (Replication.max_replication alloc >= Replication.replication_of alloc conv1)

let test_replication_reduces_bottleneck () =
  (* The replicated pipeline bottleneck is no worse than unreplicated. *)
  let _, v, ctx = setup "squeezenet" Config.chip_m in
  let m = Validity.size v in
  let layers = Perf_model.span_layers ctx ~start_:0 ~stop:m in
  let alloc = (Replication.place ctx ~batch:16 ~start_:0 ~stop:m).replication in
  let bottleneck rep_of =
    List.fold_left
      (fun acc (p : Perf_model.layer_perf) ->
        max acc (Perf_model.stage_time_s p ~replication:(rep_of p.Perf_model.node)))
      0. layers
  in
  let before = bottleneck (fun _ -> 1) in
  let after = bottleneck (Replication.replication_of alloc) in
  Alcotest.(check bool) "bottleneck improves" true (after < before)

let test_default_replication_for_absent_layer () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let alloc = (Replication.place ctx ~batch:16 ~start_:0 ~stop:(Validity.size v)).replication in
  Alcotest.(check int) "absent node defaults to 1" 1
    (Replication.replication_of alloc 99999)

let test_greedy_spans_little_spare () =
  (* Greedy packs to the rim: the replication allocator finds little spare
     space — the paper's explanation of greedy's poor throughput. *)
  let _, v, ctx = setup "vgg16" Config.chip_s in
  let g = Baselines.greedy v in
  let spares =
    List.map
      (fun (s : Partition.span) ->
        let alloc =
          (Replication.place ctx ~batch:16 ~start_:s.Partition.start_ ~stop:s.Partition.stop)
            .replication
        in
        float_of_int alloc.Replication.spare_tiles
        /. float_of_int (Config.total_macros Config.chip_s))
      (Partition.spans g)
  in
  let avg = Compass_util.Stats.mean spares in
  Alcotest.(check bool)
    (Printf.sprintf "avg spare small (%.2f)" avg)
    true (avg < 0.35)

(* Properties *)

let prop_allocation_valid_on_random_spans =
  QCheck.Test.make ~name:"allocation valid on random spans" ~count:40
    QCheck.small_int (fun seed ->
      let units, v, ctx = setup "resnet18" Config.chip_m in
      let rng = Compass_util.Rng.create seed in
      let a = Compass_util.Rng.int rng (Validity.size v) in
      let b = Compass_util.Rng.int_in rng (a + 1) (Validity.max_end v a) in
      let alloc = (Replication.place ctx ~batch:16 ~start_:a ~stop:b).replication in
      alloc.Replication.tiles_used <= Config.total_macros Config.chip_m
      && List.for_all (fun (_, r) -> r >= 1) alloc.Replication.per_layer
      &&
      match
        Mapping.pack units ~start_:a ~stop:b
          ~replication:(unit_replication alloc units)
      with
      | Ok _ -> true
      | Error _ -> false)

(* The greedy as it was before its two scans were fused: one scan for the
   worst replicable stage, a second for the global worst stage, then the
   same fragmentation shrink. *)
let reference_place ctx ~batch ~start_ ~stop =
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let budget = Config.total_macros chip in
  let layer_list = Perf_model.span_layers ctx ~start_ ~stop in
  let layers = Array.of_list layer_list in
  let n = Array.length layers in
  let rep = Array.make n 1 in
  let tiles l = layers.(l).Perf_model.tiles_in_span in
  let used = ref (Array.fold_left (fun acc p -> acc + p.Perf_model.tiles_in_span) 0 layers) in
  let fbatch = float_of_int batch in
  let wl = Crossbar.write_latency_s chip.Config.crossbar in
  let fcores = float_of_int chip.Config.cores in
  let stage_num =
    Array.map (fun p -> float_of_int p.Perf_model.mvms *. p.Perf_model.op_time_s) layers
  in
  let stage_arr = Array.map (fun num -> num /. 1.) stage_num in
  let write_cost l = float_of_int (tiles l) *. wl /. fcores in
  let saving_num =
    Array.map
      (fun p -> fbatch *. float_of_int p.Perf_model.mvms *. p.Perf_model.op_time_s)
      layers
  in
  let saving_at l r =
    let r = float_of_int r in
    saving_num.(l) *. ((1. /. r) -. (1. /. (r +. 1.)))
  in
  let saving_arr = Array.init n (fun l -> saving_at l 1) in
  let set_rep l r =
    rep.(l) <- r;
    stage_arr.(l) <- stage_num.(l) /. float_of_int r;
    saving_arr.(l) <- saving_at l r
  in
  let max_rep = Array.map Perf_model.max_useful_replication layers in
  let incremented = ref [] in
  let rec grow () =
    let bottleneck = ref (-1) in
    for l = 0 to n - 1 do
      if layers.(l).Perf_model.mvms > 1
         && rep.(l) < max_rep.(l)
         && tiles l > 0
         && !used + tiles l <= budget
         && saving_arr.(l) > write_cost l
      then
        if !bottleneck < 0 || stage_arr.(l) > stage_arr.(!bottleneck) then bottleneck := l
    done;
    if !bottleneck >= 0 then begin
      let global_worst = ref 0. in
      for l = 0 to n - 1 do
        let s = stage_arr.(l) in
        if not (!global_worst >= s) then global_worst := s
      done;
      if stage_arr.(!bottleneck) >= !global_worst *. (1. -. 1e-9) then begin
        let l = !bottleneck in
        set_rep l (rep.(l) + 1);
        used := !used + tiles l;
        incremented := l :: !incremented;
        grow ()
      end
    end
  in
  if n > 0 then grow ();
  let rep_of_unit i =
    let node = Unit_gen.layer_of_unit units i in
    let rec find l =
      if l = n then 1 else if layers.(l).Perf_model.node = node then rep.(l) else find (l + 1)
    in
    find 0
  in
  let rec shrink () =
    match Mapping.pack units ~start_ ~stop ~replication:rep_of_unit with
    | Ok _ -> ()
    | Error msg -> (
      match !incremented with
      | [] -> Alcotest.fail ("reference_place: infeasible span: " ^ msg)
      | l :: rest ->
        set_rep l (rep.(l) - 1);
        used := !used - tiles l;
        incremented := rest;
        shrink ())
  in
  shrink ();
  (List.mapi (fun l p -> (p.Perf_model.node, rep.(l))) layer_list, !used)

let test_place_matches_two_scan_greedy () =
  List.iter
    (fun name ->
      let units, v, ctx = setup name Config.chip_l in
      List.iter
        (fun batch ->
          for a = 0 to Unit_gen.unit_count units - 1 do
            for b = a + 1 to Validity.max_end v a do
              let got = (Replication.place ctx ~batch ~start_:a ~stop:b).Replication.replication in
              let per_layer, tiles_used = reference_place ctx ~batch ~start_:a ~stop:b in
              let label = Printf.sprintf "%s-L-%d [%d,%d)" name batch a b in
              if got.Replication.per_layer <> per_layer then
                Alcotest.fail (label ^ ": per-layer replication differs");
              Alcotest.(check int) (label ^ ": tiles used") tiles_used
                got.Replication.tiles_used
            done
          done)
        [ 1; 16 ])
    [ "squeezenet"; "mobilenet_v1" ]

(* Packing: the bucket fill against per-item first-fit-decreasing. *)

(* First-fit-decreasing one item at a time: every replica of every unit,
   stably sorted by decreasing tiles over the list built by prepending
   (so equal-tile items come in reverse build order), each placed on the
   first core with room. *)
let reference_pack ~capacities (units : Unit_gen.t) ~start_ ~stop ~replication =
  let items = ref [] in
  for i = start_ to stop - 1 do
    for replica = 0 to replication i - 1 do
      items :=
        { Mapping.unit_index = i; replica; tiles = units.Unit_gen.units.(i).Unit_gen.tiles }
        :: !items
    done
  done;
  let sorted =
    List.stable_sort (fun a b -> compare b.Mapping.tiles a.Mapping.tiles) !items
  in
  let ncores = Array.length capacities in
  let cores = Array.make ncores [] and tiles_used = Array.make ncores 0 in
  let rec place = function
    | [] -> Ok (Array.map List.rev cores, tiles_used)
    | (item : Mapping.assignment) :: rest -> (
      let rec first c =
        if c = ncores then None
        else if tiles_used.(c) + item.Mapping.tiles <= capacities.(c) then Some c
        else first (c + 1)
      in
      match first 0 with
      | None ->
        Error
          (Printf.sprintf "unit %d replica %d (%d tiles) does not fit" item.Mapping.unit_index
             item.Mapping.replica item.Mapping.tiles)
      | Some c ->
        cores.(c) <- item :: cores.(c);
        tiles_used.(c) <- tiles_used.(c) + item.Mapping.tiles;
        place rest)
  in
  place sorted

(* Random unit tile counts (zero included), replication and per-core
   health (dead and degraded cores included) on a small custom chip, with
   units borrowed from lenet5 and given new tile counts. *)
let prop_pack_matches_first_fit =
  QCheck.Test.make ~name:"pack = per-item first-fit-decreasing" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Compass_util.Rng.create seed in
      let draw lo hi = Compass_util.Rng.int_in rng lo hi in
      let macros = draw 1 8 in
      let chip = Config.custom ~label:"P" ~cores:(draw 1 6) ~macros_per_core:macros () in
      let base = Unit_gen.generate (Compass_nn.Models.by_name "lenet5") chip in
      let m = draw 1 12 in
      let units =
        {
          base with
          Unit_gen.chip;
          units =
            Array.init m (fun i ->
                { (base.Unit_gen.units.(0)) with Unit_gen.index = i; tiles = draw 0 macros });
        }
      in
      let faults =
        if Compass_util.Rng.bool rng then None
        else
          Some
            (Fault.make
               (Array.init chip.Config.cores (fun _ ->
                    match draw 0 3 with
                    | 0 -> Fault.Dead
                    | 1 -> Fault.Degraded (draw 1 macros)
                    | _ -> Fault.Healthy)))
      in
      let capacities =
        match faults with
        | None -> Array.make chip.Config.cores macros
        | Some f -> Fault.capacities f ~macros_per_core:macros
      in
      let start_ = draw 0 (m - 1) in
      let stop = draw (start_ + 1) m in
      let reps = Array.init m (fun _ -> draw 1 4) in
      let replication i = reps.(i) in
      let expected = reference_pack ~capacities units ~start_ ~stop ~replication in
      match (Mapping.pack ?faults units ~start_ ~stop ~replication, expected) with
      | Ok got, Ok (cores, tiles_used) ->
        Lazy.force got.Mapping.cores = cores
        && got.Mapping.tiles_used = tiles_used
        && got.Mapping.total_tiles = Array.fold_left ( + ) 0 tiles_used
        && got.Mapping.capacities = capacities
      | Error got, Error want -> String.equal got want
      | Ok _, Error _ | Error _, Ok _ -> false)

let () =
  Alcotest.run "replication"
    [
      ( "perf_model",
        [
          Alcotest.test_case "span layers topo" `Quick test_span_layers_topo;
          Alcotest.test_case "stage time scales" `Quick
            test_stage_time_scales_with_replication;
          Alcotest.test_case "op time >= mvm" `Quick test_op_time_includes_mvm_latency;
          Alcotest.test_case "attached ops positive" `Quick test_attached_ops_positive;
          Alcotest.test_case "max useful replication" `Quick test_max_useful_replication;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "at least one" `Quick test_replication_at_least_one;
          Alcotest.test_case "within budget" `Quick test_replication_within_budget;
          Alcotest.test_case "always packs" `Quick test_replication_packs;
          Alcotest.test_case "helps bottleneck layer" `Quick
            test_replication_helps_bottleneck;
          Alcotest.test_case "reduces bottleneck" `Quick test_replication_reduces_bottleneck;
          Alcotest.test_case "absent layer defaults" `Quick
            test_default_replication_for_absent_layer;
          Alcotest.test_case "greedy spans little spare" `Quick
            test_greedy_spans_little_spare;
          Alcotest.test_case "place = two-scan greedy" `Quick
            test_place_matches_two_scan_greedy;
          QCheck_alcotest.to_alcotest prop_allocation_valid_on_random_spans;
        ] );
      ("packing", [ QCheck_alcotest.to_alcotest prop_pack_matches_first_fit ]);
    ]
