(* Tests for the design-space exploration layer. *)

open Compass_core
open Compass_arch

let points =
  lazy
    (Explore.sweep ~ga_params:Ga.quick_params
       ~model:(Compass_nn.Models.squeezenet ())
       ~chips:[ Config.chip_s; Config.chip_m ]
       ~batches:[ 1; 8 ] ())

let test_sweep_size () =
  Alcotest.(check int) "2 chips x 2 batches" 4 (List.length (Lazy.force points))

let test_sweep_order () =
  match Lazy.force points with
  | [ a; b; c; d ] ->
    Alcotest.(check string) "chips major" "S" a.Explore.chip.Config.label;
    Alcotest.(check int) "batch minor" 1 a.Explore.batch;
    Alcotest.(check int) "batch second" 8 b.Explore.batch;
    Alcotest.(check string) "then M" "M" c.Explore.chip.Config.label;
    Alcotest.(check int) "M batch 8" 8 d.Explore.batch
  | _ -> Alcotest.fail "unexpected sweep size"

let test_points_positive () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "throughput" true (p.Explore.throughput_per_s > 0.);
      Alcotest.(check bool) "energy" true (p.Explore.energy_per_sample_j > 0.);
      Alcotest.(check bool) "capacity" true (p.Explore.capacity_mb > 0.))
    (Lazy.force points)

let test_pareto_subset_nondominated () =
  let all = Lazy.force points in
  let frontier = Explore.pareto all in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  Alcotest.(check bool) "subset" true
    (List.for_all (fun p -> List.memq p all) frontier);
  (* No frontier point dominates another. *)
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p != q then
            Alcotest.(check bool) "mutually non-dominated" false
              (p.Explore.throughput_per_s >= q.Explore.throughput_per_s
              && p.Explore.energy_per_sample_j <= q.Explore.energy_per_sample_j
              && (p.Explore.throughput_per_s > q.Explore.throughput_per_s
                 || p.Explore.energy_per_sample_j < q.Explore.energy_per_sample_j)))
        frontier)
    frontier

let test_pareto_sorted_by_energy () =
  let frontier = Explore.pareto (Lazy.force points) in
  let energies = List.map (fun p -> p.Explore.energy_per_sample_j) frontier in
  Alcotest.(check (list (float 0.))) "ascending" (List.sort compare energies) energies

let test_cheapest_meeting () =
  let all = Lazy.force points in
  let best = List.fold_left (fun acc p -> max acc p.Explore.throughput_per_s) 0. all in
  (match Explore.cheapest_meeting ~throughput_per_s:(best /. 2.) all with
  | Some p ->
    Alcotest.(check bool) "meets target" true (p.Explore.throughput_per_s >= best /. 2.)
  | None -> Alcotest.fail "a point must qualify");
  Alcotest.(check bool) "unreachable target" true
    (Explore.cheapest_meeting ~throughput_per_s:(best *. 10.) all = None)

let test_cheapest_prefers_small_chip () =
  let all = Lazy.force points in
  (* With a trivial target every point qualifies; the smallest chip wins. *)
  match Explore.cheapest_meeting ~throughput_per_s:1. all with
  | Some p -> Alcotest.(check string) "chip S preferred" "S" p.Explore.chip.Config.label
  | None -> Alcotest.fail "must find a point"

let test_points_table () =
  Alcotest.(check int) "one row per point" 4
    (Helpers.rows (Explore.points_table (Lazy.force points)))

let () =
  Alcotest.run "explore"
    [
      ( "sweep",
        [
          Alcotest.test_case "size" `Quick test_sweep_size;
          Alcotest.test_case "order" `Quick test_sweep_order;
          Alcotest.test_case "positive metrics" `Quick test_points_positive;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "non-dominated subset" `Quick test_pareto_subset_nondominated;
          Alcotest.test_case "sorted by energy" `Quick test_pareto_sorted_by_energy;
          Alcotest.test_case "cheapest meeting" `Quick test_cheapest_meeting;
          Alcotest.test_case "prefers small chip" `Quick test_cheapest_prefers_small_chip;
          Alcotest.test_case "table" `Quick test_points_table;
        ] );
    ]
