(* Unit and property tests for Compass_util. *)

open Compass_util

let check_float = Alcotest.(check (float 1e-9))

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

(* The streams as the boxed-[int64] generator drew them: storing the
   state differently must not change a single draw. *)
let test_rng_stream_pinned () =
  let draws rng = List.init 16 (fun _ -> Rng.int rng max_int) in
  Alcotest.(check (list int)) "create 42"
    [
      4456085495900499605; 2949826092126892291; 527597730035375954;
      1737512041830867860; 701532786141963250; 2180923070380825350;
      4028864712777624925; 933993271705612196; 1658934859185094101;
      2185608355395893166; 3779771651426294207; 4482359323033751742;
      247114729376335590; 369180215851445687; 3046653382386749148;
      3752715396868486130;
    ]
    (draws (Rng.create 42));
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  Alcotest.(check (list int)) "split of create 42"
    [
      1720932211098677764; 3795357200955883605; 4359879407727870898;
      1242533817266198696; 3263519356654262073; 1245346008178237623;
      3603600226484403572; 4329828226119001998; 2054659106654809599;
      4011493483211790408; 2602377593303479106; 3235472545740854204;
      4195714335116181330; 250879283243153340; 2740020272425578604;
      360678484330399714;
    ]
    (draws child);
  Alcotest.(check int64) "parent state after split" (-7046029254386353089L)
    (Rng.state parent);
  Alcotest.(check int64) "child state after 16 draws" (-6823290168878616603L)
    (Rng.state child)

let test_rng_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng 51 66 in
    Alcotest.(check bool) "in [51,66]" true (v >= 51 && v <= 66)
  done

let test_rng_int_in_covers_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int_in rng 0 4) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_float_bounds () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "int_in inverted" (Invalid_argument "Rng.int_in: lo > hi")
    (fun () -> ignore (Rng.int_in rng 5 4));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick_array: empty array")
    (fun () -> ignore (Rng.pick_array rng [||]))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 23 in
  let xs = Array.init 50 (fun i -> i) in
  Rng.shuffle rng xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 29 in
  let s = Rng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "ten draws" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s

let test_rng_split_diverges () =
  let a = Rng.create 31 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prop_rng_split_pairwise_independent =
  (* The GA hands every candidate its own split stream; sibling splits and
     the parent must all produce distinct prefixes or candidates would be
     correlated. *)
  QCheck.Test.make ~name:"rng split streams pairwise distinct" ~count:200
    QCheck.small_int
    (fun seed ->
      let parent = Rng.create seed in
      let c1 = Rng.split parent in
      let c2 = Rng.split parent in
      let c3 = Rng.split parent in
      let prefix rng = List.init 8 (fun _ -> Rng.float rng 1.) in
      let streams = [ prefix parent; prefix c1; prefix c2; prefix c3 ] in
      let rec pairwise_distinct = function
        | [] -> true
        | s :: rest -> List.for_all (fun t -> s <> t) rest && pairwise_distinct rest
      in
      pairwise_distinct streams)

(* Stats *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty" 0. (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let test_stats_min_max () =
  check_float "min" (-1.) (Stats.minimum [ 3.; -1.; 2. ]);
  check_float "max" 3. (Stats.maximum [ 3.; -1.; 2. ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile 50. xs);
  check_float "p100" 100. (Stats.percentile 100. xs);
  check_float "p1" 1. (Stats.percentile 1. xs)

(* Units *)

let test_units_bytes () =
  Alcotest.(check string) "mb" "1.12 MB" (Units.bytes_to_string (1.125 *. Units.mib));
  Alcotest.(check string) "zero" "0 B" (Units.bytes_to_string 0.)

let test_units_time () =
  Alcotest.(check string) "us" "12.8 us" (Units.time_to_string 12.8e-6);
  Alcotest.(check string) "ms" "1.5 ms" (Units.time_to_string 1.5e-3)

let test_units_energy () =
  Alcotest.(check string) "mj" "3.2 mJ" (Units.energy_to_string 3.2e-3)

(* Table *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  (* Header separator, left-aligned names, right-aligned numbers. *)
  Alcotest.(check string) "rendered" "name |  v\n-----+---\na    |  1\nbb   | 22"
    (Table.render t)

let test_table_short_row_padded () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  Alcotest.(check string) "one padded row" "a | b | c\n--+---+--\nx |   |  " (Table.render t)

let test_table_long_row_rejected () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* Ascii_plot *)

let test_bar_chart () =
  let s = Ascii_plot.bar_chart ~title:"t" () [ ("a", 1.); ("b", 2.) ] in
  Alcotest.(check bool) "title present" true (String.length s > 1);
  Alcotest.(check int) "three lines" 3 (List.length (String.split_on_char '\n' s))

let test_grouped_bars_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Ascii_plot.grouped_bars: series s length mismatch") (fun () ->
      ignore
        (Ascii_plot.grouped_bars ~title:"t" ~group_labels:[ "g1"; "g2" ]
           ~series:[ ("s", [ 1. ]) ] ()))

let test_heat_map_dims () =
  let s = Ascii_plot.heat_map ~title:"hm" ~render_cell:(fun _ _ -> '#') ~rows:3 ~cols:5 in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "rows+title" 4 (List.length lines);
  Alcotest.(check string) "row content" "#####" (List.nth lines 1)

let test_scatter_empty () =
  Alcotest.(check bool) "renders" true
    (String.length (Ascii_plot.scatter ~title:"s" ~points:[] ()) > 0)

let test_scatter_points () =
  let s =
    Ascii_plot.scatter ~title:"s" ~points:[ (0., 0., 'o'); (1., 1., '+') ] ()
  in
  Alcotest.(check bool) "contains markers" true
    (String.contains s 'o' && String.contains s '+')

(* Properties *)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int always in range" ~count:1000
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let p = Stats.percentile 50. xs in
      p >= Stats.minimum xs && p <= Stats.maximum xs)

let prop_shuffle_preserves_elements =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:300
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let () =
  Alcotest.run "compass_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int_in covers range" `Quick test_rng_int_in_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          QCheck_alcotest.to_alcotest prop_rng_split_pairwise_independent;
          QCheck_alcotest.to_alcotest prop_rng_int_in_range;
          QCheck_alcotest.to_alcotest prop_shuffle_preserves_elements;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          QCheck_alcotest.to_alcotest prop_percentile_bounded;
        ] );
      ( "units",
        [
          Alcotest.test_case "bytes" `Quick test_units_bytes;
          Alcotest.test_case "time" `Quick test_units_time;
          Alcotest.test_case "energy" `Quick test_units_energy;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short row padded" `Quick test_table_short_row_padded;
          Alcotest.test_case "long row rejected" `Quick test_table_long_row_rejected;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "grouped bars mismatch" `Quick test_grouped_bars_mismatch;
          Alcotest.test_case "heat map dims" `Quick test_heat_map_dims;
          Alcotest.test_case "scatter empty" `Quick test_scatter_empty;
          Alcotest.test_case "scatter points" `Quick test_scatter_points;
        ] );
    ]
