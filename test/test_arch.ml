(* Tests for the hardware model: crossbar geometry/energy, chip presets,
   bus, energy accounting. *)

open Compass_arch

let mib = 1024. *. 1024.

(* Crossbar *)

let test_default_geometry () =
  let x = Crossbar.default in
  Alcotest.(check int) "cols/weight" 4 (Crossbar.cols_per_weight x);
  Alcotest.(check int) "logical cols" 64 (Crossbar.logical_cols x);
  Alcotest.(check (float 1e-9)) "8 KB per macro" 8192. (Crossbar.capacity_bytes x)

let test_tile_grid () =
  let x = Crossbar.default in
  Alcotest.(check (pair int int)) "exact" (1, 1) (Crossbar.tile_grid x ~rows:256 ~cols:64);
  Alcotest.(check (pair int int)) "round up" (2, 2)
    (Crossbar.tile_grid x ~rows:257 ~cols:65);
  (* VGG16 fc6: 25088 x 4096 -> 98 x 64 macros. *)
  Alcotest.(check (pair int int)) "fc6" (98, 64)
    (Crossbar.tile_grid x ~rows:25088 ~cols:4096)

let test_tile_grid_invalid () =
  Alcotest.(check bool) "zero rows" true
    (try
       ignore (Crossbar.tile_grid Crossbar.default ~rows:0 ~cols:4);
       false
     with Invalid_argument _ -> true)

let test_write_latency () =
  let x = Crossbar.default in
  Alcotest.(check (float 1e-12)) "rows x row write" (256. *. 100e-9)
    (Crossbar.write_latency_s x)

let test_make_validation () =
  Alcotest.(check bool) "bad weight bits" true
    (try
       ignore (Crossbar.make ~cell_bits:2 ~weight_bits:3 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative latency" true
    (try
       ignore (Crossbar.make ~mvm_latency_s:(-1.) ());
       false
     with Invalid_argument _ -> true)

(* Config: Table I. *)

let test_preset_capacities () =
  Alcotest.(check (float 1e-6)) "S" 1.125 (Config.capacity_bytes Config.chip_s /. mib);
  Alcotest.(check (float 1e-6)) "M" 2.0 (Config.capacity_bytes Config.chip_m /. mib);
  Alcotest.(check (float 1e-6)) "L" 4.5 (Config.capacity_bytes Config.chip_l /. mib)

let test_preset_macros () =
  Alcotest.(check int) "S" 144 (Config.total_macros Config.chip_s);
  Alcotest.(check int) "M" 256 (Config.total_macros Config.chip_m);
  Alcotest.(check int) "L" 576 (Config.total_macros Config.chip_l)

let test_preset_powers () =
  Alcotest.(check (float 1e-9)) "S" 1.57 Config.chip_s.Config.chip_power_w;
  Alcotest.(check (float 1e-9)) "M" 2.80 Config.chip_m.Config.chip_power_w;
  Alcotest.(check (float 1e-9)) "L" 6.30 Config.chip_l.Config.chip_power_w

let test_core_component_power () =
  (* Table I: 22.8 + 18.0 + 8.0 mW per core.  A custom chip's default
     power is cores x core power + macros x per-macro power, so one core
     more and one macro fewer differ by exactly the core power. *)
  let power cores macros_per_core =
    (Config.custom ~label:"p" ~cores ~macros_per_core ()).Config.chip_power_w
  in
  Alcotest.(check (float 1e-9)) "core power" 48.8e-3 (power 2 1 -. power 1 2)

let test_by_label () =
  Alcotest.(check string) "lower case" "M" (Config.by_label "m").Config.label;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Config.by_label "XL");
       false
     with Not_found -> true)

let test_core_capacity () =
  Alcotest.(check (float 1e-9)) "9 macros" (9. *. 8192.)
    (Config.capacity_bytes Config.chip_s /. float_of_int Config.chip_s.Config.cores)

let test_custom_chip () =
  let chip = Config.custom ~label:"tiny" ~cores:4 ~macros_per_core:2 () in
  Alcotest.(check int) "macros" 8 (Config.total_macros chip);
  Alcotest.(check bool) "positive default power" true (chip.Config.chip_power_w > 0.)

let test_macro_static_power_positive () =
  (* The per-macro residual power is interpolated from preset S, so a
     custom chip of S's geometry gets S's Table I power, and every
     preset's power exceeds the power of its cores alone. *)
  let s = Config.custom ~label:"s" ~cores:16 ~macros_per_core:9 () in
  Alcotest.(check (float 1e-9)) "S reproduced" 1.57 s.Config.chip_power_w;
  List.iter
    (fun (_, chip) ->
      Alcotest.(check bool) "positive" true
        (chip.Config.chip_power_w > float_of_int chip.Config.cores *. 48.8e-3))
    Config.presets

let test_table1_rows () =
  Alcotest.(check int) "three rows" 3 (Helpers.rows (Config.table1 ()))

(* Interconnect *)

let test_bus_transfer_time () =
  let bus = Interconnect.default in
  Alcotest.(check (float 1e-12)) "zero bytes" 0. (Interconnect.transfer_time_s bus ~bytes:0.);
  let t = Interconnect.transfer_time_s bus ~bytes:32e9 in
  Alcotest.(check bool) "1 second plus latency" true (t > 1.0 && t < 1.001)

let test_bus_energy () =
  Alcotest.(check (float 1e-15)) "per byte" 4e-12
    (Interconnect.transfer_energy_j Interconnect.default ~bytes:1.)

(* Energy *)

let test_energy_mvm () =
  let e = Energy.mvm_j Config.chip_s ~macro_ops:1000. in
  Alcotest.(check (float 1e-12)) "1000 ops" (1000. *. 0.5e-9) e

let test_energy_weight_write () =
  (* 1 logical weight byte = 2 weights = 8 cell-columns... for the default
     crossbar, 1 byte of 4-bit weights occupies 8 one-bit cells. *)
  let e = Energy.weight_write_j Config.chip_s ~bytes:1. in
  Alcotest.(check (float 1e-15)) "8 cell bits" (8. *. 1e-12) e

let test_energy_static () =
  Alcotest.(check (float 1e-12)) "1 ms at 1.57 W" 1.57e-3
    (Energy.static_j Config.chip_s ~seconds:1e-3)

let test_energy_negative_rejected () =
  Alcotest.(check bool) "negative" true
    (try
       ignore (Energy.mvm_j Config.chip_s ~macro_ops:(-1.));
       false
     with Invalid_argument _ -> true)

(* Properties *)

let prop_tiles_monotone =
  QCheck.Test.make ~name:"tiles monotone in matrix size" ~count:300
    QCheck.(pair (int_range 1 5000) (int_range 1 5000))
    (fun (rows, cols) ->
      let x = Crossbar.default in
      let tiles ~rows ~cols =
        let rb, cb = Crossbar.tile_grid x ~rows ~cols in
        rb * cb
      in
      tiles ~rows ~cols <= tiles ~rows:(rows + 1) ~cols
      && tiles ~rows ~cols <= tiles ~rows ~cols:(cols + 1))

let prop_tiles_cover_matrix =
  QCheck.Test.make ~name:"tile grid covers the matrix" ~count:300
    QCheck.(pair (int_range 1 30000) (int_range 1 8000))
    (fun (rows, cols) ->
      let x = Crossbar.default in
      let rb, cb = Crossbar.tile_grid x ~rows ~cols in
      rb * 256 >= rows
      && cb * Crossbar.logical_cols x >= cols
      && (rb - 1) * 256 < rows
      && (cb - 1) * Crossbar.logical_cols x < cols)

let prop_bus_time_additive_bound =
  QCheck.Test.make ~name:"bus time scales with bytes" ~count:200
    QCheck.(pair (float_range 1. 1e9) (float_range 1. 1e9))
    (fun (a, b) ->
      let bus = Interconnect.default in
      let t = Interconnect.transfer_time_s bus in
      t ~bytes:(a +. b) <= t ~bytes:a +. t ~bytes:b)

let () =
  Alcotest.run "compass_arch"
    [
      ( "crossbar",
        [
          Alcotest.test_case "default geometry" `Quick test_default_geometry;
          Alcotest.test_case "tile grid" `Quick test_tile_grid;
          Alcotest.test_case "tile grid invalid" `Quick test_tile_grid_invalid;
          Alcotest.test_case "write latency" `Quick test_write_latency;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          QCheck_alcotest.to_alcotest prop_tiles_monotone;
          QCheck_alcotest.to_alcotest prop_tiles_cover_matrix;
        ] );
      ( "config",
        [
          Alcotest.test_case "Table I capacities" `Quick test_preset_capacities;
          Alcotest.test_case "Table I macro counts" `Quick test_preset_macros;
          Alcotest.test_case "Table I powers" `Quick test_preset_powers;
          Alcotest.test_case "core component power" `Quick test_core_component_power;
          Alcotest.test_case "by_label" `Quick test_by_label;
          Alcotest.test_case "core capacity" `Quick test_core_capacity;
          Alcotest.test_case "custom chip" `Quick test_custom_chip;
          Alcotest.test_case "macro static power" `Quick test_macro_static_power_positive;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        ] );
      ( "interconnect",
        [
          Alcotest.test_case "transfer time" `Quick test_bus_transfer_time;
          Alcotest.test_case "transfer energy" `Quick test_bus_energy;
          QCheck_alcotest.to_alcotest prop_bus_time_additive_bound;
        ] );
      ( "energy",
        [
          Alcotest.test_case "mvm" `Quick test_energy_mvm;
          Alcotest.test_case "weight write" `Quick test_energy_weight_write;
          Alcotest.test_case "static" `Quick test_energy_static;
          Alcotest.test_case "negative rejected" `Quick test_energy_negative_rejected;
        ] );
    ]
