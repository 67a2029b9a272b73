(* Tests for IMC technology presets (paper Sec. V-B) and their effect on
   compilation. *)

open Compass_arch
open Compass_core

let test_presets () =
  Alcotest.(check int) "three presets" 3 (List.length Technology.presets);
  Alcotest.(check string) "lookup" "reram" (Technology.by_name "ReRAM").Technology.name;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Technology.by_name "pcm");
       false
     with Not_found -> true)

let test_write_path_ordering () =
  let lat t = t.Technology.row_write_latency_s in
  let en t = t.Technology.write_energy_per_bit_j in
  Alcotest.(check bool) "sram fastest" true
    (lat (Technology.by_name "sram") < lat (Technology.by_name "mram") && lat (Technology.by_name "mram") < lat Technology.reram);
  Alcotest.(check bool) "sram cheapest" true
    (en (Technology.by_name "sram") < en (Technology.by_name "mram") && en (Technology.by_name "mram") < en Technology.reram)

let test_crossbar_retarget () =
  let x = (Technology.chip Technology.reram Config.chip_s).Config.crossbar in
  Alcotest.(check (float 0.)) "write latency" 10e-6 x.Crossbar.row_write_latency_s;
  (* Geometry and read path untouched. *)
  Alcotest.(check int) "rows" Crossbar.default.Crossbar.rows x.Crossbar.rows;
  Alcotest.(check (float 0.)) "mvm latency" Crossbar.default.Crossbar.mvm_latency_s
    x.Crossbar.mvm_latency_s

let test_chip_retarget () =
  let chip = Technology.chip (Technology.by_name "mram") Config.chip_s in
  Alcotest.(check (float 1e-9)) "capacity unchanged"
    (Config.capacity_bytes Config.chip_s)
    (Config.capacity_bytes chip);
  Alcotest.(check string) "label suffixed" "S-mram" chip.Config.label;
  Alcotest.(check (float 0.)) "write path swapped" 2e-6
    chip.Config.crossbar.Crossbar.row_write_latency_s

let test_lifetime () =
  Alcotest.(check bool) "sram unlimited" true
    (Technology.lifetime_s (Technology.by_name "sram") ~rewrites_per_cell_per_s:100. = None);
  (match Technology.lifetime_s Technology.reram ~rewrites_per_cell_per_s:10. with
  | Some s -> Alcotest.(check (float 1.)) "1e6/10" 1e5 s
  | None -> Alcotest.fail "reram must be finite");
  (match Technology.lifetime_s Technology.reram ~rewrites_per_cell_per_s:0. with
  | Some s -> Alcotest.(check bool) "idle lasts forever" true (s = infinity)
  | None -> Alcotest.fail "reram rate 0");
  Alcotest.(check bool) "negative rate rejected" true
    (try
       ignore (Technology.lifetime_s Technology.reram ~rewrites_per_cell_per_s:(-1.));
       false
     with Invalid_argument _ -> true)

let compile_tech tech =
  Compiler.compile ~ga_params:Ga.quick_params
    ~model:(Compass_nn.Models.squeezenet ())
    ~chip:(Technology.chip tech Config.chip_s)
    ~batch:16 Compiler.Compass

let test_reram_slower_than_sram () =
  let sram = compile_tech (Technology.by_name "sram") in
  let reram = compile_tech Technology.reram in
  Alcotest.(check bool) "writes dominate reram" true
    (reram.Compiler.perf.Estimator.throughput_per_s
    < sram.Compiler.perf.Estimator.throughput_per_s);
  Alcotest.(check bool) "reram more energy" true
    (reram.Compiler.perf.Estimator.energy_per_sample_j
    > sram.Compiler.perf.Estimator.energy_per_sample_j)

let test_reram_prefers_fewer_partitions () =
  let sram = compile_tech (Technology.by_name "sram") in
  let reram = compile_tech Technology.reram in
  Alcotest.(check bool) "partition count does not grow" true
    (Partition.partition_count reram.Compiler.group
    <= Partition.partition_count sram.Compiler.group)

let () =
  Alcotest.run "technology"
    [
      ( "presets",
        [
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "write path ordering" `Quick test_write_path_ordering;
          Alcotest.test_case "crossbar retarget" `Quick test_crossbar_retarget;
          Alcotest.test_case "chip retarget" `Quick test_chip_retarget;
          Alcotest.test_case "lifetime" `Quick test_lifetime;
        ] );
      ( "compilation",
        [
          Alcotest.test_case "reram slower than sram" `Quick test_reram_slower_than_sram;
          Alcotest.test_case "reram prefers fewer partitions" `Quick
            test_reram_prefers_fewer_partitions;
        ] );
    ]
