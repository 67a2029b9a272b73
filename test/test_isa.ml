(* Tests for the instruction set, program validation and the event-driven
   chip simulator. *)

open Compass_isa
open Compass_arch

let chip = Config.chip_s

let run programs = Sim.run chip programs

let prog core_id instrs = Program.make ~core_id instrs

(* Instr / Program *)

let test_program_totals () =
  let p =
    prog 0
      [
        Instr.Mvm { count = 3; tiles = 1; tag = "" };
        Instr.Mvm { count = 4; tiles = 2; tag = "" };
        Instr.Load { bytes = 100.; addr = 0; tag = "" };
      ]
  in
  Alcotest.(check (list (pair string int)))
    "mix" [ ("load", 1); ("mvm", 2) ] (Program.instruction_mix [ p ]);
  Alcotest.(check int) "length" 3 (Program.length p)

let test_program_validate_duplicates () =
  Alcotest.(check bool) "duplicate ids" true
    (Program.validate ~cores:4 [ prog 0 []; prog 0 [] ] = Error "duplicate core ids")

let test_program_validate_range () =
  Alcotest.(check bool) "out of range" true
    (Program.validate ~cores:2 [ prog 5 [] ] = Error "core id out of range")

let test_program_validate_send_recv () =
  let ok =
    [
      prog 0 [ Instr.Send { bytes = 8.; dst = 1; channel = 1 } ];
      prog 1 [ Instr.Recv { bytes = 8.; src = 0; channel = 1 } ];
    ]
  in
  Alcotest.(check bool) "matched" true (Program.validate ~cores:2 ok = Ok ());
  let orphan = [ prog 0 [ Instr.Send { bytes = 8.; dst = 1; channel = 1 } ]; prog 1 [] ] in
  Alcotest.(check bool) "orphan send" true
    (Program.validate ~cores:2 orphan = Error "send without matching recv")

let test_instruction_mix () =
  let mix =
    Program.instruction_mix
      [ prog 0 [ Instr.Vfu { ops = 1 }; Instr.Vfu { ops = 2 } ]; prog 1 [ Instr.Sync { token = 0; parties = 2 } ] ]
  in
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("sync", 1); ("vfu", 2) ]
    mix

(* Sim: timing semantics *)

let test_sim_empty () =
  let r = run [] in
  Alcotest.(check (float 0.)) "no time" 0. r.Sim.makespan_s

let test_sim_mvm_latency () =
  let r = run [ prog 0 [ Instr.Mvm { count = 100; tiles = 3; tag = "" } ] ] in
  Alcotest.(check (float 1e-12)) "count x mvm latency"
    (100. *. chip.Config.crossbar.Crossbar.mvm_latency_s)
    r.Sim.makespan_s;
  Alcotest.(check (float 0.)) "macro ops" 300. r.Sim.mvm_macro_ops

let test_sim_vfu_latency () =
  let r = run [ prog 0 [ Instr.Vfu { ops = 1200 } ] ] in
  (* 12 lanes at 1 GHz -> 100 cycles. *)
  Alcotest.(check (float 1e-12)) "lanes divide" 100e-9 r.Sim.makespan_s

let test_sim_load_counts_bytes () =
  let r = run [ prog 0 [ Instr.Load { bytes = 6400.; addr = 0; tag = "t" } ] ] in
  Alcotest.(check (float 0.)) "bytes" 6400. r.Sim.load_bytes;
  Alcotest.(check int) "one trace record" 1 (List.length r.Sim.dram_trace);
  Alcotest.(check bool) "at least dram time" true
    (r.Sim.makespan_s >= 6400. /. 6.4e9)

let test_sim_zero_byte_transfers_free () =
  let r =
    run [ prog 0 [ Instr.Weight_write { macro_count = 2; bytes = 0.; addr = 0; tag = "" } ] ]
  in
  Alcotest.(check int) "no trace" 0 (List.length r.Sim.dram_trace);
  Alcotest.(check (float 1e-12)) "program time only"
    (2. *. Crossbar.write_latency_s chip.Config.crossbar)
    r.Sim.makespan_s

let test_sim_weight_write_includes_programming () =
  let r =
    run
      [ prog 0 [ Instr.Weight_write { macro_count = 9; bytes = 8192.; addr = 0; tag = "" } ] ]
  in
  Alcotest.(check bool) "at least serial programming" true
    (r.Sim.makespan_s >= 9. *. Crossbar.write_latency_s chip.Config.crossbar);
  Alcotest.(check (float 0.)) "weight bytes" 8192. r.Sim.weight_bytes

let test_sim_bus_serializes () =
  (* Two cores each move 32 MB; the shared bus must serialize them. *)
  let mb32 = 32. *. 1024. *. 1024. in
  let one = run [ prog 0 [ Instr.Load { bytes = mb32; addr = 0; tag = "" } ] ] in
  let two =
    run
      [
        prog 0 [ Instr.Load { bytes = mb32; addr = 0; tag = "" } ];
        prog 1 [ Instr.Load { bytes = mb32; addr = 1 lsl 26; tag = "" } ];
      ]
  in
  Alcotest.(check bool) "two slower than one" true
    (two.Sim.makespan_s > 1.5 *. one.Sim.makespan_s)

let test_sim_send_recv_transfers () =
  let r =
    run
      [
        prog 0
          [
            Instr.Mvm { count = 10; tiles = 1; tag = "" };
            Instr.Send { bytes = 1024.; dst = 1; channel = 7 };
          ];
        prog 1
          [ Instr.Recv { bytes = 1024.; src = 0; channel = 7 }; Instr.Vfu { ops = 12 } ];
      ]
  in
  (* Core 1 must wait for core 0's compute + transfer before its VFU op. *)
  let finish id = List.assoc id r.Sim.core_finish_s in
  Alcotest.(check bool) "core1 after core0 send" true (finish 1 > finish 0 -. 1e-12)

let test_sim_sync_barrier () =
  let r =
    run
      [
        prog 0
          [ Instr.Mvm { count = 1000; tiles = 1; tag = "" }; Instr.Sync { token = 1; parties = 2 } ];
        prog 1 [ Instr.Sync { token = 1; parties = 2 }; Instr.Vfu { ops = 12 } ];
      ]
  in
  let finish id = List.assoc id r.Sim.core_finish_s in
  (* Core 1's single VFU op runs only after core 0's 1000 MVMs release the
     barrier. *)
  Alcotest.(check bool) "barrier holds" true
    (finish 1 >= 1000. *. chip.Config.crossbar.Crossbar.mvm_latency_s)

let test_sim_deadlock_detected () =
  let programs =
    [
      prog 0
        [
          Instr.Recv { bytes = 1.; src = 1; channel = 1 };
          Instr.Send { bytes = 1.; dst = 1; channel = 2 };
        ];
      prog 1
        [
          Instr.Recv { bytes = 1.; src = 0; channel = 2 };
          Instr.Send { bytes = 1.; dst = 0; channel = 1 };
        ];
    ]
  in
  Alcotest.(check bool) "deadlock raised" true
    (try
       ignore (run programs);
       false
     with Sim.Deadlock _ -> true)

let test_sim_invalid_program_rejected () =
  Alcotest.(check bool) "validation enforced" true
    (try
       ignore (run [ prog 99 [] ]);
       false
     with Invalid_argument _ -> true)

let test_sim_energy_components () =
  let r = run [ prog 0 [ Instr.Mvm { count = 10; tiles = 2; tag = "" } ] ] in
  Alcotest.(check bool) "has all labels" true
    (List.for_all
       (fun l -> List.mem_assoc l r.Sim.energy_components)
       [ "mvm"; "vfu"; "weight_program"; "bus"; "dram"; "static" ]);
  Alcotest.(check bool) "positive total" true (r.Sim.energy_j > 0.)

(* Dispatch order.  The programs are listed out of id order, so program
   position and core id disagree. *)

let kb = 1024.

let loads_by_core r =
  List.filter_map
    (fun e -> if e.Sim.label = "load" then Some e.Sim.core else None)
    r.Sim.events

let test_sim_ties_in_program_order () =
  (* All three cores reach the bus at time 0: the first listed goes first. *)
  let load core_id addr = prog core_id [ Instr.Load { bytes = kb; addr; tag = "" } ] in
  let r = run [ load 2 0; load 0 4096; load 1 8192 ] in
  Alcotest.(check (list int)) "dispatch" [ 2; 0; 1 ] (loads_by_core r);
  Alcotest.(check (list int)) "trace order" [ 0; 4096; 8192 ]
    (List.map (fun t -> t.Compass_dram.Trace.addr) r.Sim.dram_trace);
  let finish id =
    (List.find (fun e -> e.Sim.core = id && e.Sim.label = "load") r.Sim.events).Sim.finish_s
  in
  Alcotest.(check bool) "bus granted in that order" true (finish 2 < finish 0 && finish 0 < finish 1)

let test_sim_barrier_resumes_in_program_order () =
  (* Cores 2 and 0 park at the barrier at time 0; core 1 fills it after
     its MVMs.  All three then sit at the release time and load in
     program order, not in arrival or id order. *)
  let sync = Instr.Sync { token = 5; parties = 3 } in
  let load addr = Instr.Load { bytes = kb; addr; tag = "" } in
  let r =
    run
      [
        prog 2 [ sync; load 0 ];
        prog 0 [ sync; load 4096 ];
        prog 1 [ Instr.Mvm { count = 50; tiles = 1; tag = "" }; sync; load 8192 ];
      ]
  in
  Alcotest.(check (list (pair int string))) "dispatch"
    [
      (1, "mvm"); (1, "sync"); (2, "sync"); (0, "sync"); (2, "load"); (0, "load"); (1, "load");
    ]
    (List.map (fun e -> (e.Sim.core, e.Sim.label)) r.Sim.events);
  let release = 50. *. chip.Config.crossbar.Crossbar.mvm_latency_s in
  List.iter
    (fun e ->
      if e.Sim.label = "sync" then
        Alcotest.(check (float 0.)) "released together" release e.Sim.finish_s)
    r.Sim.events

(* Timeline *)

let test_timeline_render () =
  let r =
    run
      [
        prog 0
          [
            Instr.Weight_write { macro_count = 2; bytes = 1024.; addr = 0; tag = "" };
            Instr.Mvm { count = 10; tiles = 1; tag = "" };
          ];
        prog 1 [ Instr.Vfu { ops = 100 } ];
      ]
  in
  let s = Timeline.render ~width:40 r in
  Alcotest.(check bool) "mentions both cores" true
    (String.length s > 0
    && String.contains s 'M'
    && String.contains s 'W');
  Alcotest.(check int) "events recorded" 3 (List.length r.Sim.events)

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(empty timeline)" (Timeline.render (run []))

let test_core_utilization_bounds () =
  let r =
    run
      [
        prog 0 [ Instr.Mvm { count = 10; tiles = 1; tag = "" } ];
        prog 1 [ Instr.Sync { token = 0; parties = 1 } ];
      ]
  in
  List.iter
    (fun (_, u) -> Alcotest.(check bool) "in [0,1]" true (u >= 0. && u <= 1.))
    (Timeline.core_utilization r);
  (* Core 0 computes the whole time; core 1 never. *)
  Alcotest.(check (float 1e-6)) "core0 busy" 1. (List.assoc 0 (Timeline.core_utilization r));
  Alcotest.(check (float 1e-6)) "core1 idle" 0. (List.assoc 1 (Timeline.core_utilization r))

let test_events_ordered_per_core () =
  let r =
    run
      [
        prog 0
          [ Instr.Mvm { count = 5; tiles = 1; tag = "" }; Instr.Vfu { ops = 24 } ];
      ]
  in
  let core0 = List.filter (fun e -> e.Sim.core = 0) r.Sim.events in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Sim.finish_s <= b.Sim.start_s +. 1e-12 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "sequential per core" true (ordered core0)

(* Property: makespan is monotone when appending work. *)

let prop_makespan_monotone =
  QCheck.Test.make ~name:"makespan monotone in added work" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (a, b) ->
      let p1 = [ prog 0 [ Instr.Mvm { count = a; tiles = 1; tag = "" } ] ] in
      let p2 =
        [
          prog 0
            [
              Instr.Mvm { count = a; tiles = 1; tag = "" };
              Instr.Mvm { count = b; tiles = 1; tag = "" };
            ];
        ]
      in
      (run p2).Sim.makespan_s >= (run p1).Sim.makespan_s)

let prop_trace_bytes_match_counters =
  QCheck.Test.make ~name:"dram trace totals match counters" ~count:50
    QCheck.(pair (int_range 64 100000) (int_range 64 100000))
    (fun (a, b) ->
      let r =
        run
          [
            prog 0
              [
                Instr.Load { bytes = float_of_int a; addr = 0; tag = "" };
                Instr.Store { bytes = float_of_int b; addr = 1 lsl 20; tag = "" };
              ];
          ]
      in
      let trace_bytes = Compass_dram.Trace.total_bytes r.Sim.dram_trace in
      abs_float (trace_bytes -. float_of_int (a + b)) < 2.)

let () =
  Alcotest.run "compass_isa"
    [
      ( "instr",
        [
          Alcotest.test_case "program totals" `Quick test_program_totals;
          Alcotest.test_case "validate duplicates" `Quick test_program_validate_duplicates;
          Alcotest.test_case "validate range" `Quick test_program_validate_range;
          Alcotest.test_case "validate send/recv" `Quick test_program_validate_send_recv;
          Alcotest.test_case "instruction mix" `Quick test_instruction_mix;
        ] );
      ( "sim",
        [
          Alcotest.test_case "empty" `Quick test_sim_empty;
          Alcotest.test_case "mvm latency" `Quick test_sim_mvm_latency;
          Alcotest.test_case "vfu latency" `Quick test_sim_vfu_latency;
          Alcotest.test_case "load counts bytes" `Quick test_sim_load_counts_bytes;
          Alcotest.test_case "zero-byte transfers" `Quick test_sim_zero_byte_transfers_free;
          Alcotest.test_case "weight write programming" `Quick
            test_sim_weight_write_includes_programming;
          Alcotest.test_case "bus serializes" `Quick test_sim_bus_serializes;
          Alcotest.test_case "send/recv transfers" `Quick test_sim_send_recv_transfers;
          Alcotest.test_case "sync barrier" `Quick test_sim_sync_barrier;
          Alcotest.test_case "deadlock detected" `Quick test_sim_deadlock_detected;
          Alcotest.test_case "invalid program rejected" `Quick
            test_sim_invalid_program_rejected;
          Alcotest.test_case "energy components" `Quick test_sim_energy_components;
          Alcotest.test_case "ties in program order" `Quick test_sim_ties_in_program_order;
          Alcotest.test_case "barrier resumes in program order" `Quick
            test_sim_barrier_resumes_in_program_order;
          Alcotest.test_case "timeline render" `Quick test_timeline_render;
          Alcotest.test_case "timeline empty" `Quick test_timeline_empty;
          Alcotest.test_case "core utilization" `Quick test_core_utilization_bounds;
          Alcotest.test_case "events ordered" `Quick test_events_ordered_per_core;
          QCheck_alcotest.to_alcotest prop_makespan_monotone;
          QCheck_alcotest.to_alcotest prop_trace_bytes_match_counters;
        ] );
    ]
