(* Tests for the memory allocator and the instruction scheduler, including
   cross-validation of the analytic estimator against the chip simulator. *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

(* Memory_alloc *)

let test_alloc_basic () =
  let a = Memory_alloc.create ~capacity:4096 () in
  let x = Memory_alloc.alloc a ~bytes:100 ~tag:"x" in
  let y = Memory_alloc.alloc a ~bytes:100 ~tag:"y" in
  Alcotest.(check bool) "disjoint" true (y >= x + 128 || x >= y + 128);
  Alcotest.(check int) "live rounds to alignment" 256 (Memory_alloc.high_water_bytes a);
  Alcotest.(check bool) "invariants" true (Memory_alloc.check_invariants a = Ok ())

let test_alloc_free_reuse () =
  let a = Memory_alloc.create ~capacity:1024 () in
  let x = Memory_alloc.alloc a ~bytes:512 ~tag:"x" in
  Memory_alloc.free a x;
  let y = Memory_alloc.alloc a ~bytes:1024 ~tag:"y" in
  Alcotest.(check int) "coalesced reuse" 0 y;
  Alcotest.(check int) "high water" 1024 (Memory_alloc.high_water_bytes a)

let test_alloc_exhaustion () =
  let a = Memory_alloc.create ~capacity:128 () in
  let _ = Memory_alloc.alloc a ~bytes:128 ~tag:"x" in
  Alcotest.(check bool) "failure raised" true
    (try
       ignore (Memory_alloc.alloc a ~bytes:1 ~tag:"y");
       false
     with Failure _ -> true)

let test_alloc_double_free () =
  let a = Memory_alloc.create ~capacity:1024 () in
  let x = Memory_alloc.alloc a ~bytes:64 ~tag:"x" in
  Memory_alloc.free a x;
  Alcotest.(check bool) "double free rejected" true
    (try
       Memory_alloc.free a x;
       false
     with Invalid_argument _ -> true)

let test_alloc_fragmentation_coalesce () =
  let a = Memory_alloc.create ~capacity:4096 () in
  let blocks = List.init 8 (fun i -> Memory_alloc.alloc a ~bytes:512 ~tag:(string_of_int i)) in
  List.iter (Memory_alloc.free a) blocks;
  (* After freeing everything the full arena is one block again. *)
  let big = Memory_alloc.alloc a ~bytes:4096 ~tag:"big" in
  Alcotest.(check int) "full arena" 0 big;
  Alcotest.(check bool) "invariants" true (Memory_alloc.check_invariants a = Ok ())

let test_alloc_live_blocks_sorted () =
  let a = Memory_alloc.create ~capacity:4096 () in
  let _ = Memory_alloc.alloc a ~bytes:64 ~tag:"a" in
  let _ = Memory_alloc.alloc a ~bytes:64 ~tag:"b" in
  let blocks = Memory_alloc.live_blocks a in
  Alcotest.(check int) "two live" 2 (List.length blocks);
  let addrs = List.map (fun (x, _, _) -> x) blocks in
  Alcotest.(check (list int)) "ascending" (List.sort compare addrs) addrs

(* Scheduler *)

let build name chip scheme batch =
  let _, v, ctx = setup name chip in
  let g = match scheme with `Greedy -> Baselines.greedy v | `Layerwise -> Baselines.layerwise v in
  (ctx, g, Scheduler.build ctx g ~batch)

let test_programs_validate () =
  List.iter
    (fun name ->
      let ctx, _, sched = build name Config.chip_s `Greedy 8 in
      let chip = (Dataflow.units ctx).Unit_gen.chip in
      Alcotest.(check bool) (name ^ " programs validate") true
        (Compass_isa.Program.validate ~cores:chip.Config.cores sched.Scheduler.programs
        = Ok ()))
    [ "lenet5"; "squeezenet"; "resnet18" ]

let test_one_program_per_core () =
  let ctx, _, sched = build "resnet18" Config.chip_s `Greedy 8 in
  let chip = (Dataflow.units ctx).Unit_gen.chip in
  Alcotest.(check int) "program count" chip.Config.cores
    (List.length sched.Scheduler.programs)

let test_weight_region_covers_model () =
  let ctx, _, sched = build "resnet18" Config.chip_s `Greedy 8 in
  let units = Dataflow.units ctx in
  let model_bytes = Unit_gen.span_weight_bytes units 0 (Unit_gen.unit_count units) in
  Alcotest.(check bool) "region at least model size" true
    (float_of_int sched.Scheduler.weight_region_bytes >= model_bytes)

let test_simulation_completes () =
  List.iter
    (fun (name, scheme) ->
      let ctx, _, sched = build name Config.chip_s scheme 8 in
      let r = Scheduler.simulate ctx sched in
      Alcotest.(check bool) (name ^ " makespan positive") true
        (r.Compass_isa.Sim.makespan_s > 0.))
    [ ("lenet5", `Greedy); ("squeezenet", `Greedy); ("squeezenet", `Layerwise);
      ("resnet18", `Greedy); ("resnet18", `Layerwise) ]

let test_sim_vs_estimator_bounded () =
  (* The simulator serializes chunk pipelines conservatively; it must stay
     within a bounded factor of the analytic estimate. *)
  List.iter
    (fun name ->
      let _, v, ctx = setup name Config.chip_s in
      let g = Baselines.greedy v in
      let est = (Estimator.evaluate ctx ~batch:8 g).Estimator.batch_latency_s in
      let sched = Scheduler.build ctx g ~batch:8 in
      let sim = (Scheduler.simulate ctx sched).Compass_isa.Sim.makespan_s in
      let ratio = sim /. est in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.2f in [0.7, 6]" name ratio)
        true
        (ratio > 0.7 && ratio < 6.))
    [ "lenet5"; "squeezenet"; "resnet18"; "vgg16" ]

let test_sim_weight_bytes_match_estimator () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let units = Dataflow.units ctx in
  let model_bytes = Unit_gen.span_weight_bytes units 0 (Unit_gen.unit_count units) in
  let sched = Scheduler.build ctx g ~batch:8 in
  let sim = Scheduler.simulate ctx sched in
  (* Broadcast: DRAM weight traffic equals unique model bytes. *)
  Alcotest.(check (float 64.)) "weights fetched once" model_bytes
    sim.Compass_isa.Sim.weight_bytes

let test_dram_trace_replay () =
  let ctx, _, sched = build "resnet18" Config.chip_s `Greedy 8 in
  let sim = Scheduler.simulate ctx sched in
  let stats = Scheduler.dram_stats ctx sim in
  Alcotest.(check bool) "bytes positive" true (stats.Compass_dram.Controller.bytes > 0.);
  Alcotest.(check bool) "streaming hits" true
    (Compass_dram.Controller.row_hit_rate stats > 0.8);
  (* Trace totals match the simulator's byte counters. *)
  let sim_bytes =
    sim.Compass_isa.Sim.weight_bytes +. sim.Compass_isa.Sim.load_bytes
    +. sim.Compass_isa.Sim.store_bytes
  in
  Alcotest.(check bool) "trace within rounding of counters" true
    (abs_float (stats.Compass_dram.Controller.bytes -. sim_bytes)
    < 4. *. float_of_int (List.length sim.Compass_isa.Sim.dram_trace))

let test_layerwise_more_dram_traffic () =
  (* The paper's Fig. 7 diagnosis: layerwise moves more intermediate
     features through global memory than coarse partitioning.  At batch 8
     most boundary tensors still fit the on-chip buffers, so compare total
     boundary traffic (estimator) and check bus occupancy follows. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let traffic scheme =
    let g = match scheme with `Greedy -> Baselines.greedy v | `Layerwise -> Baselines.layerwise v in
    let p = Estimator.evaluate ctx ~batch:8 g in
    let est =
      List.fold_left
        (fun acc sp -> acc +. sp.Estimator.io_load_bytes +. sp.Estimator.io_store_bytes)
        0. p.Estimator.spans
    in
    est
  in
  (* Intra-partition bus traffic differs per scheme, so only the boundary
     bytes carry the paper's claim. *)
  Alcotest.(check bool) "layerwise moves more boundary bytes" true
    (traffic `Layerwise > traffic `Greedy)

let test_chunks_clamped () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let g = Baselines.greedy v in
  (* A batch smaller than the 4 compute slices must not crash or
     duplicate work. *)
  let s1 = Scheduler.build ctx g ~batch:2 in
  let r1 = Scheduler.simulate ctx s1 in
  Alcotest.(check bool) "completes" true (r1.Compass_isa.Sim.makespan_s > 0.)

let test_mvm_work_preserved () =
  (* Total macro operations in the simulation match the analytic count. *)
  let _, v, ctx = setup "squeezenet" Config.chip_s in
  let g = Baselines.greedy v in
  let batch = 4 in
  let est = Estimator.evaluate ctx ~batch g in
  let est_macro_ops =
    List.fold_left (fun acc sp -> acc +. (sp.Estimator.mvm_energy_j /. 0.5e-9)) 0.
      est.Estimator.spans
  in
  let sched = Scheduler.build ctx g ~batch in
  let sim = Scheduler.simulate ctx sched in
  let ratio = sim.Compass_isa.Sim.mvm_macro_ops /. est_macro_ops in
  Alcotest.(check bool)
    (Printf.sprintf "macro ops preserved (ratio %.2f)" ratio)
    true
    (ratio > 0.9 && ratio < 1.4)

let test_program_phase_structure () =
  (* Every core gets one Sync per partition, tokens ascending, and any
     Weight_write for span p precedes the span's barrier. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let nspans = Partition.partition_count g in
  let sched = Scheduler.build ctx g ~batch:4 in
  List.iter
    (fun p ->
      let tokens =
        List.filter_map
          (function Compass_isa.Instr.Sync { token; _ } -> Some token | _ -> None)
          p.Compass_isa.Program.instrs
      in
      Alcotest.(check int) "one sync per span" nspans (List.length tokens);
      Alcotest.(check (list int)) "tokens ascending" (List.init nspans (fun i -> i)) tokens)
    sched.Scheduler.programs

let test_instruction_mix_sane () =
  let _, v, ctx = setup "squeezenet" Config.chip_s in
  let g = Baselines.greedy v in
  let sched = Scheduler.build ctx g ~batch:4 in
  let mix = Compass_isa.Program.instruction_mix sched.Scheduler.programs in
  let count k = Option.value ~default:0 (List.assoc_opt k mix) in
  Alcotest.(check bool) "has mvm" true (count "mvm" > 0);
  Alcotest.(check bool) "has weight writes" true (count "weight_write" > 0);
  Alcotest.(check int) "sends match recvs" (count "send") (count "recv")

let test_invalid_batch () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  Alcotest.(check bool) "batch 0 rejected" true
    (try
       ignore (Scheduler.build ctx (Baselines.greedy v) ~batch:0);
       false
     with Invalid_argument _ -> true)

(* Simulator dispatch goldens: a digest of every event (core, kind, exact
   start and finish bits), of the DRAM trace (kind, address, size) and of
   the makespan bits.  Any change to which core the simulator runs next,
   or to the times it models, moves the digest. *)
let sim_digest (r : Compass_isa.Sim.result) =
  let b = Buffer.create 65536 in
  let bits f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  List.iter
    (fun (e : Compass_isa.Sim.event) ->
      Buffer.add_int64_le b (Int64.of_int e.Compass_isa.Sim.core);
      Buffer.add_string b e.Compass_isa.Sim.label;
      Buffer.add_char b '\000';
      bits e.Compass_isa.Sim.start_s;
      bits e.Compass_isa.Sim.finish_s)
    r.Compass_isa.Sim.events;
  List.iter
    (fun (t : Compass_dram.Trace.record) ->
      Buffer.add_char b (match t.Compass_dram.Trace.kind with Read -> 'r' | Write -> 'w');
      Buffer.add_int64_le b (Int64.of_int t.Compass_dram.Trace.addr);
      Buffer.add_int64_le b (Int64.of_int t.Compass_dram.Trace.bytes))
    r.Compass_isa.Sim.dram_trace;
  bits r.Compass_isa.Sim.makespan_s;
  Digest.to_hex (Digest.string (Buffer.contents b))

let dp_schedule name =
  let plan =
    Compiler.compile ~model:(Compass_nn.Models.by_name name) ~chip:Config.chip_s ~batch:16
      Compiler.Optimal
  in
  (plan.Compiler.ctx, Compiler.schedule plan)

let resnet18_dp = lazy (dp_schedule "resnet18")

let check_digest name want r =
  Alcotest.(check string) (name ^ " digest") want (sim_digest r)

let test_sim_golden_resnet18 () =
  let ctx, sched = Lazy.force resnet18_dp in
  check_digest "resnet18-S-16 dp" "03595d6bd19ecbe1d4a40a5dc378d2fd" (Scheduler.simulate ctx sched)

let test_sim_golden_squeezenet () =
  let ctx, sched = dp_schedule "squeezenet" in
  check_digest "squeezenet-S-16 dp" "4a9eb00d04b936ddefc2f89f174c519b" (Scheduler.simulate ctx sched)

let test_sim_golden_faults () =
  (* The fail-stop scenario of test_fault's "no deadlock" case. *)
  let chip = Config.chip_s in
  let plan =
    Compiler.compile ~model:(Compass_nn.Models.by_name "resnet18") ~chip ~batch:8
      Compiler.Greedy
  in
  let programs = (Compiler.schedule plan).Scheduler.programs in
  let healthy = Compass_isa.Sim.run chip programs in
  let faulted =
    Compass_isa.Sim.run
      ~fault_events:
        [
          Compass_isa.Sim.fail_stop ~at_s:(healthy.Compass_isa.Sim.makespan_s /. 4.) ~victim:1;
          Compass_isa.Sim.fail_stop ~at_s:0. ~victim:3;
        ]
      chip programs
  in
  check_digest "resnet18-S-8 greedy, cores 1 and 3 fail-stopped"
    "8a61bbf3f722c225f9e079570f9d3b61" faulted

(* Program golden: the bytes of whole schedules -- every instruction with
   its operands, core and tag, plus the region sizes and the instruction
   count -- of every zoo model over what the sim goldens leave out:
   batches 1 and 3 (one sample per chunk, fewer than 4 chunks) and 10
   (uneven 3/3/2/2 chunks), ABFT [Check]s, layerwise and GA plans, and a
   chip compiled around dead and degraded cores.  [No_sharing] keeps the
   bytes independent of whether equal tags share one string. *)
let test_program_golden () =
  let chip = Config.chip_s in
  let faults =
    Fault.make
      (Array.init chip.Config.cores (function
        | 1 | 3 -> Fault.Dead
        | 2 -> Fault.Degraded 3
        | _ -> Fault.Healthy))
  in
  let ga_params = { Ga.quick_params with Ga.jobs = 1 } in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, faults) ->
      let prep = Compiler.prepare ?faults ~model:(Compass_nn.Models.by_name name) ~chip () in
      List.iter
        (fun batch ->
          List.iter
            (fun scheme ->
              let plan = Compiler.compile_prepared ~ga_params ~batch prep scheme in
              let s = Compiler.schedule ~abft:true plan in
              Buffer.add_string b
                (Digest.string
                   (Marshal.to_string
                      ( s.Scheduler.programs,
                        s.Scheduler.weight_region_bytes,
                        s.Scheduler.activation_high_water_bytes,
                        s.Scheduler.instruction_count )
                      [ Marshal.No_sharing ])))
            [ Compiler.Layerwise; Compiler.Compass ])
        [ 1; 3; 10 ])
    (List.concat_map (fun name -> [ (name, None); (name, Some faults) ]) Compass_nn.Models.all_names);
  Alcotest.(check string) "schedule digest" "e4e169733a6dea90141ae11380cc76bd"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_sim_allocation_bound () =
  (* Deterministic, unlike wall time: the simulator's minor-heap words per
     executed instruction.  Re-sorting the cores per step costs hundreds. *)
  let ctx, sched = Lazy.force resnet18_dp in
  let before = Gc.minor_words () in
  let r = Scheduler.simulate ctx sched in
  let words = Gc.minor_words () -. before in
  let per_instr = words /. float_of_int sched.Scheduler.instruction_count in
  Alcotest.(check int) "every instruction ran" sched.Scheduler.instruction_count
    (List.length r.Compass_isa.Sim.events);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per instruction < 64" per_instr)
    true (per_instr < 64.)

let () =
  Alcotest.run "scheduler"
    [
      ( "memory_alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "free and reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "double free" `Quick test_alloc_double_free;
          Alcotest.test_case "coalesce" `Quick test_alloc_fragmentation_coalesce;
          Alcotest.test_case "live blocks sorted" `Quick test_alloc_live_blocks_sorted;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "programs validate" `Quick test_programs_validate;
          Alcotest.test_case "one program per core" `Quick test_one_program_per_core;
          Alcotest.test_case "weight region size" `Quick test_weight_region_covers_model;
          Alcotest.test_case "simulation completes" `Quick test_simulation_completes;
          Alcotest.test_case "sim vs estimator bounded" `Slow test_sim_vs_estimator_bounded;
          Alcotest.test_case "weights fetched once" `Quick
            test_sim_weight_bytes_match_estimator;
          Alcotest.test_case "dram trace replay" `Quick test_dram_trace_replay;
          Alcotest.test_case "layerwise more traffic" `Quick
            test_layerwise_more_dram_traffic;
          Alcotest.test_case "chunks clamped" `Quick test_chunks_clamped;
          Alcotest.test_case "mvm work preserved" `Quick test_mvm_work_preserved;
          Alcotest.test_case "invalid batch" `Quick test_invalid_batch;
          Alcotest.test_case "phase structure" `Quick test_program_phase_structure;
          Alcotest.test_case "instruction mix sane" `Quick test_instruction_mix_sane;
          Alcotest.test_case "sim golden resnet18-S-16 dp" `Quick test_sim_golden_resnet18;
          Alcotest.test_case "sim golden squeezenet-S-16 dp" `Quick test_sim_golden_squeezenet;
          Alcotest.test_case "sim golden fail-stop" `Quick test_sim_golden_faults;
          Alcotest.test_case "program golden" `Quick test_program_golden;
          Alcotest.test_case "sim allocation bound" `Quick test_sim_allocation_bound;
        ] );
    ]
