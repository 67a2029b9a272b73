(* Tests for the self-healing execution stack: ABFT checksum detection
   (zero false negatives on single-cell faults, zero false positives on
   clean blocks), deterministic fault-site realization, the bounded
   retry -> remap -> degrade escalation of [Recovery.run], fault-event
   validation in the chip simulator, and the regression guarantee that the
   whole subsystem is invisible while disabled (byte-identical plans,
   checkpoints and schedules). *)

open Compass_core
open Compass_arch

let bits = 4
let q = Compass_nn.Quant.levels bits

let mpc chip = chip.Config.core.Config.macros_per_core

let faults_of spec ~seed chip =
  Fault.of_string spec ~seed ~cores:chip.Config.cores ~macros_per_core:(mpc chip)

(* ABFT properties over random code blocks *)

let block_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun rows ->
    int_range 1 40 >>= fun cols ->
    array_size (return (rows * cols)) (int_range (-q) q) >>= fun codes ->
    return (rows, cols, codes))

let kind_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Inject.Stuck_at v) (int_range (-q) q);
        map (fun b -> Inject.Bit_flip b) (int_range 0 (bits - 1));
        map (fun up -> Inject.Drift (if up then 1 else -1)) bool;
      ])

(* Zero false positives: a clean block never miscompares.  1000 runs as
   the issue demands -- integer equality has no tolerance to drift. *)
let prop_abft_zero_false_positives =
  QCheck.Test.make ~name:"clean blocks never miscompare" ~count:1000
    (QCheck.make block_gen) (fun (rows, cols, codes) ->
      let checksum = Abft.checksum_row ~rows ~cols codes in
      Abft.verify ~unit_index:0 ~rows ~cols ~codes ~checksum = [])

(* Zero false negatives: any single corrupted cell is detected, and the
   mismatch localizes the corrupted column. *)
let prop_abft_detects_single_cell =
  QCheck.Test.make ~name:"every single-cell fault detected" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         block_gen >>= fun (rows, cols, codes) ->
         int_range 0 ((rows * cols) - 1) >>= fun cell ->
         kind_gen >>= fun kind -> return (rows, cols, codes, cell, kind)))
    (fun (rows, cols, codes, cell, kind) ->
      let checksum = Abft.checksum_row ~rows ~cols codes in
      let corrupted = Array.copy codes in
      corrupted.(cell) <- Inject.corrupt_code ~bits kind corrupted.(cell);
      match Abft.verify ~unit_index:3 ~rows ~cols ~codes:corrupted ~checksum with
      | [ m ] -> m.Abft.unit_index = 3 && m.Abft.col = cell / rows
      | _ -> false)

let test_corrupt_code_always_differs () =
  (* The observability guarantee behind "zero false negatives": no kind
     maps any representable code to itself. *)
  for code = -q to q do
    for b = 0 to bits - 1 do
      Alcotest.(check bool) "bit flip differs" true
        (Inject.corrupt_code ~bits (Inject.Bit_flip b) code <> code)
    done;
    List.iter
      (fun d ->
        Alcotest.(check bool) "drift differs" true
          (Inject.corrupt_code ~bits (Inject.Drift d) code <> code))
      [ -1; 1 ];
    for v = -q to q do
      Alcotest.(check bool) "stuck-at differs" true
        (Inject.corrupt_code ~bits (Inject.Stuck_at v) code <> code)
    done
  done

(* Fault-site realization *)

let lenet_units () =
  Unit_gen.generate (Compass_nn.Models.by_name "lenet5") Config.chip_s

let test_realize_deterministic_and_distinct () =
  let units = lenet_units () in
  let chip = Config.chip_s in
  let faults = faults_of "transient:3;flip:2;drift:0.0001" ~seed:0 chip in
  let sites = Inject.realize units ~faults ~seed:5 in
  let again = Inject.realize units ~faults ~seed:5 in
  Alcotest.(check bool) "same seed, same sites" true (sites = again);
  let other = Inject.realize units ~faults ~seed:6 in
  Alcotest.(check bool) "different seed, different sites" true (sites <> other);
  let key (s : Inject.site) = (s.Inject.unit_index, s.Inject.row, s.Inject.col) in
  let keys = List.map key sites in
  Alcotest.(check int) "all cells distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let transients = List.filter (fun s -> s.Inject.transient) sites in
  Alcotest.(check int) "transient count" 3 (List.length transients);
  (* Drift displaces [max 1 (ceil (rate * cells))] cells. *)
  let cells =
    Array.fold_left
      (fun acc u ->
        let rows = u.Unit_gen.row_hi - u.Unit_gen.row_lo in
        acc + (rows * (u.Unit_gen.col_hi - u.Unit_gen.col_lo)))
      0 units.Unit_gen.units
  in
  let drift = max 1 (int_of_float (Float.ceil (0.0001 *. float_of_int cells))) in
  Alcotest.(check int) "site count" (3 + 2 + drift) (List.length sites)

(* Recovery engine *)

let plan_weights_input () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan = Compiler.compile ~model ~chip ~batch:1 Compiler.Greedy in
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  (chip, plan, weights, input)

let test_clean_run_reports_clean () =
  let _, plan, weights, input = plan_weights_input () in
  let r = Recovery.run ~weights ~input plan in
  Alcotest.(check bool) "outcome clean" true (r.Recovery.outcome = Recovery.Clean);
  Alcotest.(check int) "no detections" 0 r.Recovery.detections;
  Alcotest.(check bool) "checks ran" true (r.Recovery.checks > 0);
  Alcotest.(check bool) "bit identical" true r.Recovery.bit_identical

(* The acceptance criterion: under any single injected persistent fault,
   the recovered execution is bit-identical to the fault-free run. *)
let prop_single_persistent_fault_heals =
  let chip, plan, weights, input = plan_weights_input () in
  QCheck.Test.make ~name:"single persistent fault heals bit-identically" ~count:12
    (QCheck.make QCheck.Gen.(pair (int_bound 10_000) bool))
    (fun (seed, use_drift) ->
      let spec = if use_drift then "drift:1e-09" else "flip:1" in
      let faults = faults_of spec ~seed:0 chip in
      let r = Recovery.run ~seed ~faults ~weights ~input plan in
      r.Recovery.outcome = Recovery.Healed
      && r.Recovery.bit_identical && r.Recovery.detections >= 1
      && r.Recovery.remaps >= 1)

let test_transient_clears_on_retry () =
  let chip, plan, weights, input = plan_weights_input () in
  let faults = faults_of "transient:2" ~seed:0 chip in
  let r = Recovery.run ~seed:42 ~faults ~weights ~input plan in
  Alcotest.(check bool) "healed" true (r.Recovery.outcome = Recovery.Healed);
  Alcotest.(check bool) "bit identical" true r.Recovery.bit_identical;
  Alcotest.(check bool) "retried" true (r.Recovery.retries >= 1);
  Alcotest.(check int) "no remap needed" 0 r.Recovery.remaps;
  Alcotest.(check bool) "backoff accounted" true (r.Recovery.backoff_total_s > 0.)

(* Recovery backoff is modeled, never slept: the [Retried] actions
   carry every interval and [backoff_total_s] is their sum. *)
let test_backoff_simulated_not_slept () =
  let chip, plan, weights, input = plan_weights_input () in
  let faults = faults_of "transient:2" ~seed:0 chip in
  let r = Recovery.run ~seed:42 ~faults ~weights ~input plan in
  let backoffs =
    List.filter_map
      (function Recovery.Retried { backoff_s; _ } -> Some backoff_s | _ -> None)
      r.Recovery.actions
  in
  Alcotest.(check bool) "retried" true (r.Recovery.retries >= 1);
  Alcotest.(check int) "one action per retry" r.Recovery.retries (List.length backoffs);
  Alcotest.(check (float 1e-9)) "total is the sum of the actions"
    r.Recovery.backoff_total_s (List.fold_left ( +. ) 0. backoffs);
  Alcotest.(check bool) "modeled backoff" true (r.Recovery.backoff_total_s > 0.)

(* The retry schedule, pinned bit for bit: every [Retried] backoff and
   the accumulated [backoff_total_s] at the 1e-4 s initial backoff, for
   two transient cells (one retry clears both) and for one persistent
   flip (both retries run, then a remap heals it). *)
let test_backoff_schedule_pinned () =
  let chip, plan, weights, input = plan_weights_input () in
  List.iter
    (fun (spec, want, want_total) ->
      let faults = faults_of spec ~seed:0 chip in
      let r = Recovery.run ~seed:42 ~faults ~weights ~input plan in
      let got =
        List.filter_map
          (function
            | Recovery.Retried { node; attempt; backoff_s } ->
              Some (Printf.sprintf "node %d attempt %d backoff %h" node attempt backoff_s)
            | _ -> None)
          r.Recovery.actions
      in
      Alcotest.(check (list string)) (spec ^ " retries") want got;
      Alcotest.(check string)
        (spec ^ " backoff total")
        want_total
        (Printf.sprintf "%h" r.Recovery.backoff_total_s))
    [
      ( "transient:2",
        [ "node 8 attempt 0 backoff 0x1.a36e2eb1c432dp-14" ],
        "0x1.a36e2eb1c432dp-14" );
      ( "flip:1",
        [
          "node 8 attempt 0 backoff 0x1.a36e2eb1c432dp-14";
          "node 8 attempt 1 backoff 0x1.a36e2eb1c432dp-13";
        ],
        "0x1.3a92a30553262p-12" );
    ]

(* With more flipped cells than remaps, escalation runs out: after the
   fourth remap the layer still miscompares and the output is flagged. *)
let test_degrades_when_remaps_run_out () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "squeezenet" in
  let plan = Compiler.compile ~model ~chip ~batch:1 Compiler.Greedy in
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  let faults = faults_of "flip:50" ~seed:1 chip in
  let r = Recovery.run ~seed:1 ~faults ~weights ~input plan in
  Alcotest.(check bool) "degraded" true (r.Recovery.outcome = Recovery.Degraded_output);
  Alcotest.(check int) "every remap spent" 4 r.Recovery.remaps;
  Alcotest.(check bool) "flagged layers" true (r.Recovery.degraded_layers >= 1);
  Alcotest.(check bool) "not bit identical" false r.Recovery.bit_identical

(* Localization names the core the schedule programs: every detection
   before the first remap reports the replica-0 core of its unit under the
   placement at the plan's own batch (not batch 1, which places this
   squeezenet plan differently). *)
let test_detection_names_scheduled_core () =
  let chip = Config.chip_m in
  let model = Compass_nn.Models.by_name "squeezenet" in
  let faults = faults_of "flip:3" ~seed:3 chip in
  let plan = Compiler.compile ~faults ~model ~chip ~batch:8 Compiler.Optimal in
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  let r = Recovery.run ~seed:3 ~weights ~input plan in
  let scheduled_core unit_index =
    let span =
      Partition.span_at plan.Compiler.group
        (Partition.partition_of_unit plan.Compiler.group unit_index)
    in
    let placed =
      Replication.place ?faults:plan.Compiler.faults plan.Compiler.ctx
        ~batch:plan.Compiler.batch ~start_:span.Partition.start_ ~stop:span.Partition.stop
    in
    Mapping.core_of_unit placed.Replication.mapping ~unit_index ~replica:0
  in
  let rec before_remap = function
    | Recovery.Remapped _ :: _ | [] -> []
    | Recovery.Detected { unit_index; core; _ } :: rest -> (unit_index, core) :: before_remap rest
    | _ :: rest -> before_remap rest
  in
  let detected = before_remap r.Recovery.actions in
  Alcotest.(check bool) "a fault is detected" true (detected <> []);
  List.iter
    (fun (unit_index, core) ->
      Alcotest.(check int)
        (Printf.sprintf "unit %d core" unit_index)
        (scheduled_core unit_index) core)
    detected

(* A remap retires the victim core on top of the plan's own scenario:
   the repaired plan keeps every other fault setting. *)
let test_retire_preserves_scenario () =
  let chip, _, weights, input = plan_weights_input () in
  let faults = faults_of "degraded:1=4;endurance:1e6;flip:2" ~seed:0 chip in
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan = Compiler.compile ~faults ~model ~chip ~batch:1 Compiler.Greedy in
  let remapped (r : Recovery.report) =
    let victims =
      List.filter_map
        (function Recovery.Remapped { core; _ } -> Some core | _ -> None)
        r.Recovery.actions
    in
    Alcotest.(check bool) "remapped" true (victims <> []);
    (victims, Option.get r.Recovery.plan.Compiler.faults)
  in
  let victims, f = remapped (Recovery.run ~seed:42 ~weights ~input plan) in
  List.iter
    (fun v -> Alcotest.(check bool) "victim dead" true (Fault.status f v = Fault.Dead))
    victims;
  if not (List.mem 1 victims) then
    Alcotest.(check bool) "degradation kept" true (Fault.status f 1 = Fault.Degraded 4);
  Alcotest.(check int) "flips kept" 2 (Fault.weight_flips f);
  Alcotest.(check bool) "endurance kept" true (Fault.endurance_budget f = Some 1e6);
  (* From an all-healthy plan, the victims are the only faults. *)
  let _, healthy, _, _ = plan_weights_input () in
  let faults = faults_of "flip:1" ~seed:0 chip in
  let victims, f = remapped (Recovery.run ~seed:42 ~faults ~weights ~input healthy) in
  for c = 0 to Fault.cores f - 1 do
    Alcotest.(check bool) "from healthy" true
      (Fault.status f c = if List.mem c victims then Fault.Dead else Fault.Healthy)
  done

(* Fault-event validation in the chip simulator *)

let test_sim_malformed_events_located () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan = Compiler.compile ~model ~chip ~batch:1 Compiler.Greedy in
  let programs = (Compiler.schedule plan).Scheduler.programs in
  let expect_msg events want =
    match Compass_isa.Sim.run ~fault_events:events chip programs with
    | _ -> Alcotest.failf "event list accepted; wanted %S" want
    | exception Invalid_argument msg ->
      Alcotest.(check string) "located diagnostic" want msg
  in
  expect_msg
    [
      Compass_isa.Sim.fail_stop ~at_s:1. ~victim:1;
      Compass_isa.Sim.fail_stop ~at_s:(-2.) ~victim:0;
    ]
    "Sim.run: fault event #1 has negative time -2 s";
  expect_msg
    [ Compass_isa.Sim.fail_stop ~at_s:0.5 ~victim:99 ]
    (Printf.sprintf "Sim.run: fault event #0 targets core 99 but the chip has cores 0..%d"
       (chip.Config.cores - 1))

(* ABFT overhead: predicted vs simulated, within the differential bound *)

let test_abft_differential () =
  List.iter
    (fun model_name ->
      let model = Compass_nn.Models.by_name model_name in
      let chip = Config.chip_s in
      let plan = Compiler.compile ~model ~chip ~batch:8 Compiler.Greedy in
      let m = Compiler.measure ~abft:true plan in
      let options = { Estimator.default_options with Estimator.abft = true } in
      let perf = Estimator.evaluate ~options plan.Compiler.ctx ~batch:8 plan.Compiler.group in
      let est = perf.Estimator.batch_latency_s in
      let sim = m.Compiler.sim.Compass_isa.Sim.makespan_s in
      let ratio = sim /. est in
      if not (ratio >= 0.85 && ratio <= 1.45) then
        Alcotest.failf "%s: abft sim %.3e vs est %.3e (ratio %.3f)" model_name sim est
          ratio;
      let check_s = List.fold_left (fun a s -> a +. s.Estimator.check_s) 0. perf.Estimator.spans in
      Alcotest.(check bool) "estimator charges checks" true (check_s > 0.))
    [ "lenet5"; "tiny_mlp"; "tiny_resnet" ]

(* Disabled means invisible: plans, checkpoints and schedules are
   byte-identical with the recovery subsystem never (or already) used. *)

let test_disabled_is_byte_identical () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "lenet5" in
  let quick = { Ga.quick_params with Ga.seed = 7; Ga.jobs = 1 } in
  let ck_dir = Filename.temp_file "compass_recovery" "" in
  Sys.remove ck_dir;
  Unix.mkdir ck_dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat ck_dir f)) (Sys.readdir ck_dir);
      Unix.rmdir ck_dir)
  @@ fun () ->
  let compile_once tag =
    let path = Filename.concat ck_dir (tag ^ ".ck") in
    let plan =
      Compiler.compile ~ga_params:quick
        ~on_checkpoint:(fun ck -> Plan_text.save_checkpoint path ck)
        ~model ~chip ~batch:4 Compiler.Compass
    in
    let read f =
      let ic = open_in_bin f in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    (Plan_text.to_string plan, read path, plan)
  in
  let plan_a, ck_a, plan = compile_once "before" in
  (* Exercise the whole recovery stack between the two compilations. *)
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  let faults = faults_of "flip:1" ~seed:3 chip in
  let r = Recovery.run ~seed:42 ~faults ~weights ~input plan in
  Alcotest.(check bool) "interleaved recovery healed" true r.Recovery.bit_identical;
  let plan_b, ck_b, _ = compile_once "after" in
  Alcotest.(check string) "plan bytes identical" plan_a plan_b;
  Alcotest.(check string) "checkpoint bytes identical" ck_a ck_b;
  (* And a default schedule carries no Check instructions at all. *)
  let sched = Compiler.schedule plan in
  List.iter
    (fun p ->
      List.iter
        (function
          | Compass_isa.Instr.Check _ -> Alcotest.fail "Check emitted with abft off"
          | _ -> ())
        p.Compass_isa.Program.instrs)
    sched.Scheduler.programs

let () =
  Alcotest.run "recovery"
    [
      ( "abft",
        [
          QCheck_alcotest.to_alcotest prop_abft_zero_false_positives;
          QCheck_alcotest.to_alcotest prop_abft_detects_single_cell;
          Alcotest.test_case "corruption observable" `Quick test_corrupt_code_always_differs;
        ] );
      ( "injection",
        [
          Alcotest.test_case "deterministic distinct sites" `Quick
            test_realize_deterministic_and_distinct;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean run" `Quick test_clean_run_reports_clean;
          QCheck_alcotest.to_alcotest prop_single_persistent_fault_heals;
          Alcotest.test_case "transient retry" `Quick test_transient_clears_on_retry;
          Alcotest.test_case "backoff simulated not slept" `Quick
            test_backoff_simulated_not_slept;
          Alcotest.test_case "backoff schedule pinned" `Quick test_backoff_schedule_pinned;
          Alcotest.test_case "degrades when remaps run out" `Quick
            test_degrades_when_remaps_run_out;
          Alcotest.test_case "retire" `Quick test_retire_preserves_scenario;
          Alcotest.test_case "detection names scheduled core" `Quick
            test_detection_names_scheduled_core;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "malformed events" `Quick test_sim_malformed_events_located;
        ] );
      ( "regression",
        [
          Alcotest.test_case "abft differential" `Quick test_abft_differential;
          Alcotest.test_case "disabled is invisible" `Quick test_disabled_is_byte_identical;
        ] );
    ]
