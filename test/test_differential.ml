(* Differential testing: the analytic estimator against the ISA-level
   chip simulator.

   For every small test net and every partitioning scheme, the plan is
   lowered to per-core instruction programs and executed on the
   event-driven simulator; the simulated makespan must agree with the
   estimator's batch latency within a stated tolerance.  The two models
   are written independently (closed-form pipeline arithmetic vs
   event-driven bus/DRAM/barrier simulation), so agreement here catches
   regressions in either.

   Tolerance: the simulator adds scheduling effects the closed form
   elides (barrier waits, bus grant order, chunked pipelining), so it
   usually lands a few percent high — up to ~1.33x on many-partition
   layerwise plans of tiny nets where per-partition overheads dominate.
   We assert sim/est in [0.85, 1.45]. *)

open Compass_core

let lo_tolerance = 0.85
let hi_tolerance = 1.45

let small_nets = [ "lenet5"; "tiny_mlp"; "tiny_resnet" ]

let check_agreement ~model_name ~batch scheme =
  let model = Compass_nn.Models.by_name model_name in
  let chip = Compass_arch.Config.chip_s in
  let plan =
    Compiler.compile
      ~ga_params:{ Ga.quick_params with Ga.seed = 7; Ga.jobs = 1 }
      ~model ~chip ~batch scheme
  in
  let m = Compiler.measure plan in
  let est = plan.Compiler.perf.Estimator.batch_latency_s in
  let sim = m.Compiler.sim.Compass_isa.Sim.makespan_s in
  let ratio = sim /. est in
  if not (ratio >= lo_tolerance && ratio <= hi_tolerance) then
    Alcotest.failf
      "%s/%s batch %d: simulator %.6e s vs estimator %.6e s (ratio %.3f outside \
       [%.2f, %.2f])@.estimated per-span breakdown:@.%a"
      model_name
      (Compiler.scheme_to_string scheme)
      batch sim est ratio lo_tolerance hi_tolerance
      (Estimator.pp_breakdown plan.Compiler.model)
      plan.Compiler.perf

let test_scheme scheme () =
  List.iter (fun model_name -> check_agreement ~model_name ~batch:8 scheme) small_nets

let test_batch_sizes () =
  (* Agreement must hold as the batch scales, not just at one point. *)
  List.iter
    (fun batch -> check_agreement ~model_name:"lenet5" ~batch Compiler.Layerwise)
    [ 1; 4; 16 ]

let test_simulator_accounts_all_weights () =
  (* Cross-check a second invariant pair: the simulator's weight traffic
     equals the estimator's unique weight bytes summed over spans. *)
  List.iter
    (fun model_name ->
      let model = Compass_nn.Models.by_name model_name in
      let chip = Compass_arch.Config.chip_s in
      let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Layerwise in
      let m = Compiler.measure plan in
      let est_bytes =
        List.fold_left
          (fun acc sp -> acc +. sp.Estimator.unique_weight_bytes)
          0. plan.Compiler.perf.Estimator.spans
      in
      Alcotest.(check (float 1.))
        (model_name ^ " weight bytes")
        est_bytes m.Compiler.sim.Compass_isa.Sim.weight_bytes)
    small_nets

(* Dynamic energy, component by component, on DP plans of every zoo model
   on chips S, M and L at batch 16.  Both models charge DRAM energy through
   [Dram.analytic_energy_j] and VFU energy through [Energy.vfu_j] on the
   same counts, so those two ratios are 1 to rounding.  The simulator's MVM
   count runs up to 3.8% above the estimator's (1.000-1.038 measured), and
   the trace-accurate replay charges 0-2.6% more than the analytic DRAM
   term (sim/replay 0.974-1.000 measured).  [weight_write] and [bus] are
   not gated: the two models charge them on different byte counts. *)
let test_dynamic_energy () =
  let bands =
    [
      ("dram", 1. -. 1e-9, 1. +. 1e-9);
      ("vfu", 1. -. 1e-9, 1. +. 1e-9);
      ("mvm", 1. -. 1e-9, 1.04);
    ]
  in
  let failures = ref [] in
  let check label ratio lo hi =
    if not (ratio >= lo && ratio <= hi) then
      failures :=
        Printf.sprintf "%s %.9f outside [%.10g, %.10g]" label ratio lo hi :: !failures
  in
  List.iter
    (fun model_name ->
      List.iter
        (fun (chip : Compass_arch.Config.chip) ->
          let model = Compass_nn.Models.by_name model_name in
          let plan = Compiler.compile ~model ~chip ~batch:16 Compiler.Optimal in
          let m = Compiler.measure plan in
          let est = plan.Compiler.perf.Estimator.energy_components in
          let sim = m.Compiler.sim.Compass_isa.Sim.energy_components in
          let config = Printf.sprintf "%s-%s" model_name chip.Compass_arch.Config.label in
          List.iter
            (fun (name, lo, hi) ->
              check
                (Printf.sprintf "%s %s sim/est" config name)
                (List.assoc name sim /. List.assoc name est)
                lo hi)
            bands;
          check (config ^ " dram sim/replay")
            (List.assoc "dram" sim /. m.Compiler.dram.Compass_dram.Controller.energy_j)
            0.97 1.)
        Compass_arch.Config.[ chip_s; chip_m; chip_l ])
    Compass_nn.Models.all_names;
  match List.rev !failures with
  | [] -> ()
  | fs -> Alcotest.failf "dynamic energy disagrees:@.%s" (String.concat "\n" fs)

let () =
  Alcotest.run "differential"
    [
      ( "estimator vs simulator",
        [
          Alcotest.test_case "compass plans" `Quick (test_scheme Compiler.Compass);
          Alcotest.test_case "greedy plans" `Quick (test_scheme Compiler.Greedy);
          Alcotest.test_case "layerwise plans" `Quick (test_scheme Compiler.Layerwise);
          Alcotest.test_case "batch sweep" `Quick test_batch_sizes;
          Alcotest.test_case "weight traffic" `Quick test_simulator_accounts_all_weights;
          Alcotest.test_case "dynamic energy" `Quick test_dynamic_energy;
        ] );
    ]
