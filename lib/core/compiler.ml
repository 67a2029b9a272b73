type scheme =
  | Compass
  | Greedy
  | Layerwise
  | Optimal

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "compass" | "ga" -> Compass
  | "greedy" -> Greedy
  | "layerwise" -> Layerwise
  | "dp" | "optimal" -> Optimal
  | other -> invalid_arg ("Compiler.scheme_of_string: " ^ other)

let scheme_to_string = function
  | Compass -> "compass"
  | Greedy -> "greedy"
  | Layerwise -> "layerwise"
  | Optimal -> "dp"

type t = {
  model : Compass_nn.Graph.t;
  chip : Compass_arch.Config.chip;
  batch : int;
  scheme : scheme;
  objective : Fitness.objective;
  units : Unit_gen.t;
  ctx : Dataflow.ctx;
  validity : Validity.t;
  group : Partition.t;
  perf : Estimator.perf;
  ga : Ga.result option;
  dp : Optimal.result option;
  faults : Compass_arch.Fault.t option;
  budget_exhausted : bool;
}

let options_for faults = { Estimator.default_options with Estimator.faults }

(* The model/chip-dependent front end (unit decomposition, validity map,
   dataflow context) is batch- and scheme-independent; hoisting it lets
   sweeps reuse one [prepared] across every (batch, scheme) pair. *)
type prepared = {
  p_model : Compass_nn.Graph.t;
  p_chip : Compass_arch.Config.chip;
  p_units : Unit_gen.t;
  p_ctx : Dataflow.ctx;
  p_validity : Validity.t;
  p_faults : Compass_arch.Fault.t option;
}

let prepare ?faults ~model ~chip () =
  Compass_util.Trace.with_span "compiler.prepare"
    ~args:[ ("model", Compass_nn.Graph.name model) ]
  @@ fun () ->
  Compass_util.Failpoint.guard "compiler.prepare";
  let units =
    Compass_util.Trace.with_span "prepare.unit_gen" (fun () ->
        Unit_gen.generate model chip)
  in
  {
    p_model = model;
    p_chip = chip;
    p_units = units;
    p_ctx =
      Compass_util.Trace.with_span "prepare.dataflow" (fun () ->
          Dataflow.context units);
    p_validity =
      Compass_util.Trace.with_span "prepare.validity" (fun () ->
          Validity.build ?faults units);
    p_faults = faults;
  }

let compile_prepared ?(objective = Fitness.Latency) ?(ga_params = Ga.default_params)
    ?jobs ?cache ?(warm_start = false) ?budget ?supervision ?resume ?on_checkpoint
    ~batch prepared scheme =
  if batch < 1 then invalid_arg "Compiler.compile: batch < 1";
  Compass_util.Failpoint.guard "compiler.compile";
  let ga_params =
    match jobs with Some j -> { ga_params with Ga.jobs = j } | None -> ga_params
  in
  let { p_model = model; p_chip = chip; p_units = units; p_ctx = ctx;
        p_validity = validity; p_faults = faults } = prepared in
  let options = options_for faults in
  Compass_util.Trace.with_span "compiler.compile"
    ~args:
      [
        ("scheme", scheme_to_string scheme);
        ("objective", Fitness.objective_to_string objective);
        ("batch", string_of_int batch);
      ]
  @@ fun () ->
  let run_dp () = Optimal.optimize ~objective ~options ?cache ?budget ctx validity ~batch in
  let group, ga, dp =
    Compass_util.Trace.with_span "compile.search" @@ fun () ->
    match scheme with
    | Greedy -> (Baselines.greedy validity, None, None)
    | Layerwise -> (Baselines.layerwise validity, None, None)
    | Optimal ->
      let result = run_dp () in
      (result.Optimal.group, None, Some result)
    | Compass ->
      let dp = if warm_start then Some (run_dp ()) else None in
      let ga_params =
        match dp with
        | None -> ga_params
        | Some d -> { ga_params with Ga.warm_start = [ d.Optimal.group ] }
      in
      let result =
        Ga.optimize ~params:ga_params ~objective ~options ?cache ?budget ?supervision
          ?resume ?on_checkpoint ctx validity ~batch
      in
      (result.Ga.best.Ga.group, Some result, dp)
  in
  let perf =
    Compass_util.Trace.with_span "compile.evaluate" @@ fun () ->
    match cache with
    | None -> Estimator.evaluate ~options ctx ~batch group
    | Some cache -> Estimator.evaluate_cached ~cache ctx ~batch group
  in
  let budget_exhausted =
    (match ga with Some r -> r.Ga.budget_exhausted | None -> false)
    || match dp with Some d -> d.Optimal.budget_exhausted | None -> false
  in
  { model; chip; batch; scheme; objective; units; ctx; validity; group; perf; ga; dp;
    faults; budget_exhausted }

let compile ?objective ?ga_params ?jobs ?warm_start ?faults ?budget ?supervision
    ?resume ?on_checkpoint ~model ~chip ~batch scheme =
  if batch < 1 then invalid_arg "Compiler.compile: batch < 1";
  compile_prepared ?objective ?ga_params ?jobs ?warm_start ?budget ?supervision ?resume
    ?on_checkpoint ~batch
    (prepare ?faults ~model ~chip ())
    scheme

type measurement = {
  schedule : Scheduler.t;
  sim : Compass_isa.Sim.result;
  dram : Compass_dram.Controller.stats;
}

let schedule ?abft t = Scheduler.build ?faults:t.faults ?abft t.ctx t.group ~batch:t.batch

let measure ?abft t =
  let sched = schedule ?abft t in
  let sim = Scheduler.simulate t.ctx sched in
  let dram = Scheduler.dram_stats t.ctx sim in
  { schedule = sched; sim; dram }

type repair_strategy =
  | Unchanged
  | Remapped of int
  | Recompiled

type repair = {
  plan : t;
  strategy : repair_strategy;
  latency_before_s : float;
  latency_after_s : float;
  degradation : float;
}

(* A local re-split slower than this factor of the original plan is
   replaced by a full recompile. *)
let recompile_above = 1.5

let repair ?ga_params t ~faults =
  match Validity.build ~faults t.units with
  | exception Invalid_argument msg -> Error msg
  | validity -> (
    let options = options_for (Some faults) in
    let before = t.perf.Estimator.batch_latency_s in
    let finish strategy plan =
      let after = plan.perf.Estimator.batch_latency_s in
      Ok
        {
          plan;
          strategy;
          latency_before_s = before;
          latency_after_s = after;
          degradation = after /. before;
        }
    in
    let recompile () =
      let plan =
        compile ?ga_params ~objective:t.objective ~faults ~model:t.model ~chip:t.chip
          ~batch:t.batch t.scheme
      in
      finish Recompiled plan
    in
    (* Spans still valid under the degraded chip keep their boundaries (the
       estimator re-maps them around the faulty cores); broken spans are
       re-split locally with a greedy walk over the faulted validity map,
       which always succeeds once the map builds. *)
    let resplit = ref 0 in
    let respan (s : Partition.span) =
      if Validity.is_valid validity ~start_:s.Partition.start_ ~stop:s.Partition.stop then
        [ s ]
      else begin
        incr resplit;
        let rec walk acc pos =
          if pos >= s.Partition.stop then List.rev acc
          else
            let next = min s.Partition.stop (Validity.max_end validity pos) in
            walk ({ Partition.start_ = pos; stop = next } :: acc) next
        in
        walk [] s.Partition.start_
      end
    in
    let spans = List.concat_map respan (Partition.spans t.group) in
    match
      let group = Partition.of_spans spans in
      let perf = Estimator.evaluate ~options t.ctx ~batch:t.batch group in
      { t with validity; group; perf; faults = Some faults }
    with
    | exception Invalid_argument msg -> Error msg
    | plan ->
      if !resplit = 0 then finish Unchanged plan
      else if plan.perf.Estimator.batch_latency_s > recompile_above *. before then
        recompile ()
      else finish (Remapped !resplit) plan)

type fault_run = {
  faulted_sim : Compass_isa.Sim.result;
  repair : repair;
  repaired : measurement;
  recovery_latency_s : float;
}

let measure_with_faults ?ga_params t ~at_s ~faults =
  if Compass_arch.Fault.cores faults <> t.chip.Compass_arch.Config.cores then
    invalid_arg "Compiler.measure_with_faults: fault scenario core count mismatch";
  match repair ?ga_params t ~faults with
  | Error msg -> Error msg
  | Ok r ->
    let sched = schedule t in
    let fault_events =
      List.init t.chip.Compass_arch.Config.cores (fun c ->
          match Compass_arch.Fault.status faults c with
          | Compass_arch.Fault.Dead -> Some (Compass_isa.Sim.fail_stop ~at_s ~victim:c)
          | Compass_arch.Fault.Healthy | Compass_arch.Fault.Degraded _ -> None)
      |> List.filter_map Fun.id
    in
    let faulted_sim = Compass_isa.Sim.run ~fault_events t.chip sched.Scheduler.programs in
    let repaired = measure r.plan in
    Ok
      {
        faulted_sim;
        repair = r;
        repaired;
        (* The interrupted batch drains, the repaired plan reruns it. *)
        recovery_latency_s =
          faulted_sim.Compass_isa.Sim.makespan_s +. repaired.sim.Compass_isa.Sim.makespan_s;
      }

type on_chip_report = {
  on_chip_perf : Estimator.perf;
  on_chip_group : Partition.t;
}

let compile_on_chip ~model ~chip ~batch =
  if batch < 1 then invalid_arg "Compiler.compile_on_chip: batch < 1";
  let units = Unit_gen.generate model chip in
  let m = Unit_gen.unit_count units in
  match Mapping.pack units ~start_:0 ~stop:m ~replication:(fun _ -> 1) with
  | Error msg -> Error ("model does not fit on chip: " ^ msg)
  | Ok _ ->
    let ctx = Dataflow.context units in
    let group = Partition.singleton m in
    let options = { Estimator.default_options with Estimator.charge_writes = false } in
    Ok { on_chip_perf = Estimator.evaluate ~options ctx ~batch group; on_chip_group = group }

let supported_by_prior_compilers model chip =
  let weight_bits = chip.Compass_arch.Config.crossbar.Compass_arch.Crossbar.weight_bits in
  Compass_nn.Graph.weight_bytes ~weight_bits model
  <= Compass_arch.Config.capacity_bytes chip

let label t =
  Printf.sprintf "%s-%s-%d" (Compass_nn.Graph.name t.model)
    t.chip.Compass_arch.Config.label t.batch

let pp_plan ppf t =
  Format.fprintf ppf "%s / %s / objective=%s: %d units -> %d partitions@." (label t)
    (scheme_to_string t.scheme)
    (Fitness.objective_to_string t.objective)
    (Unit_gen.unit_count t.units)
    (Partition.partition_count t.group);
  Estimator.pp_breakdown t.model ppf t.perf
