type objective =
  | Latency
  | Energy
  | Edp
  | Wear

let objective_of_string s =
  match String.lowercase_ascii s with
  | "latency" | "throughput" -> Latency
  | "energy" | "power" -> Energy
  | "edp" -> Edp
  | "wear" | "endurance" -> Wear
  | other -> invalid_arg ("Fitness.objective_of_string: " ^ other)

let objective_to_string = function
  | Latency -> "latency"
  | Energy -> "energy"
  | Edp -> "edp"
  | Wear -> "wear"

let span_energy (sp : Estimator.span_perf) =
  sp.Estimator.mvm_energy_j +. sp.Estimator.vfu_energy_j +. sp.Estimator.write_energy_j
  +. sp.Estimator.bus_energy_j +. sp.Estimator.dram_energy_j

let span_fitness objective (sp : Estimator.span_perf) =
  match objective with
  | Latency -> sp.Estimator.span_s
  | Energy -> span_energy sp
  | Edp -> sp.Estimator.span_s *. span_energy sp
  | Wear ->
    (* Latency plus the per-sample macro-programming time: partitionings
       that rewrite fewer (replicated) macros per inference wear the
       devices less, so the GA wear-levels without abandoning speed. *)
    sp.Estimator.span_s +. sp.Estimator.wear_cost_s

let group_fitness objective (perf : Estimator.perf) =
  List.fold_left (fun acc sp -> acc +. span_fitness objective sp) 0. perf.Estimator.spans

let population_profile objective perfs ~total_units =
  let profile = Array.make (total_units + 1) 0. in
  let npop = float_of_int (Array.length perfs) in
  Array.iter
    (fun (perf : Estimator.perf) ->
      List.iter
        (fun (sp : Estimator.span_perf) ->
          let len = sp.Estimator.stop - sp.Estimator.start_ in
          let share = span_fitness objective sp /. float_of_int len /. npop in
          for i = sp.Estimator.start_ + 1 to sp.Estimator.stop do
            profile.(i) <- profile.(i) +. share
          done)
        perf.Estimator.spans)
    perfs;
  for i = 0 to total_units - 1 do
    profile.(i + 1) <- profile.(i) +. profile.(i + 1)
  done;
  profile

let partition_scores ~population_profile objective (perf : Estimator.perf) =
  let expected a b = population_profile.(b) -. population_profile.(a) in
  let score (sp : Estimator.span_perf) =
    let e = expected sp.Estimator.start_ sp.Estimator.stop in
    if e <= 0. then 1. else span_fitness objective sp /. e
  in
  Array.of_list (List.map score perf.Estimator.spans)
