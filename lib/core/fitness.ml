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

let span_fitness objective (c : Estimator.span_cost) =
  match objective with
  | Latency -> c.Estimator.span_s
  | Energy -> c.Estimator.energy_j
  | Edp -> c.Estimator.span_s *. c.Estimator.energy_j
  | Wear ->
    (* Latency plus the per-sample macro-programming time: partitionings
       that rewrite fewer (replicated) macros per inference wear the
       devices less, so the GA wear-levels without abandoning speed. *)
    c.Estimator.span_s +. c.Estimator.wear_cost_s

let spans_fitness objective spans =
  let acc = ref 0. and left = ref spans and walking = ref true in
  while !walking do
    match !left with
    | sp :: rest ->
      acc := !acc +. span_fitness objective sp;
      left := rest
    | [] -> walking := false
  done;
  !acc

let group_fitness objective (perf : Estimator.perf) =
  spans_fitness objective (List.map Estimator.span_cost_of perf.Estimator.spans)

let population_profile objective population ~total_units =
  let profile = Array.make (total_units + 1) 0. in
  let npop = float_of_int (Array.length population) in
  Array.iter
    (List.iter (fun (sp : Estimator.span_cost) ->
         let len = sp.Estimator.stop - sp.Estimator.start_ in
         let share = span_fitness objective sp /. float_of_int len /. npop in
         for i = sp.Estimator.start_ + 1 to sp.Estimator.stop do
           profile.(i) <- profile.(i) +. share
         done))
    population;
  for i = 0 to total_units - 1 do
    profile.(i + 1) <- profile.(i) +. profile.(i + 1)
  done;
  profile

let partition_scores ~population_profile objective spans =
  let score (sp : Estimator.span_cost) =
    let e = population_profile.(sp.Estimator.stop) -. population_profile.(sp.Estimator.start_) in
    if e <= 0. then 1. else span_fitness objective sp /. e
  in
  let scores = Array.make (List.length spans) 0. in
  List.iteri (fun k sp -> scores.(k) <- score sp) spans;
  scores
