open Compass_util

type mutation_scheme =
  | Merge
  | Split
  | Move
  | Fixed_random

let scheme_name = function
  | Merge -> "merge"
  | Split -> "split"
  | Move -> "move"
  | Fixed_random -> "fixed_random"

let all_schemes = [ Merge; Split; Move; Fixed_random ]

type params = {
  population : int;
  generations : int;
  n_sel : int;
  n_mut : int;
  early_stop_patience : int;
  mutation_retries : int;
  schemes : mutation_scheme list;
  seed : int;
  jobs : int;
  warm_start : Partition.t list;
}

let default_params =
  {
    population = 100;
    generations = 30;
    n_sel = 20;
    n_mut = 80;
    early_stop_patience = 10;
    mutation_retries = 5;
    schemes = all_schemes;
    seed = 0xC0FFEE;
    jobs = Pool.default_jobs ();
    warm_start = [];
  }

let quick_params =
  {
    population = 24;
    generations = 10;
    n_sel = 6;
    n_mut = 18;
    early_stop_patience = 5;
    mutation_retries = 5;
    schemes = all_schemes;
    seed = 0xC0FFEE;
    jobs = Pool.default_jobs ();
    warm_start = [];
  }

type individual = {
  group : Partition.t;
  perf : Estimator.perf;
  fitness : float;
}

type generation_record = {
  generation : int;
  selected : (float * int) list;
  mutated : (float * int) list;
  best_fitness : float;
}

type result = {
  best : individual;
  history : generation_record list;
  generations_run : int;
  evaluations : int;
  cache_spans : int;
  budget_exhausted : bool;
}

type checkpoint = {
  ck_params : params;
  ck_objective : Fitness.objective;
  ck_batch : int;
  ck_generation : int;
  ck_rng_state : int64;
  ck_best_seen : float;
  ck_stall : int;
  ck_evaluations : int;
  ck_population : Partition.t array;
  ck_history : generation_record list;
}

(* The random-cover walk (and its bias policy) lives in [Validity]; both
   the initial population and the FixedRandom mutation draw through it. *)
let random_cover = Validity.random_cover
let random_group = Validity.random_group

(* The four mutation schemes of Sec. III-C3.  Each returns a candidate group
   or raises; the caller validity-checks and retries. *)

let argmax_by f arr =
  let best = ref 0 in
  Array.iteri (fun i x -> if f x > f arr.(!best) then best := i) arr;
  !best

let argmin_by f arr =
  let best = ref 0 in
  Array.iteri (fun i x -> if f x < f arr.(!best) then best := i) arr;
  !best

let mutate_merge _rng scores group =
  let k = Partition.partition_count group in
  if k < 2 then invalid_arg "merge: single partition";
  (* Worst-performing neighbouring pair. *)
  let pair_scores = Array.init (k - 1) (fun i -> scores.(i) +. scores.(i + 1)) in
  let worst = argmax_by (fun x -> x) pair_scores in
  Partition.merge group worst

let mutate_split rng scores group =
  let k = Partition.partition_count group in
  (* Worst partition that can be split. *)
  let candidates =
    List.filter
      (fun i -> Partition.span_length (Partition.span_at group i) >= 2)
      (List.init k (fun i -> i))
  in
  if candidates = [] then invalid_arg "split: no splittable partition";
  let victim =
    List.fold_left
      (fun acc i -> if scores.(i) > scores.(acc) then i else acc)
      (List.hd candidates) candidates
  in
  let span = Partition.span_at group victim in
  let at = Rng.int_in rng (span.Partition.start_ + 1) (span.Partition.stop - 1) in
  Partition.split group victim ~at

let mutate_move rng scores group =
  let k = Partition.partition_count group in
  if k < 2 then invalid_arg "move: single partition";
  let victim = argmax_by (fun x -> x) scores in
  (* Move one unit across one of the victim's boundaries. *)
  let boundary =
    if victim = 0 then 0
    else if victim = k - 1 then k - 2
    else if Rng.bool rng then victim - 1
    else victim
  in
  let delta = if Rng.bool rng then 1 else -1 in
  Partition.move group boundary ~delta

let mutate_fixed_random rng validity scores group =
  let keep = argmin_by (fun x -> x) scores in
  let span = Partition.span_at group keep in
  let m = Validity.size validity in
  let prefix = random_cover rng validity ~lo:0 ~hi:span.Partition.start_ in
  let suffix = random_cover rng validity ~lo:span.Partition.stop ~hi:m in
  Partition.of_spans (prefix @ (span :: suffix))

let mutate scheme rng validity ~scores group =
  match scheme with
  | Merge -> mutate_merge rng scores group
  | Split -> mutate_split rng scores group
  | Move -> mutate_move rng scores group
  | Fixed_random -> mutate_fixed_random rng validity scores group

let optimize ?(params = default_params) ?(objective = Fitness.Latency)
    ?(options = Estimator.default_options) ?cache ?budget ?supervision ?resume
    ?on_checkpoint ctx validity ~batch =
  (* A checkpoint freezes the search configuration along with its state:
     resuming re-applies the stored params/objective (only [jobs] follows
     the caller, since it cannot affect the trajectory). *)
  let params, objective =
    match resume with
    | None -> (params, objective)
    | Some ck ->
      if ck.ck_batch <> batch then
        invalid_arg
          (Printf.sprintf "Ga.optimize: checkpoint taken at batch %d, resumed with %d"
             ck.ck_batch batch);
      if
        not
          (Array.for_all (Validity.group_valid validity) ck.ck_population)
        || Array.length ck.ck_population = 0
      then
        invalid_arg
          "Ga.optimize: checkpoint population invalid for this validity map (different \
           model, chip or fault scenario?)";
      ({ ck.ck_params with jobs = params.jobs }, ck.ck_objective)
  in
  if params.population < 2 then invalid_arg "Ga.optimize: population < 2";
  if params.n_sel < 1 || params.n_sel > params.population then
    invalid_arg "Ga.optimize: bad n_sel";
  if params.n_mut < 0 then invalid_arg "Ga.optimize: bad n_mut";
  if params.schemes = [] then invalid_arg "Ga.optimize: no mutation schemes";
  if params.jobs < 1 then invalid_arg "Ga.optimize: jobs < 1";
  let scheme_array = Array.of_list params.schemes in
  let rng =
    match resume with
    | None -> Rng.create params.seed
    | Some ck -> Rng.of_state ck.ck_rng_state
  in
  let shared =
    match cache with
    | None -> Estimator.Span_cache.create ~options ~batch ()
    | Some c ->
      (* Pre-populated entries only turn evaluations into hits: every entry
         is a pure function of its key under the brand, so the search
         trajectory is unchanged (only [cache_spans] reflects the head
         start).  The brand must match or downstream lookups would raise
         mid-run; fail fast here instead. *)
      if Estimator.Span_cache.batch c <> batch then
        invalid_arg
          (Printf.sprintf "Ga.optimize: cache built for batch %d, called with %d"
             (Estimator.Span_cache.batch c) batch);
      if Estimator.Span_cache.options c <> options then
        invalid_arg "Ga.optimize: cache options mismatch";
      c
  in
  let evaluations = ref (match resume with None -> 0 | Some ck -> ck.ck_evaluations) in
  let interrupted = ref false in
  let expired () = match budget with None -> false | Some b -> Budget.expired b in
  Pool.with_pool ~jobs:params.jobs @@ fun pool ->
  (* Candidate groups are proposed on the main domain (every RNG draw stays
     on the main stream or on a per-candidate [Rng.split] of it, so the
     result is bit-identical for any worker count) and evaluated in
     parallel.  Workers read the run-wide span cache and record new spans
     in domain-local caches, merged back between phases — no locking on
     the hot path, and cache hits still accumulate across generations. *)
  let evaluate_batch groups =
    Failpoint.guard "ga.evaluate";
    evaluations := !evaluations + Array.length groups;
    Metrics.incr ~by:(Array.length groups) "ga.fitness_evaluations";
    let perfs, locals =
      Pool.map_init ?supervision pool
        ~init:(fun () -> Estimator.Span_cache.create ~options ~batch ())
        ~f:(fun local group -> Estimator.evaluate_cached ~shared ~cache:local ctx ~batch group)
        groups
    in
    List.iter (fun local -> Estimator.Span_cache.merge_into shared ~src:local) locals;
    Array.map2
      (fun group perf -> { group; perf; fitness = Fitness.group_fitness objective perf })
      groups perfs
  in
  (* Budget-aware evaluation: the deadline is polled before every wave of
     [jobs] candidates (a single candidate at [jobs = 1]), so an expired
     budget overruns by at most one wave.  Evaluation is pure, so chunking
     changes nothing about the results; a budget-free run takes the
     unchunked path below and stays byte-for-byte on the historical code
     path. *)
  let evaluate_partial groups =
    match budget with
    | None -> evaluate_batch groups
    | Some _ ->
      let n = Array.length groups in
      let parts = ref [] in
      let i = ref 0 in
      while !i < n && not (expired ()) do
        let k = min params.jobs (n - !i) in
        parts := evaluate_batch (Array.sub groups !i k) :: !parts;
        i := !i + k
      done;
      if !i < n then interrupted := true;
      Array.concat (List.rev !parts)
  in
  let total_units = Validity.size validity in
  (* Warm-start seeds (e.g. the DP optimum) occupy the first population
     slots; the rest draw randomly exactly as before.  With no seeds the
     per-index [Rng.split] sequence is untouched, so the run stays
     bit-identical to the unseeded search. *)
  let initial_groups =
    match resume with
    | Some ck -> Array.copy ck.ck_population
    | None ->
      let seeds =
        Array.of_list (List.filter (Validity.group_valid validity) params.warm_start)
      in
      let nseeds = min (Array.length seeds) params.population in
      Array.init params.population (fun i ->
          if i < nseeds then seeds.(i) else random_group (Rng.split rng) validity)
  in
  (* Resumed populations are re-evaluated rather than deserialized with
     their fitness: evaluation is pure, so the trajectory is bit-identical
     either way, and the checkpoint stays a plain text artifact.  (The
     [evaluations] counter therefore includes the re-evaluation cost.)
     Under an already-expired budget, one candidate is still evaluated so
     the result always carries a best-so-far plan. *)
  let population =
    ref
      (Trace.with_span "ga.init_population" @@ fun () ->
       let inds = evaluate_partial initial_groups in
       if Array.length inds = 0 then evaluate_batch (Array.sub initial_groups 0 1)
       else inds)
  in
  let by_fitness arr = Array.sort (fun a b -> compare a.fitness b.fitness) arr in
  let history =
    ref (match resume with None -> [] | Some ck -> List.rev ck.ck_history)
  in
  let best_seen =
    ref (match resume with None -> infinity | Some ck -> ck.ck_best_seen)
  in
  let stall = ref (match resume with None -> 0 | Some ck -> ck.ck_stall) in
  let start_gen = match resume with None -> 0 | Some ck -> ck.ck_generation in
  let generations_run = ref start_gen in
  let emit_checkpoint next_gen =
    match on_checkpoint with
    | None -> ()
    | Some f ->
      f
        {
          ck_params = params;
          ck_objective = objective;
          ck_batch = batch;
          ck_generation = next_gen;
          ck_rng_state = Rng.state rng;
          ck_best_seen = !best_seen;
          ck_stall = !stall;
          ck_evaluations = !evaluations;
          ck_population = Array.map (fun i -> i.group) !population;
          ck_history = List.rev !history;
        }
  in
  if not !interrupted then emit_checkpoint start_gen;
  (try
     (* A checkpoint can carry an already-exhausted patience counter (it
        was emitted just before the original run early-stopped); honour it
        before running any further generation, or a resume would overshoot
        the uninterrupted run. *)
     if params.early_stop_patience > 0 && !stall >= params.early_stop_patience then
       raise Exit;
     for g = start_gen to params.generations - 1 do
       if !interrupted then raise Exit;
       if expired () then begin
         interrupted := true;
         raise Exit
       end;
       Trace.with_span ~args:[ ("generation", string_of_int g) ] "ga.generation"
       @@ fun () ->
       Failpoint.guard "ga.generation";
       Metrics.incr "ga.generations";
       generations_run := g + 1;
       by_fitness !population;
       let pop = !population in
       let selected = Array.sub pop 0 (min params.n_sel (Array.length pop)) in
       (* Population-mean unit-fitness profile (prefix summed) for scores. *)
       let profile = Array.make (total_units + 1) 0. in
       let npop = float_of_int (Array.length pop) in
       Array.iter
         (fun ind ->
           let m = Fitness.unit_fitness_profile objective ind.perf ~total_units in
           Array.iteri (fun i v -> profile.(i + 1) <- profile.(i + 1) +. (v /. npop)) m)
         pop;
       for i = 0 to total_units - 1 do
         profile.(i + 1) <- profile.(i) +. profile.(i + 1)
       done;
       let propose_mutation crng parent =
         let scores =
           Fitness.partition_scores ~population_profile:profile objective parent.perf
         in
         let rec attempt tries =
           if tries = 0 then random_group crng validity
           else
             match mutate (Rng.pick_array crng scheme_array) crng validity ~scores parent.group with
             | child when Validity.group_valid validity child -> child
             | _ -> attempt (tries - 1)
             | exception Invalid_argument _ -> attempt (tries - 1)
         in
         attempt params.mutation_retries
       in
       (* Each offspring draws from its own split stream, so a candidate's
          draw count never shifts its siblings' randomness. *)
       let propose_offspring () =
         let crng = Rng.split rng in
         propose_mutation crng (Rng.pick_array crng selected)
       in
       let candidates = Array.init params.n_mut (fun _ -> propose_offspring ()) in
       let mutants = evaluate_partial candidates in
       let best_now = pop.(0).fitness in
       history :=
         {
           generation = g;
           selected = Array.to_list (Array.map (fun i -> (i.fitness, Partition.partition_count i.group)) selected);
           mutated = Array.to_list (Array.map (fun i -> (i.fitness, Partition.partition_count i.group)) mutants);
           best_fitness = best_now;
         }
         :: !history;
       if best_now < !best_seen -. 1e-12 then begin
         best_seen := best_now;
         stall := 0
       end
       else incr stall;
       population := Array.append selected mutants;
       (* A generation cut short mid-evaluation is not a resumable state
          (its offspring wave is incomplete), so no checkpoint is taken
          for it — the last emitted checkpoint replays the full
          generation instead. *)
       if !interrupted then raise Exit;
       emit_checkpoint (g + 1);
       if params.early_stop_patience > 0 && !stall >= params.early_stop_patience then
         raise Exit
     done
   with Exit -> ());
  by_fitness !population;
  Metrics.set "ga.best_fitness" !population.(0).fitness;
  {
    best = !population.(0);
    history = List.rev !history;
    generations_run = !generations_run;
    evaluations = !evaluations;
    cache_spans = Estimator.Span_cache.length shared;
    budget_exhausted = !interrupted;
  }
