(* The four workloads.  Each one drives one path of the toolchain the way
   its user does, times it, and checks every output it produced. *)

open Compass_core
module Graph = Compass_nn.Graph
module Layer = Compass_nn.Layer
module Tensor = Compass_nn.Tensor
module Executor = Compass_nn.Executor
module Models = Compass_nn.Models
module Config = Compass_arch.Config
module Protocol = Compass_serve.Protocol
module Server = Compass_serve.Server
module Rng = Compass_util.Rng
module Trace = Compass_util.Trace
module Metrics = Compass_util.Metrics
open Measure

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
      (** Two specs per workload, one pass, ten serve requests: the
          tier-1 check that every path still runs and reports. *)
}

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failed checks, for the log *)
  traced_passes : metric list list;
      (** per traced pass, its per-layer metrics (two in smoke mode) *)
}

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                  *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let new_checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 8 then c.notes <- what :: c.notes
  end

let bits t =
  let data = Tensor.to_array t in
  let b = Buffer.create (8 * Array.length data) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) data;
  Buffer.contents b

let same_bits a b = String.equal (bits a) (bits b)
let derive seed tag = Hashtbl.hash (seed, tag) land 0x3FFF_FFFF

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

(* One unit of work inside a pass: [dt] is the program's time for it,
   [images] how many results it counts for (1 except in infer). *)
type 'r item = {
  key : string;
  dt : float;
  images : int;
  result : 'r;
}

let item key images f =
  let result, dt = timed f in
  { key; dt; images; result }

type ('st, 'r) run = {
  state : 'st;  (** the last set-up's result *)
  setup_s : float;  (** median over the set-up repetitions *)
  peak_mb : float;  (** top of the major heap after [min_passes] passes *)
  all : 'r item list list;  (** every pass run, in order: what the checks read *)
  timed : 'r item list list;  (** the passes the end-to-end metrics read *)
  traced : metric list list;
}

let with_tracing ?(exact_words = true) f =
  Trace.enable ();
  Metrics.enable ();
  (* The first span and counter of a process set up per-domain buffers;
     pay that here so that every traced pass allocates alike. *)
  Trace.with_span "perf.start" ignore;
  Metrics.incr "perf.start";
  Trace.reset ();
  Metrics.reset ();
  reset_layers ();
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let r = Fun.protect ~finally:(fun () -> Trace.disable (); Metrics.disable ()) f in
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let gc =
    [
      metric ~exact:exact_words "gc.minor_words" "words" Lower (w1 -. w0);
      metric "gc.major_words" "words" Lower (g1.Gc.major_words -. g0.Gc.major_words);
      metric "gc.major_collections" "count" Lower
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
  in
  (r, gc)

(* The untraced run sets up and runs a pass, again and again, until
   [seconds] have passed (at least [min_passes] times); spread over the
   run like this, the set-ups' median does not hang on one slow moment
   of the host.  The traced run does set-up + pass untraced, then traced
   (twice in smoke mode, to show allocation counts repeat), then
   untraced again; [layers] runs right after each traced pass, still
   traced, and returns its per-layer metrics. *)
let drive (cfg : config) ~min_passes ~setup ~pass ~layers =
  if not cfg.traced then begin
    let min_passes = if cfg.smoke then 1 else min_passes in
    let t0 = now () in
    (* The heap's high-water mark only rises, so it is read after a fixed
       amount of work rather than after however many passes fit. *)
    let peak_mb = ref 0. in
    let rec go state setups passes =
      if List.length passes = min_passes then peak_mb := peak_heap_mb ();
      if List.length passes >= min_passes && now () -. t0 >= cfg.seconds then
        (Option.get state, setups, List.rev passes)
      else
        let st, dt = timed setup in
        go (Some st) (dt :: setups) (pass st :: passes)
    in
    let st, setups, timed = go None [] [] in
    {
      state = st;
      setup_s = Stats.median setups;
      peak_mb = !peak_mb;
      all = timed;
      timed;
      traced = [];
    }
  end
  else begin
    let set_up_and_pass () =
      timed (fun () ->
          let st = setup () in
          (st, pass st))
    in
    let (st, base), before_s = set_up_and_pass () in
    let traced_pass () =
      let (items, dt, per_layer), gc =
        with_tracing (fun () ->
            let (st, items), dt = set_up_and_pass () in
            (items, dt, layers st items))
      in
      (items, (dt, gc @ per_layer))
    in
    let traced = List.init (if cfg.smoke then 2 else 1) (fun _ -> traced_pass ()) in
    (* Untraced on both sides of the traced passes, so the overhead is
       not the first pass's cold start. *)
    let (_, after), after_s = set_up_and_pass () in
    let base_s = (before_s +. after_s) /. 2. in
    let traced =
      List.map
        (fun (items, (dt, per_layer)) ->
          (items, metric "trace_overhead_frac" "frac" Lower ((dt /. base_s) -. 1.) :: per_layer))
        traced
    in
    {
      state = st;
      setup_s = nan;
      peak_mb = nan;
      all = (base :: List.map fst traced) @ [ after ];
      timed = [ base ];
      traced = List.map snd traced;
    }
  end

(* The tail is the highest percentile with ten samples beyond it; below
   a hundred samples, where that would fall under p90, it is the
   slowest sample. *)
let latency_metrics ~setup_s ~peak_mb ~throughput samples =
  let tail =
    match Stats.tail samples with
    | Some t when t.Stats.pct >= 90 -> t
    | _ ->
      let m = List.fold_left Float.max neg_infinity samples in
      { Stats.pct = 100; value = m; beyond = 0; samples = List.length samples }
  in
  [
    metric "setup_s" "s" Lower setup_s;
    metric "peak_heap_mb" "MB" Lower peak_mb;
    metric "throughput_per_s" "1/s" Higher throughput;
    metric "latency_p50_s" "s" Lower (Stats.median samples);
    metric "latency_tail_s" "s" Lower tail.Stats.value;
    metric "latency_tail_pct" "pct" Higher (float_of_int tail.Stats.pct);
    metric "latency_samples" "count" Higher (float_of_int tail.Stats.samples);
  ]

(* Each item's fastest time over the passes.  The host is shared and a
   neighbour only ever adds time, so the minimum over repeats is the
   steadiest estimate of what the program itself needs; it also drops
   the first pass's cold start. *)
let pass_metrics run =
  if run.traced <> [] then []
  else
    let best =
      List.map
        (fun first ->
          let dts =
            List.concat_map
              (List.filter_map (fun i -> if i.key = first.key then Some i.dt else None))
              run.timed
          in
          (first.images, List.fold_left Float.min infinity dts))
        (List.hd run.timed)
    in
    let images = List.fold_left (fun acc (n, _) -> acc + n) 0 best in
    let busy = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. best in
    latency_metrics ~setup_s:run.setup_s ~peak_mb:run.peak_mb
      ~throughput:(float_of_int images /. busy)
      (List.concat_map (fun (n, dt) -> List.init n (fun _ -> dt)) best)
    @ [ metric "passes" "count" Higher (float_of_int (List.length run.timed)) ]

let outcome (c : checks) run metrics =
  {
    metrics;
    attempted = c.attempted;
    failed = c.failed;
    failures = List.rev c.notes;
    traced_passes = run.traced;
  }

(* Every pass must reproduce the first pass's result for each key. *)
let check_repeats c run ~same ~what =
  match run.all with
  | [] -> ()
  | first :: _ ->
    let reference = Hashtbl.create 64 in
    List.iter (fun i -> Hashtbl.replace reference i.key i.result) first;
    List.iteri
      (fun p items ->
        List.iter
          (fun i ->
            check c
              (match Hashtbl.find_opt reference i.key with
              | Some r -> same r i.result
              | None -> false)
              (Printf.sprintf "%s: %s differs in pass %d" what i.key p))
          items)
      run.all

let shuffled seed xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)

let sweep_models =
  [ "vgg16"; "resnet18"; "squeezenet"; "resnet34"; "mobilenet_v1"; "alexnet"; "vgg11"; "lenet5" ]

type spec = {
  label : string;
  model_name : string;
  model : Graph.t;
  chip : Config.chip;
  batch : int;
  index : int;  (** position in the full sweep: fixes the GA seed *)
}

let make_spec ?(index = 0) m c b =
  {
    label = Printf.sprintf "%s-%s-%d" m c b;
    model_name = m;
    model = Models.by_name m;
    chip = Config.by_label c;
    batch = b;
    index;
  }

let sweep ~smoke ~batches =
  let specs =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun c -> List.map (fun b -> (m, c, b)) batches)
          [ "S"; "M"; "L" ])
      sweep_models
  in
  List.mapi (fun index (m, c, b) -> make_spec ~index m c b) specs
  |> List.filter (fun s -> (not smoke) || s.label = Printf.sprintf "lenet5-S-%d" s.batch)

(* [Compiler.compile]'s own sequence of layer calls, so the traced run
   can account for each; the plan is checked identical to the
   untraced [Compiler.compile] result. *)
let compile_by_layers ~search ~scheme (s : spec) =
  let units = layer "prepare.unit_gen" (fun () -> Unit_gen.generate s.model s.chip) in
  let ctx = layer "prepare.dataflow" (fun () -> Dataflow.context units) in
  let validity = layer "prepare.validity" (fun () -> Validity.build units) in
  let group, ga, dp = layer "compile.search" (fun () -> search ctx validity) in
  let perf =
    layer "compile.evaluate" (fun () ->
        Estimator.evaluate ~options:Estimator.default_options ctx ~batch:s.batch group)
  in
  {
    Compiler.model = s.model;
    chip = s.chip;
    batch = s.batch;
    scheme;
    objective = Fitness.Latency;
    units;
    ctx;
    validity;
    group;
    perf;
    ga;
    dp;
    faults = None;
    budget_exhausted = false;
  }

let compile_dp (s : spec) =
  if Trace.enabled () then
    compile_by_layers ~scheme:Compiler.Optimal s ~search:(fun ctx validity ->
        let r =
          Optimal.optimize ~objective:Fitness.Latency ~options:Estimator.default_options ctx
            validity ~batch:s.batch
        in
        (r.Optimal.group, None, Some r))
  else Compiler.compile ~model:s.model ~chip:s.chip ~batch:s.batch Compiler.Optimal

let plan_digest plan = Digest.string (Plan_text.to_string plan)

(* ------------------------------------------------------------------ *)
(* compile_sweep                                                       *)

type compiled = {
  digest : Digest.t;
  violations : int;
  model_inf_s : float;
  model_edp : float;
  ga : Ga.result option;
}

let compile_ga (s : spec) =
  let params = { Ga.default_params with Ga.seed = 1 + s.index; jobs = 1 } in
  if Trace.enabled () then
    compile_by_layers ~scheme:Compiler.Compass s ~search:(fun ctx validity ->
        let r =
          Ga.optimize ~params ~objective:Fitness.Latency ~options:Estimator.default_options ctx
            validity ~batch:s.batch
        in
        (r.Ga.best.Ga.group, Some r, None))
  else
    Compiler.compile ~ga_params:params ~jobs:1 ~model:s.model ~chip:s.chip ~batch:s.batch
      Compiler.Compass

let compile_sweep (cfg : config) =
  let setup () =
    let specs = shuffled cfg.seed (sweep ~smoke:cfg.smoke ~batches:[ 1; 16 ]) in
    (* Every (model, chip) front end must build before anything is timed. *)
    List.iter
      (fun s -> ignore (Compiler.prepare ~model:s.model ~chip:s.chip ()))
      specs;
    specs
  in
  let pass specs =
    List.map
      (fun s ->
        let it =
          item s.label 1 (fun () ->
              let plan = compile_ga s in
              (plan, layer "verify.check" (fun () -> Verify.check plan)))
        in
        let plan, violations = it.result in
        let perf = plan.Compiler.perf in
        {
          it with
          result =
            {
              digest = plan_digest plan;
              violations = List.length violations;
              model_inf_s = perf.Estimator.throughput_per_s;
              model_edp = perf.Estimator.edp_j_s;
              ga = plan.Compiler.ga;
            };
        })
      specs
  in
  let layers _ items =
    let sum f =
      float_of_int
        (List.fold_left
           (fun acc i -> acc + match i.result.ga with Some g -> f g | None -> 0)
           0 items)
    in
    let hits = Option.value (Metrics.find_int "estimator.span_cache.hits") ~default:0 in
    let misses = Option.value (Metrics.find_int "estimator.span_cache.misses") ~default:0 in
    layer_metrics
      [
        "prepare.unit_gen";
        "prepare.dataflow";
        "prepare.validity";
        "compile.search";
        "compile.evaluate";
        "verify.check";
      ]
    @ [
        metric ~exact:true "ga.evaluations" "count" Lower (sum (fun g -> g.Ga.evaluations));
        metric ~exact:true "ga.cache_spans" "count" Lower (sum (fun g -> g.Ga.cache_spans));
        metric ~exact:true "ga.generations" "count" Lower (sum (fun g -> g.Ga.generations_run));
        metric ~exact:true "estimator.span_cache_hit_ratio" "ratio" Higher
          (if hits + misses = 0 then 0.
           else float_of_int hits /. float_of_int (hits + misses));
      ]
  in
  let run = drive cfg ~min_passes:3 ~setup ~pass ~layers in
  let c = new_checks () in
  List.iter
    (List.iter (fun i ->
         check c (i.result.violations = 0)
           (Printf.sprintf "%s: %d verifier violations" i.key i.result.violations)))
    run.all;
  check_repeats c run ~what:"plan" ~same:(fun a b -> String.equal a.digest b.digest);
  let first = List.hd run.all in
  let geo f = Compass_util.Stats.geomean (List.map (fun i -> f i.result) first) in
  outcome c run
    (pass_metrics run
    @ [
        metric ~exact:true "model_throughput_inf_s" "inf/s" Higher (geo (fun r -> r.model_inf_s));
        metric ~exact:true "model_edp_j_s" "J.s" Lower (geo (fun r -> r.model_edp));
      ])

(* ------------------------------------------------------------------ *)
(* simulate_sweep                                                      *)

type simulated = {
  makespan_s : float;
  est_s : float;
  instructions : int;
  dram : Compass_dram.Controller.stats;
}

let simulate_sweep (cfg : config) =
  let setup () =
    List.map
      (fun s -> (s, compile_dp s))
      (shuffled cfg.seed (sweep ~smoke:cfg.smoke ~batches:[ 16; 64 ]))
  in
  let pass plans =
    List.map
      (fun ((s : spec), plan) ->
        item s.label 1 (fun () ->
            let ctx = plan.Compiler.ctx in
            let sched = layer "schedule.build" (fun () -> Compiler.schedule plan) in
            let sim = layer "sim.run" (fun () -> Scheduler.simulate ctx sched) in
            let dram = layer "dram.replay" (fun () -> Scheduler.dram_stats ctx sim) in
            {
              makespan_s = sim.Compass_isa.Sim.makespan_s;
              est_s = plan.Compiler.perf.Estimator.batch_latency_s;
              instructions = sched.Scheduler.instruction_count;
              dram;
            }))
      plans
  in
  let layers _ items =
    let sum f = List.fold_left (fun acc i -> acc + f i.result) 0 items in
    let dram f = sum (fun r -> f r.dram) in
    let instructions = sum (fun r -> r.instructions) in
    let bursts = dram (fun d -> d.Compass_dram.Controller.reads + d.writes) in
    let hits = dram (fun d -> d.Compass_dram.Controller.row_hits) in
    let misses = dram (fun d -> d.Compass_dram.Controller.row_misses) in
    let per_s n layer_name =
      let s = self_s layer_name in
      if s > 0. then float_of_int n /. s else 0.
    in
    layer_metrics
      [
        "prepare.unit_gen";
        "prepare.dataflow";
        "prepare.validity";
        "compile.search";
        "compile.evaluate";
        "schedule.build";
        "sim.run";
        "dram.replay";
      ]
    @ [
        metric ~exact:true "schedule.instructions" "count" Lower (float_of_int instructions);
        metric "sim.instrs_per_s" "1/s" Higher (per_s instructions "sim.run");
        metric ~exact:true "dram.bursts" "count" Lower (float_of_int bursts);
        metric "dram.bursts_per_s" "1/s" Higher (per_s bursts "dram.replay");
        metric ~exact:true "dram.row_hit_ratio" "ratio" Higher
          (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
        metric ~exact:true "dram.bus_stall_cycles" "count" Lower
          (float_of_int (dram (fun d -> d.Compass_dram.Controller.bus_stall_cycles)));
      ]
  in
  let run = drive cfg ~min_passes:3 ~setup ~pass ~layers in
  let c = new_checks () in
  check_repeats c run ~what:"makespan" ~same:(fun a b ->
      Int64.equal (Int64.bits_of_float a.makespan_s) (Int64.bits_of_float b.makespan_s)
      && a.dram.Compass_dram.Controller.cycles = b.dram.Compass_dram.Controller.cycles);
  let first = List.hd run.all in
  let ratio i = i.result.makespan_s /. i.result.est_s in
  let geo xs = Compass_util.Stats.geomean xs in
  let per_model =
    List.map
      (fun m ->
        let mine = List.filter (fun i -> String.starts_with ~prefix:(m ^ "-") i.key) first in
        metric ~exact:true ("sim_est_ratio." ^ m) "x" Lower
          (if mine = [] then 0. else geo (List.map ratio mine)))
      sweep_models
  in
  outcome c run
    (pass_metrics run
    @ [
        metric ~exact:true "sim_makespan_s" "modeled_s" Lower
          (geo (List.map (fun i -> i.result.makespan_s) first));
        metric ~exact:true "sim_est_gap" "x" Lower
          (geo (List.map (fun i -> Float.max (ratio i) (1. /. ratio i)) first));
      ]
    @ per_model)

(* ------------------------------------------------------------------ *)
(* infer_batch                                                         *)

type infer_call = {
  name : string;
  graph : Graph.t;
  weights : Executor.weights;
  inputs : Tensor.t array;
}

type infer_state = {
  calls : infer_call list;
  replay : Compiler.t;  (** a DP plan of the replayed model *)
  replay_weights : Executor.weights;
  replay_input : Tensor.t;
}

type inferred = {
  outputs : Tensor.t array;
  partitions : int;
}

let infer_calls ~smoke =
  if smoke then [ ("tiny_resnet", 2); ("lenet5", 1) ]
  else [ ("squeezenet", 4); ("resnet18", 1); ("mobilenet_v1", 2); ("tiny_resnet", 8) ]

(* The walk [Executor.output] makes, one [apply_node] at a time, so the
   traced run can split kernel time by operator kind. *)
let walk graph weights input =
  let outs = Hashtbl.create 64 in
  let scratch = Compass_nn.Im2col.create_scratch () in
  List.iter
    (fun node ->
      let out =
        match (Graph.layer graph node).Layer.op with
        | Layer.Input _ -> input
        | op ->
          let inputs = List.map (Hashtbl.find outs) (Graph.preds graph node) in
          let kind =
            match op with
            | Layer.Conv _ -> "infer.conv"
            | Layer.Linear _ -> "infer.linear"
            | _ -> "infer.other"
          in
          layer kind (fun () -> Executor.apply_node ~scratch graph weights node inputs)
      in
      Hashtbl.replace outs node out)
    (Graph.topo_order graph);
  Hashtbl.find outs (List.hd (Graph.exit_nodes graph))

let infer_batch (cfg : config) =
  let c = new_checks () in
  let setup () =
    let calls =
      List.map
        (fun (name, batch) ->
          let graph = Models.by_name name in
          {
            name;
            graph;
            weights = Executor.random_weights ~seed:(derive cfg.seed name) graph;
            inputs =
              Array.init batch (fun i ->
                  Executor.random_input ~seed:(derive cfg.seed (name, i)) graph);
          })
        (infer_calls ~smoke:cfg.smoke)
    in
    let replay = compile_dp (make_spec (if cfg.smoke then "tiny_resnet" else "resnet18") "S" 16) in
    let graph = replay.Compiler.model in
    {
      calls;
      replay;
      replay_weights = Executor.random_weights ~seed:(derive cfg.seed "replay") graph;
      replay_input = Executor.random_input ~seed:(derive cfg.seed "replay-input") graph;
    }
  in
  let pass st =
    List.map
      (fun call ->
        item call.name (Array.length call.inputs) (fun () ->
            {
              outputs =
                layer ("infer." ^ call.name) (fun () ->
                    Executor.output_batch call.graph call.weights call.inputs);
              partitions = 0;
            }))
      st.calls
    @ [
        item "replay" 1 (fun () ->
            let r =
              layer "partition_exec.run" (fun () ->
                  Partition_exec.run st.replay.Compiler.ctx st.replay.Compiler.group
                    st.replay_weights st.replay_input)
            in
            {
              outputs = [| r.Partition_exec.output |];
              partitions = r.Partition_exec.partitions_executed;
            });
      ]
  in
  let layers st items =
    (* The per-kind split walks the first image of every call and must
       reproduce the batched executor bit for bit. *)
    List.iter2
      (fun call i ->
        check c
          (same_bits (walk call.graph call.weights call.inputs.(0)) i.result.outputs.(0))
          (Printf.sprintf "apply_node walk of %s differs from the executor" call.name))
      st.calls
      (List.filter (fun i -> i.key <> "replay") items);
    let words =
      List.fold_left
        (fun acc call ->
          acc +. match find ("infer." ^ call.name) with Some a -> a.self_words | None -> 0.)
        0. st.calls
    in
    List.map
      (fun (name, _) -> metric ("infer." ^ name ^ ".self_s") "s" Lower (self_s ("infer." ^ name)))
      (infer_calls ~smoke:false)
    @ [
        metric "infer.conv.self_s" "s" Lower (self_s "infer.conv");
        metric "infer.linear.self_s" "s" Lower (self_s "infer.linear");
        metric "infer.other.self_s" "s" Lower (self_s "infer.other");
        metric ~exact:true "infer.minor_words" "words" Lower words;
        metric "partition_exec.run.self_s" "s" Lower (self_s "partition_exec.run");
        metric ~exact:true "partition_exec.partitions" "count" Lower
          (float_of_int
             (List.fold_left (fun acc i -> acc + i.result.partitions) 0 items));
      ]
  in
  let run = drive cfg ~min_passes:3 ~setup ~pass ~layers in
  check_repeats c run ~what:"output" ~same:(fun a b ->
      Array.length a.outputs = Array.length b.outputs
      && Array.for_all2 same_bits a.outputs b.outputs);
  (* Oracles, read after the timed passes: the replay against whole-model
     execution, and two models against the naive engine. *)
  let st = run.state in
  let first = List.hd run.all in
  let output_of key = (List.find (fun i -> i.key = key) first).result.outputs in
  let reference =
    Executor.output st.replay.Compiler.model st.replay_weights st.replay_input
  in
  check c
    (same_bits (output_of "replay").(0) reference)
    "partitioned replay differs from Executor.output";
  List.iter
    (fun call ->
      if call.name = "tiny_resnet" || call.name = "squeezenet" then
        check c
          (same_bits (output_of call.name).(0)
             (Executor.output ~engine:Executor.Naive call.graph call.weights call.inputs.(0)))
          (Printf.sprintf "%s differs from the naive oracle" call.name))
    st.calls;
  outcome c run (pass_metrics run)

(* ------------------------------------------------------------------ *)
(* serve_mix                                                           *)

(* At 20 requests/s the server is busy about 45% of the time, which puts
   the median request on the edge between requests that arrive to an
   idle server and requests that wait behind another: its latency then
   spread 0.3-0.8 of its median across seeds.  At 10/s the median
   request meets an idle server, and waits show in the tail. *)
let serve_rate = 10.
let serve_deadline = 2.

type request = {
  req : Protocol.request;
  due : float;  (** seconds after the loop starts *)
}

(* The traffic mix as (share, variants); each class's variants are used
   in turn, so a run's composition depends only on its length. *)
let serve_mix ~archived =
  let r = { Protocol.default_request with deadline_s = Some serve_deadline } in
  let compile ~quick scheme model chip =
    {
      r with
      kind = Protocol.Compile;
      model;
      chip;
      batch = 16;
      scheme;
      quick;
      seed = Hashtbl.hash (model, chip, scheme, quick);
    }
  in
  let infer model batch = { r with kind = Protocol.Infer; model; batch } in
  let cross f xs ys = List.concat_map (fun x -> List.map (f x) ys) xs in
  [
    ( 0.35,
      cross (compile ~quick:true "compass")
        [ "lenet5"; "squeezenet"; "resnet18"; "mobilenet_v1" ]
        [ "S"; "M"; "L" ] );
    ( 0.15,
      List.concat_map
        (fun scheme ->
          cross (compile ~quick:false scheme) [ "resnet18"; "squeezenet"; "resnet34" ] [ "S"; "M" ])
        [ "compass"; "dp" ] );
    (0.25, cross infer [ "lenet5"; "tiny_resnet"; "tiny_mlp" ] [ 1; 4 ]);
    (0.03, [ infer "squeezenet" 1 ]);
    (0.15, [ { r with kind = Protocol.Verify; payload = archived } ]);
    (0.07, [ { r with kind = Protocol.Ping } ]);
  ]

(* [n] requests arriving one every 1/rate seconds: class counts by
   largest remainder, each class spread evenly over the run, the whole
   schedule rotated by a seeded offset.  Compile requests keep their
   variant's GA seed and infer requests draw weights from one of two
   seeded values, so a seed moves where the work falls but not how much
   there is, nor what follows each heavy request. *)
let serve_requests ~seed ~archived n =
  let mix = serve_mix ~archived in
  let quotas = List.map (fun (share, _) -> share *. float_of_int n) mix in
  let counts = List.map truncate quotas in
  let missing = n - List.fold_left ( + ) 0 counts in
  let by_remainder =
    List.mapi (fun i q -> (q -. Float.of_int (truncate q), i)) quotas
    |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun k _ -> k < missing)
    |> List.map snd
  in
  let counts = List.mapi (fun i k -> if List.mem i by_remainder then k + 1 else k) counts in
  let rng = Rng.create seed in
  let placed =
    List.concat
      (List.map2
         (fun (_, variants) k ->
           let v = Array.of_list variants in
           List.init k (fun j ->
               ((float_of_int j +. 0.5) /. float_of_int k, v.(j mod Array.length v))))
         mix counts)
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let shift = Rng.int rng n in
  let placed = List.filteri (fun i _ -> i >= shift) placed @ List.filteri (fun i _ -> i < shift) placed in
  let infer_seeds = [| Rng.int rng 1000; Rng.int rng 1000 |] in
  List.mapi
    (fun i (_, (q : Protocol.request)) ->
      let seed =
        match q.kind with Protocol.Infer -> Rng.pick_array rng infer_seeds | _ -> q.seed
      in
      {
        req = { q with id = Printf.sprintf "r%d" i; seed };
        due = float_of_int i /. serve_rate;
      })
    placed

type served = {
  request : request;
  response : Protocol.response option;
  responses : int;
  latency_s : float;  (** response time minus due time *)
  queue_wait_s : float option;  (** admission to execution start *)
  lag_s : float;  (** how late the generator submitted it *)
  work_s : float;  (** its time inside [Server.submit] and [Server.step] *)
}

type loop = {
  served : served list;
  busy_s : float;  (** time inside [Server.submit] and [Server.step] *)
  depth_max : int;
}

(* Open loop: submit every request once it is due, step the server
   while work is queued, sleep when idle.  Latency runs from the due
   time, so a long step delays the requests arriving behind it. *)
let spin_s = 0.002

let serve_loop requests =
  let clock = Unix.gettimeofday in
  let got : (string, Protocol.response * float) Hashtbl.t = Hashtbl.create 256 in
  let count : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let server =
    Server.create
      ~respond:(fun r ->
        Hashtbl.replace got r.Protocol.r_id (r, clock ());
        Hashtbl.replace count r.Protocol.r_id
          (1 + Option.value (Hashtbl.find_opt count r.Protocol.r_id) ~default:0))
      ()
  in
  let submitted = Hashtbl.create 256 and started = Hashtbl.create 256 in
  let queued = Queue.create () in
  let work = Hashtbl.create 256 and busy = ref 0. and depth_max = ref 0 in
  let t0 = clock () in
  let busy_call id f =
    let (), dt = timed f in
    busy := !busy +. dt;
    Hashtbl.replace work id (dt +. Option.value (Hashtbl.find_opt work id) ~default:0.)
  in
  let rec go = function
    | next :: rest when next.due <= clock () -. t0 ->
      let id = next.req.Protocol.id in
      Hashtbl.replace submitted id (clock ());
      let lines = Protocol.request_to_lines next.req in
      busy_call id (fun () ->
          layer "serve.submit" (fun () ->
              Server.submit server (List.filteri (fun i _ -> i < List.length lines - 1) lines)));
      if not (Hashtbl.mem got id) then Queue.push next queued;
      depth_max := max !depth_max (Server.pending server);
      go rest
    | pending when not (Queue.is_empty queued) ->
      let next = Queue.pop queued in
      let id = next.req.Protocol.id in
      Hashtbl.replace started id (clock ());
      busy_call id (fun () ->
          layer
            ("serve.step." ^ Protocol.kind_to_string next.req.Protocol.kind)
            (fun () -> ignore (Server.step server)));
      go pending
    | next :: _ as pending ->
      (* Sleep until just before the next arrival, then spin: a sleeping
         process wakes late by a scheduler-dependent amount, which would
         land in the latency of requests that take a few milliseconds. *)
      let gap = next.due -. (clock () -. t0) in
      if gap > spin_s then Unix.sleepf (gap -. spin_s);
      (* [Unix.gettimeofday] called directly stays unboxed, so the spin
         allocates nothing and leaves the GC's pacing alone. *)
      while Unix.gettimeofday () -. t0 < next.due do
        ()
      done;
      go pending
    | [] -> ()
  in
  go requests;
  Server.close server;
  let served =
    List.map
      (fun r ->
        let id = r.req.Protocol.id in
        let response = Option.map fst (Hashtbl.find_opt got id) in
        let sub = Hashtbl.find submitted id in
        {
          request = r;
          response;
          responses = Option.value (Hashtbl.find_opt count id) ~default:0;
          latency_s =
            (match Hashtbl.find_opt got id with
            | Some (_, at) -> at -. (t0 +. r.due)
            | None -> infinity);
          queue_wait_s = Option.map (fun s -> s -. sub) (Hashtbl.find_opt started id);
          lag_s = sub -. (t0 +. r.due);
          work_s = Hashtbl.find work id;
        })
      requests
  in
  { served; busy_s = !busy; depth_max = !depth_max }

let digest_line i out =
  let data = Tensor.to_array out in
  Printf.sprintf "output %d shape %s sum %s digest %s" i
    (Compass_nn.Shape.to_string (Tensor.shape out))
    (Compass_util.Artifact.float_token (Array.fold_left ( +. ) 0. data))
    (Digest.to_hex (Digest.string (bits out)))

(* Exactly one [ok] response per request, and a payload that holds up:
   compile plans re-parse and verify, infer digests match a direct
   executor run, verify finds the archived plan clean. *)
let check_served c expected_infer (s : served) =
  let id = s.request.req.Protocol.id in
  check c (s.responses = 1) (Printf.sprintf "%s: %d responses" id s.responses);
  match s.response with
  | None -> ()
  | Some r ->
    let ok = r.Protocol.status = Protocol.Ok in
    check c ok
      (Printf.sprintf "%s: %s %s" id (Protocol.status_to_string r.status)
         (Option.value r.note ~default:""));
    if ok then
      let valid =
        match s.request.req.Protocol.kind with
        | Protocol.Compile -> (
          match Plan_text.of_string (String.concat "\n" r.body ^ "\n") with
          | plan -> Verify.check plan = []
          | exception Plan_text.Load_error _ -> false)
        | Protocol.Infer -> r.body = expected_infer s.request.req
        | Protocol.Verify -> r.body = [ "violations 0" ]
        | Protocol.Ping -> r.body = [ "pong" ]
      in
      check c valid (Printf.sprintf "%s: payload does not hold up" id)

(* The traffic of [seconds] is split into five replays of the same
   requests.  An untraced run keeps each request's lowest latency over
   the replays, as the pass workloads keep each item's fastest pass:
   waits the schedule itself causes recur in every replay, while a
   request that only met a slow moment of the host in one does not.  A
   traced run replays untraced, traced, and untraced again. *)
let serve_replays = 5

let serve_mix_workload (cfg : config) =
  let n =
    if cfg.smoke then 10
    else int_of_float (Float.round (cfg.seconds *. serve_rate /. float_of_int serve_replays))
  in
  let setup () =
    let archived =
      String.split_on_char '\n' (Plan_text.to_string (compile_dp (make_spec "resnet18" "S" 16)))
      |> List.filter (fun l -> l <> "")
    in
    serve_requests ~seed:cfg.seed ~archived n
  in
  (* A fresh set-up before each replay, as before each pass. *)
  let runs =
    List.init (if cfg.traced || cfg.smoke then 1 else serve_replays) (fun _ ->
        let requests, dt = timed setup in
        (requests, dt, serve_loop requests))
  in
  let requests = match runs with (r, _, _) :: _ -> r | [] -> [] in
  let setup_s = Stats.median (List.map (fun (_, dt, _) -> dt) runs) in
  let replays = List.map (fun (_, _, l) -> l) runs in
  let peak_mb = peak_heap_mb () in
  let c = new_checks () in
  let memo = Hashtbl.create 8 in
  let expected_infer (q : Protocol.request) =
    let key = (q.model, q.batch, q.seed) in
    match Hashtbl.find_opt memo key with
    | Some body -> body
    | None ->
      let g = Models.by_name q.model in
      let weights = Executor.random_weights ~seed:q.seed g in
      let inputs =
        Array.init q.batch (fun i -> Executor.random_input ~seed:(q.seed + 100 + i) g)
      in
      let body =
        Array.to_list (Array.mapi digest_line (Executor.output_batch g weights inputs))
      in
      Hashtbl.add memo key body;
      body
  in
  let loop_metrics (l, gc) =
    let kinds = [ "compile"; "infer"; "verify" ] in
    let waits = List.filter_map (fun s -> s.queue_wait_s) l.served in
    let pct p = if waits = [] then 0. else Compass_util.Stats.percentile p waits in
    let statuses =
      List.map
        (fun st ->
          let name = Protocol.status_to_string st in
          let k =
            List.length
              (List.filter
                 (fun s ->
                   match s.response with Some r -> r.Protocol.status = st | None -> false)
                 l.served)
          in
          metric ("serve.status." ^ name) "count"
            (if st = Protocol.Ok then Higher else Lower)
            (float_of_int k))
        Protocol.[ Ok; Degraded; Rejected; Timeout; Error ]
    in
    gc
    @ [ metric "serve.submit.self_s" "s" Lower (self_s "serve.submit") ]
    @ List.concat_map
        (fun k ->
          [
            metric ("serve.step." ^ k ^ ".self_s") "s" Lower (self_s ("serve.step." ^ k));
            metric ~exact:true ("serve.step." ^ k ^ ".count") "count" Higher
              (float_of_int (calls ("serve.step." ^ k)));
          ])
        kinds
    @ [
        metric "serve.queue_wait_p50_s" "s" Lower (pct 50.);
        metric "serve.queue_wait_p95_s" "s" Lower (pct 95.);
        metric "serve.queue_depth_max" "count" Lower (float_of_int l.depth_max);
        metric "serve.generator_lag_max_s" "s" Lower
          (List.fold_left (fun acc s -> Float.max acc s.lag_s) 0. l.served);
      ]
    @ statuses
  in
  let traced =
    if not cfg.traced then []
    else
      List.init (if cfg.smoke then 2 else 1) (fun _ ->
          (* The idle loop's polling depends on timing, so only the
             layers' own allocation repeats exactly. *)
          let l, gc = with_tracing ~exact_words:false (fun () -> serve_loop requests) in
          (l, loop_metrics (l, gc)))
  in
  let replays = if cfg.traced then replays @ [ serve_loop requests ] else replays in
  List.iter
    (fun l -> List.iter (check_served c expected_infer) l.served)
    (replays @ List.map fst traced);
  let untraced_busy =
    List.fold_left (fun acc l -> acc +. l.busy_s) 0. replays /. float_of_int (List.length replays)
  in
  let traced_passes =
    List.map
      (fun (l, per_layer) ->
        metric "trace_overhead_frac" "frac" Lower ((l.busy_s /. untraced_busy) -. 1.) :: per_layer)
      traced
  in
  let metrics =
    if cfg.traced then []
    else
      let best f =
        List.fold_left
          (fun acc l -> List.map2 (fun a s -> Float.min a (f s)) acc l.served)
          (List.map (fun _ -> infinity) requests)
          replays
      in
      let busy = List.fold_left ( +. ) 0. (best (fun s -> s.work_s)) in
      latency_metrics ~setup_s ~peak_mb ~throughput:(float_of_int n /. busy)
        (best (fun s -> s.latency_s))
  in
  {
    metrics;
    attempted = c.attempted;
    failed = c.failed;
    failures = List.rev c.notes;
    traced_passes;
  }
