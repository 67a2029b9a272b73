open Compass_arch

type span_cost = {
  start_ : int;
  stop : int;
  span_s : float;
  compute_s : float;
  io_s : float;
  write_s : float;
  wear_cost_s : float;
  energy_j : float;
}

type span_perf = {
  start_ : int;
  stop : int;
  io : Dataflow.partition_io;
  replication : Replication.t;
  cores_used : int;
  utilization : float;
  stage_times : (Compass_nn.Graph.node * float) list;
  bottleneck_s : float;
  fill_s : float;
  compute_s : float;
  check_s : float;
  unique_weight_bytes : float;
  programmed_bytes : float;
  write_s : float;
  io_load_bytes : float;
  io_store_bytes : float;
  io_dram_bytes : float;
  io_s : float;
  span_s : float;
  tiles_per_core : int array;
  wear_cost_s : float;
  mvm_energy_j : float;
  vfu_energy_j : float;
  write_energy_j : float;
  bus_energy_j : float;
  dram_energy_j : float;
}

type model_options = {
  write_overlap : bool;
  onchip_buffering : bool;
  charge_writes : bool;
  faults : Fault.t option;
  abft : bool;
}

let default_options =
  {
    write_overlap = true;
    onchip_buffering = true;
    charge_writes = true;
    faults = None;
    abft = false;
  }

type endurance = {
  macro_writes_per_batch : int;
  writes_per_inference : float;
  max_writes_per_macro_per_inference : float;
  projected_lifetime_inferences : float option;
}

type perf = {
  batch : int;
  spans : span_perf list;
  batch_latency_s : float;
  throughput_per_s : float;
  energy_j : float;
  energy_per_sample_j : float;
  edp_j_s : float;
  energy_components : (string * float) list;
  endurance : endurance;
}

(* [Stdlib.max] specialised to floats: the same comparison, without the
   polymorphic compare on boxed values. *)
let fmax (a : float) b = if a >= b then a else b

let span_perf ?(options = default_options) ctx ~batch ~start_ ~stop =
  if batch < 1 then invalid_arg "Estimator.span_perf: batch < 1";
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let core = chip.Config.core in
  let io = Dataflow.span_io ctx ~start_ ~stop in
  let layers = Perf_model.span_layers ctx ~start_ ~stop in
  let { Replication.replication; mapping } =
    Replication.place ?faults:options.faults ~layers ctx ~batch ~start_ ~stop
  in
  let fbatch = float_of_int batch in
  let cores_used = Mapping.cores_used mapping in
  let attached_ops = Perf_model.attached_vfu_ops ctx io in
  let lanes = float_of_int (Int.max 1 cores_used * core.Config.vfus_per_core) in
  let attached_stage_s = float_of_int attached_ops /. lanes /. core.Config.clock_hz in
  (* One pass over the span's layers, walking [per_layer] (which is in
     [layers] order) alongside.  Each accumulator adds its layers in
     order, exactly as a fold of its own would.  With ABFT on, every
     layer's per-sample stage gains the checksum verification its primary
     core runs after each MVM — the same per-MVM op count the scheduler's
     [Check] emission uses, at one core's VFU rate, so estimate and
     simulation agree. *)
  let stage_times = ref [] in
  let bottleneck_s = ref attached_stage_s in
  let check_sum = ref 0. and check_ops_sum = ref 0. in
  let fill_s = ref 0. and programmed_bytes = ref 0. in
  let macro_ops_sum = ref 0. and vfu_ops_sum = ref 0. in
  let layers_left = ref layers and reps_left = ref replication.Replication.per_layer in
  let walking = ref true in
  while !walking do
    match (!layers_left, !reps_left) with
    | (p : Perf_model.layer_perf) :: ps, (_, rep) :: rs ->
      let mvms = p.Perf_model.mvms in
      let check_ops =
        if options.abft then
          mvms * Abft.check_ops_per_mvm ~macro_ops:p.Perf_model.macro_ops_per_mvm
        else 0
      in
      let check =
        if not options.abft then 0.
        else
          float_of_int check_ops
          /. float_of_int core.Config.vfus_per_core
          /. core.Config.clock_hz
      in
      let stage = Perf_model.stage_time_s p ~replication:rep +. check in
      stage_times := (p.Perf_model.node, stage) :: !stage_times;
      bottleneck_s := fmax !bottleneck_s stage;
      check_sum := !check_sum +. check;
      check_ops_sum := !check_ops_sum +. float_of_int check_ops;
      fill_s := !fill_s +. p.Perf_model.op_time_s;
      programmed_bytes :=
        !programmed_bytes +. (float_of_int rep *. p.Perf_model.weight_bytes_in_span);
      macro_ops_sum :=
        !macro_ops_sum +. float_of_int (mvms * p.Perf_model.macro_ops_per_mvm);
      vfu_ops_sum := !vfu_ops_sum +. float_of_int (mvms * p.Perf_model.vfu_ops_per_mvm);
      layers_left := ps;
      reps_left := rs
    | _ -> walking := false
  done;
  let bottleneck_s = !bottleneck_s and fill_s = !fill_s in
  let programmed_bytes = !programmed_bytes in
  let check_s = fbatch *. !check_sum in
  let compute_s = fill_s +. (fbatch *. bottleneck_s) in
  (* Weight replacement phase. *)
  let unique_weight_bytes = Unit_gen.span_weight_bytes units start_ stop in
  let xbar = chip.Config.crossbar in
  let program_parallel_s =
    (* Cores program their macros serially; cores in parallel. *)
    let worst = Array.fold_left Int.max 0 mapping.Mapping.tiles_used in
    float_of_int worst *. Crossbar.write_latency_s xbar
  in
  let dram_fetch_s = Compass_dram.Dram.analytic_seconds unique_weight_bytes in
  let bus_fetch_s =
    Interconnect.transfer_time_s chip.Config.bus ~bytes:unique_weight_bytes
  in
  let write_s =
    if options.charge_writes then fmax (fmax dram_fetch_s bus_fetch_s) program_parallel_s
    else 0.
  in
  (* IO phase (per batch).  Inter-partition tensors live in the cores'
     local memories when a batch of them fits; model inputs/outputs and
     oversized tensors stream through DRAM. *)
  let io_load_bytes = fbatch *. io.Dataflow.load_bytes in
  let io_store_bytes = fbatch *. io.Dataflow.store_bytes in
  let io_bytes = io_load_bytes +. io_store_bytes in
  let goes_to_dram node =
    (not options.onchip_buffering) || Dataflow.spills_to_dram ctx ~batch node
  in
  (* Endpoints that stream through DRAM: their count and batch bytes. *)
  let dram_endpoints = ref 0 in
  let dram_endpoint_bytes endpoints =
    let bytes = ref 0. and left = ref endpoints and walking = ref true in
    while !walking do
      match !left with
      | (node, b) :: rest ->
        if goes_to_dram node then begin
          incr dram_endpoints;
          bytes := !bytes +. (fbatch *. b)
        end;
        left := rest
      | [] -> walking := false
    done;
    !bytes
  in
  let dram_load_bytes = dram_endpoint_bytes io.Dataflow.loads in
  let dram_store_bytes = dram_endpoint_bytes io.Dataflow.stores in
  let io_dram_bytes = dram_load_bytes +. dram_store_bytes in
  let io_s =
    if io_bytes <= 0. then 0.
    else
      let stream =
        fmax
          (Interconnect.transfer_time_s chip.Config.bus ~bytes:io_bytes)
          (Compass_dram.Dram.analytic_seconds io_dram_bytes)
      in
      stream
      +. (fbatch
         *. float_of_int !dram_endpoints
         *. chip.Config.dram.Config.request_overhead_s)
  in
  let span_s = write_s +. fmax compute_s io_s in
  (* Energy. *)
  let macro_ops = fbatch *. !macro_ops_sum in
  let check_ops = if not options.abft then 0. else fbatch *. !check_ops_sum in
  let vfu_ops = check_ops +. (fbatch *. (float_of_int attached_ops +. !vfu_ops_sum)) in
  let dram_bytes = unique_weight_bytes +. io_dram_bytes in
  let bus_bytes = unique_weight_bytes +. io_bytes in
  (* Per-sample macro-programming time: the wear-penalty surrogate the
     [Fitness.Wear] objective minimizes.  Zero when writes are free
     (all-on-chip mode pins weights once). *)
  let wear_cost_s =
    if options.charge_writes then
      float_of_int mapping.Mapping.total_tiles *. Crossbar.write_latency_s xbar /. fbatch
    else 0.
  in
  {
    start_;
    stop;
    io;
    replication;
    cores_used;
    utilization = Mapping.utilization mapping;
    stage_times = List.rev !stage_times;
    bottleneck_s;
    fill_s;
    compute_s;
    check_s;
    unique_weight_bytes;
    programmed_bytes;
    write_s;
    io_load_bytes;
    io_store_bytes;
    io_dram_bytes;
    io_s;
    span_s;
    tiles_per_core = mapping.Mapping.tiles_used;
    wear_cost_s;
    mvm_energy_j = Energy.mvm_j chip ~macro_ops;
    vfu_energy_j = Energy.vfu_j chip ~ops:vfu_ops;
    write_energy_j = Energy.weight_write_j chip ~bytes:programmed_bytes;
    bus_energy_j = Energy.bus_j chip ~bytes:bus_bytes;
    dram_energy_j = Compass_dram.Dram.analytic_energy_j dram_bytes;
  }

(* The five dynamic-energy components are summed left to right, in the
   order [combine] lists them, so every fitness read off a cost is the
   one the full record gives. *)
let span_cost_of (sp : span_perf) : span_cost =
  {
    start_ = sp.start_;
    stop = sp.stop;
    span_s = sp.span_s;
    compute_s = sp.compute_s;
    io_s = sp.io_s;
    write_s = sp.write_s;
    wear_cost_s = sp.wear_cost_s;
    energy_j =
      sp.mvm_energy_j +. sp.vfu_energy_j +. sp.write_energy_j +. sp.bus_energy_j
      +. sp.dram_energy_j;
  }

(* Weight-replacement wear: each placed tile is one macro programming per
   batch.  First-fit packing fills each core's macro slots from slot 0, so
   slot 0 of core [c] is rewritten by every span placing any tile on [c]
   and every other slot by a subset of those spans: the busiest macro is
   slot 0 of the core the most spans touch.  [Verify] re-derives the same
   figure slot by slot. *)
let endurance_of ~options chip ~batch spans =
  if not options.charge_writes then
    {
      macro_writes_per_batch = 0;
      writes_per_inference = 0.;
      max_writes_per_macro_per_inference = 0.;
      projected_lifetime_inferences = None;
    }
  else begin
    let has_slots = chip.Config.core.Config.macros_per_core > 0 in
    let spans_on_core = Array.make chip.Config.cores 0 in
    let total = ref 0 in
    List.iter
      (fun sp ->
        Array.iteri
          (fun c used ->
            total := !total + used;
            if used > 0 && has_slots then spans_on_core.(c) <- spans_on_core.(c) + 1)
          sp.tiles_per_core)
      spans;
    let worst = Array.fold_left Int.max 0 spans_on_core in
    let fbatch = float_of_int batch in
    let max_per_inference = float_of_int worst /. fbatch in
    let budget = Option.bind options.faults Fault.endurance_budget in
    {
      macro_writes_per_batch = !total;
      writes_per_inference = float_of_int !total /. fbatch;
      max_writes_per_macro_per_inference = max_per_inference;
      projected_lifetime_inferences =
        (match budget with
        | Some b when max_per_inference > 0. -> Some (b /. max_per_inference)
        | _ -> None);
    }
  end

let combine ?(options = default_options) ctx ~batch spans =
  let chip = (Dataflow.units ctx).Unit_gen.chip in
  (* Inter-partition overlap: the next write hides under this partition's
     DRAM-idle compute time. *)
  let rec latency acc prev = function
    | [] -> acc
    | sp :: rest ->
      let exposed_write =
        match prev with
        | None -> sp.write_s
        | Some p when options.write_overlap ->
          let idle = fmax 0. (fmax p.compute_s p.io_s -. p.io_s) in
          fmax 0. (sp.write_s -. idle)
        | Some _ -> sp.write_s
      in
      latency (acc +. exposed_write +. fmax sp.compute_s sp.io_s) (Some sp) rest
  in
  let batch_latency_s = latency 0. None spans in
  let sum f = List.fold_left (fun acc sp -> acc +. f sp) 0. spans in
  let static_j = Energy.static_j chip ~seconds:batch_latency_s in
  let components =
    [
      ("mvm", sum (fun sp -> sp.mvm_energy_j));
      ("vfu", sum (fun sp -> sp.vfu_energy_j));
      ("weight_write", sum (fun sp -> sp.write_energy_j));
      ("bus", sum (fun sp -> sp.bus_energy_j));
      ("dram", sum (fun sp -> sp.dram_energy_j));
      ("static", static_j);
    ]
  in
  let energy_j = List.fold_left (fun acc (_, v) -> acc +. v) 0. components in
  let fbatch = float_of_int batch in
  {
    batch;
    spans;
    batch_latency_s;
    throughput_per_s = fbatch /. batch_latency_s;
    energy_j;
    energy_per_sample_j = energy_j /. fbatch;
    edp_j_s = energy_j /. fbatch *. batch_latency_s;
    energy_components = components;
    endurance = endurance_of ~options chip ~batch spans;
  }

let span_perfs ?(options = default_options) ctx ~batch group =
  List.init (Partition.partition_count group) (fun k ->
      span_perf ~options ctx ~batch ~start_:(Partition.cut group k)
        ~stop:(Partition.cut group (k + 1)))

let evaluate ?(options = default_options) ctx ~batch group =
  if batch < 1 then invalid_arg "Estimator.evaluate: batch < 1";
  Compass_util.Metrics.incr "estimator.group_evaluations";
  if Partition.total_units group <> Unit_gen.unit_count (Dataflow.units ctx) then
    invalid_arg "Estimator.evaluate: group does not cover the decomposition";
  combine ~options ctx ~batch (span_perfs ~options ctx ~batch group)

(* A span [\[start_, stop)] as one int: unit counts stay far below 2^31. *)
let span_key start_ stop = (start_ lsl 31) lor stop

module Key_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiply-xorshift, so that [start_] reaches the low bits the bucket
     index reads; the key alone would put every span with the same [stop]
     in one bucket. *)
  let hash k =
    let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)

module Span_cache = struct
  type cache = {
    batch : int;
    options : model_options;
    table : span_cost Key_table.t;
    mutable hits : int;
    mutable misses : int;
  }

  type t = cache

  let create ?(options = default_options) ~batch () =
    if batch < 1 then invalid_arg "Estimator.Span_cache.create: batch < 1";
    { batch; options; table = Key_table.create 1024; hits = 0; misses = 0 }

  let batch t = t.batch
  let options t = t.options
  let length t = Key_table.length t.table

  (* Span costs depend on (batch, options) as much as on the span
     itself; a cache is branded with both at creation and refuses to mix. *)
  let check_compatible ~what a b =
    if a.batch <> b.batch then
      invalid_arg
        (Printf.sprintf "%s: cache batch mismatch (%d vs %d)" what a.batch b.batch);
    if a.options <> b.options then invalid_arg (what ^ ": cache options mismatch")

  (* The lookups counted on [t] since its last publication. *)
  let publish_lookups t =
    if t.hits > 0 then Compass_util.Metrics.add "estimator.span_cache.hits" t.hits;
    if t.misses > 0 then Compass_util.Metrics.add "estimator.span_cache.misses" t.misses;
    t.hits <- 0;
    t.misses <- 0

  let merge_into dst ~src =
    check_compatible ~what:"Estimator.Span_cache.merge_into" dst src;
    publish_lookups src;
    Key_table.iter
      (fun key sp -> if not (Key_table.mem dst.table key) then Key_table.add dst.table key sp)
      src.table
end

(* The cost [shared], else [cache], holds for [key]; [Not_found] when
   neither does.  Unchecked: callers check the [shared] brand once. *)
let find shared (cache : Span_cache.t) key =
  match shared with
  | Some (s : Span_cache.t) -> (
    match Key_table.find s.Span_cache.table key with
    | c -> c
    | exception Not_found -> Key_table.find cache.Span_cache.table key)
  | None -> Key_table.find cache.Span_cache.table key

let count_hit (cache : Span_cache.t) = cache.Span_cache.hits <- cache.Span_cache.hits + 1

(* Count a miss and record the cost of its freshly computed record. *)
let record_miss (cache : Span_cache.t) key sp =
  cache.Span_cache.misses <- cache.Span_cache.misses + 1;
  let c = span_cost_of sp in
  Key_table.add cache.Span_cache.table key c;
  c

(* One span's cost through [shared] then [cache], counting the outcome on
   [cache].  On a miss the full record is computed under the cache's
   brand and dies young: only its cost is kept. *)
let lookup shared (cache : Span_cache.t) ctx ~start_ ~stop =
  let key = span_key start_ stop in
  match find shared cache key with
  | c ->
    count_hit cache;
    c
  | exception Not_found ->
    record_miss cache key
      (span_perf ~options:cache.Span_cache.options ctx ~batch:cache.Span_cache.batch
         ~start_ ~stop)

(* A [match], not [Option.iter]: the closure would cost every hit an
   allocation. *)
let check_shared ~what ~cache shared =
  match shared with
  | Some s -> Span_cache.check_compatible ~what cache s
  | None -> ()

let span_cost_cached ?shared ~cache ctx ~start_ ~stop =
  check_shared ~what:"Estimator.span_cost_cached" ~cache shared;
  let c = lookup shared cache ctx ~start_ ~stop in
  Span_cache.publish_lookups cache;
  c

let spans_cached ?shared ~cache ctx group =
  check_shared ~what:"Estimator.spans_cached" ~cache shared;
  let n = Partition.partition_count group in
  let rec from k =
    if k = n then []
    else
      let c =
        lookup shared cache ctx ~start_:(Partition.cut group k)
          ~stop:(Partition.cut group (k + 1))
      in
      c :: from (k + 1)
  in
  from 0

let evaluate_cached ?shared ~cache ctx ~batch group =
  if batch < 1 then invalid_arg "Estimator.evaluate_cached: batch < 1";
  Compass_util.Metrics.incr "estimator.group_evaluations";
  if Span_cache.batch cache <> batch then
    invalid_arg
      (Printf.sprintf "Estimator.evaluate_cached: cache built for batch %d, called with %d"
         (Span_cache.batch cache) batch);
  check_shared ~what:"Estimator.evaluate_cached" ~cache shared;
  (* The cache holds costs, not records: a hit recomputes the span's
     record (pure, so bit-identical to the one its cost came from), a miss
     computes it once and caches its cost. *)
  let options = Span_cache.options cache in
  let spans =
    List.init (Partition.partition_count group) (fun k ->
        let start_ = Partition.cut group k and stop = Partition.cut group (k + 1) in
        let key = span_key start_ stop in
        let sp = span_perf ~options ctx ~batch ~start_ ~stop in
        (match find shared cache key with
        | _ -> count_hit cache
        | exception Not_found -> ignore (record_miss cache key sp));
        sp)
  in
  Span_cache.publish_lookups cache;
  combine ~options ctx ~batch spans

let pp_breakdown model ppf perf =
  let open Compass_util in
  Format.fprintf ppf "batch %d: latency %s, throughput %a, energy/sample %s, EDP %.3g Js@."
    perf.batch
    (Units.time_to_string perf.batch_latency_s)
    Units.pp_rate perf.throughput_per_s
    (Units.energy_to_string perf.energy_per_sample_j)
    perf.edp_j_s;
  let line k sp =
    let layer_names =
      String.concat ","
        (List.map
           (fun n -> (Compass_nn.Graph.layer model n).Compass_nn.Layer.name)
           sp.io.Dataflow.weighted_layers)
    in
    let max_rep = Replication.max_replication sp.replication in
    Format.fprintf ppf
      "  P%-2d units[%d,%d) cores=%-2d rep<=%-2d write=%-10s compute=%-10s io=%-10s | %s@."
      k sp.start_ sp.stop sp.cores_used max_rep
      (Units.time_to_string sp.write_s)
      (Units.time_to_string sp.compute_s)
      (Units.time_to_string sp.io_s)
      layer_names
  in
  List.iteri line perf.spans;
  let e = perf.endurance in
  if e.macro_writes_per_batch > 0 then begin
    Format.fprintf ppf
      "  endurance: %.1f macro writes/inference, worst macro %.2f writes/inference"
      e.writes_per_inference e.max_writes_per_macro_per_inference;
    (match e.projected_lifetime_inferences with
    | Some n -> Format.fprintf ppf ", projected lifetime %.3g inferences" n
    | None -> ());
    Format.fprintf ppf "@."
  end
