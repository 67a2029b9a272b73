open Compass_nn
open Compass_isa

type t = {
  programs : Program.t list;
  weight_region_bytes : int;
  activation_high_water_bytes : int;
  instruction_count : int;
  spans : Partition.span list;
}

type span_plan = {
  span : Partition.span;
  io : Dataflow.partition_io;
  replication : Replication.t;
  mapping : Mapping.t;
  layers : Perf_model.layer_perf list;
}

let ceil_div a b = (a + b - 1) / b

(* Core hosting the replica-0 copy of a unit. *)
let unit_core plan i = Mapping.core_of_unit plan.mapping ~unit_index:i ~replica:0

(* The in-span units of a weighted node, [lo, hi] (empty when hi < lo):
   its units are contiguous, so the first one is [max unit_lo start]. *)
let unit_range tab plan node =
  let s = plan.span in
  ( Int.max tab.Span_table.unit_lo.(node) s.Partition.start_,
    Int.min tab.Span_table.unit_hi.(node) (s.Partition.stop - 1) )

(* Primary core producing a node inside a span: for weighted nodes the core
   of its first in-span unit; for attached nodes the core of their anchor
   unit's layer. *)
let producer_core ctx plan node =
  let tab = Dataflow.table ctx in
  if tab.Span_table.unit_lo.(node) >= 0 then
    let lo, hi = unit_range tab plan node in
    if lo <= hi then Some (unit_core plan lo) else None
  else
    let a = tab.Span_table.anchor.(node) in
    let s = plan.span in
    if a >= s.Partition.start_ && a < s.Partition.stop then Some (unit_core plan a)
    else None

(* All (core, share) pairs producing a node's in-span output chunk, share
   summing to the in-span fraction. *)
let producer_shares ctx plan node =
  let tab = Dataflow.table ctx in
  if tab.Span_table.unit_lo.(node) >= 0 then
    let lo, hi = unit_range tab plan node in
    List.init (Int.max 0 (hi - lo + 1)) (fun k ->
        (unit_core plan (lo + k), Dataflow.unit_fraction ctx (lo + k)))
  else
    match producer_core ctx plan node with
    | Some c -> [ (c, 1.) ]
    | None -> []

(* Primary cores of the layers consuming tensor [node] inside the span. *)
let consumer_cores ctx plan node =
  let model = (Dataflow.units ctx).Unit_gen.model in
  let consumers =
    List.filter
      (fun v ->
        List.mem v plan.io.Dataflow.weighted_layers
        || List.mem v plan.io.Dataflow.attached)
      (Graph.succs model node)
  in
  let cores = List.filter_map (fun v -> producer_core ctx plan v) consumers in
  match List.sort_uniq compare cores with
  | [] -> (
    (* Consumers attach elsewhere (e.g. a split layer chunk): fall back to
       the span's first busy core. *)
    match
      Array.to_list plan.mapping.Mapping.tiles_used
      |> List.mapi (fun c used -> (c, used))
      |> List.filter (fun (_, used) -> used > 0)
    with
    | (c, _) :: _ -> [ c ]
    | [] -> [ 0 ])
  | cores -> cores

let build ?faults ?(abft = false) ctx group ~batch =
  if batch < 1 then invalid_arg "Scheduler.build: batch < 1";
  Compass_util.Trace.with_span "schedule.build"
    ~args:[ ("batch", string_of_int batch) ]
  @@ fun () ->
  let units = Dataflow.units ctx in
  if Partition.total_units group <> Unit_gen.unit_count units then
    invalid_arg "Scheduler.build: group does not cover the decomposition";
  let chunks = min 4 batch in
  let chip = units.Unit_gen.chip in
  let ncores = chip.Compass_arch.Config.cores in
  let model = units.Unit_gen.model in
  let vector_ops = (Dataflow.table ctx).Span_table.vector_ops in
  let fbatch = float_of_int batch in
  (* Pass 1: plan every span. *)
  let plans =
    List.map
      (fun (s : Partition.span) ->
        let start_ = s.Partition.start_ and stop = s.Partition.stop in
        let io = Dataflow.span_io ctx ~start_ ~stop in
        let layers = Perf_model.span_layers ctx ~start_ ~stop in
        let { Replication.replication; mapping } =
          Replication.place ?faults ~layers ctx ~batch ~start_ ~stop
        in
        { span = s; io; replication; mapping; layers })
      (Partition.spans group)
  in
  let plan_arr = Array.of_list plans in
  let nspans = Array.length plan_arr in
  (* Weight region: bump allocation, one blob per (span, core). *)
  let weight_cursor = ref 0 in
  (* Activation arena sits above the weight region; sized generously and
     checked against DRAM capacity. *)
  let total_weights =
    int_of_float (Unit_gen.span_weight_bytes units 0 (Unit_gen.unit_count units))
  in
  let arena_base = (total_weights / 4096 * 4096) + 4096 in
  let act_alloc =
    Memory_alloc.create ~base:arena_base ~capacity:(1 lsl 30) ()
  in
  (* Last span loading each tensor, for liveness. *)
  let last_consumer = Hashtbl.create 64 in
  Array.iteri
    (fun q plan ->
      List.iter (fun (u, _) -> Hashtbl.replace last_consumer u q) plan.io.Dataflow.loads)
    plan_arr;
  let tensor_addr = Hashtbl.create 64 in
  let addr_of_tensor node bytes =
    match Hashtbl.find_opt tensor_addr node with
    | Some a -> a
    | None ->
      let a =
        Memory_alloc.alloc act_alloc ~bytes
          ~tag:(Graph.layer model node).Layer.name
      in
      Hashtbl.add tensor_addr node a;
      a
  in
  (* Per-core instruction buffers (reversed). *)
  let buffers = Array.make ncores [] in
  let emit c instr = buffers.(c) <- instr :: buffers.(c) in
  let instruction_count = ref 0 in
  let emitc c instr =
    incr instruction_count;
    emit c instr
  in
  let channel = ref 0 in
  let fresh_channel () =
    incr channel;
    !channel
  in
  let send_recv ~src ~dst ~bytes =
    if src <> dst && bytes > 0. then begin
      let ch = fresh_channel () in
      emitc src (Instr.Send { bytes; dst; channel = ch });
      emitc dst (Instr.Recv { bytes; src; channel = ch })
    end
  in
  (* On-chip handoffs: (tensor, consumer span) -> producer sends recorded at
     producer-span emission; receivers emitted at consumer-span loads. *)
  let spills node = Dataflow.spills_to_dram ctx ~batch node in
  (* Emit one span. *)
  let emit_span p plan =
    let s = plan.span in
    (* 1. Weight writes: per core, before the barrier (overlaps other cores'
       previous-partition drain). *)
    Array.iteri
      (fun c assignments ->
        if assignments <> [] then begin
          let macro_count = plan.mapping.Mapping.tiles_used.(c) in
          (* Broadcast: only replica-0 copies fetch bytes from DRAM. *)
          let bytes =
            List.fold_left
              (fun acc (a : Mapping.assignment) ->
                if a.Mapping.replica = 0 then
                  acc +. units.Unit_gen.units.(a.Mapping.unit_index).Unit_gen.weight_bytes
                else acc)
              0. assignments
          in
          let addr = !weight_cursor in
          weight_cursor := !weight_cursor + max 64 (int_of_float bytes / 64 * 64 + 64);
          emitc c
            (Instr.Weight_write
               { macro_count; bytes; addr; tag = Printf.sprintf "weights:P%d" p })
        end)
      (Lazy.force plan.mapping.Mapping.cores);
    (* 2. Barrier: loads of this span happen after stores of the previous. *)
    for c = 0 to ncores - 1 do
      emitc c (Instr.Sync { token = p; parties = ncores })
    done;
    (* 3. Entry tensors. *)
    List.iter
      (fun (node, bytes) ->
        let batch_bytes = fbatch *. bytes in
        let targets = consumer_cores ctx plan node in
        let primary = List.hd targets in
        if spills node then begin
          let addr = addr_of_tensor node (int_of_float (fbatch *. Dataflow.tensor_bytes ctx node)) in
          emitc primary
            (Instr.Load
               {
                 bytes = batch_bytes;
                 addr;
                 tag = Printf.sprintf "act:%s" (Graph.layer model node).Layer.name;
               })
        end;
        (* On-chip tensors arrive as Send/Recv pairs emitted by the
           producing span's store step.  Redistribute to the other
           consuming cores over the bus. *)
        List.iter (fun c -> send_recv ~src:primary ~dst:c ~bytes:batch_bytes) (List.tl targets))
      plan.io.Dataflow.loads;
    (* 4. Compute, sliced in chunks for pipelining.  Macros co-located on a
       core fire in lockstep (a PUMA-style MVM engages the whole matrix
       unit), so per chunk each core gets one fused Mvm whose count is the
       deepest per-replica pixel stream it hosts and whose tile width
       preserves the total macro-operation count. *)
    let layer_rep node = Replication.replication_of plan.replication node in
    for k = 0 to chunks - 1 do
      let chunk_samples = (batch + chunks - 1 - k) / chunks in
      if chunk_samples > 0 then begin
        let fchunk = float_of_int chunk_samples in
        (* Intra-span input traffic: producer primary -> consumer primary. *)
        List.iter
          (fun (lp : Perf_model.layer_perf) ->
            let node = lp.Perf_model.node in
            let primary = Option.value ~default:0 (producer_core ctx plan node) in
            List.iter
              (fun u ->
                match producer_core ctx plan u with
                | Some src when src <> primary ->
                  let bytes =
                    fchunk *. Dataflow.tensor_bytes ctx u
                    *. Dataflow.layer_fraction_in ctx u ~start_:s.Partition.start_
                         ~stop:s.Partition.stop
                  in
                  send_recv ~src ~dst:primary ~bytes
                | Some _ | None -> ())
              (Graph.preds model node))
          plan.layers;
        (* Fused MVM per core. *)
        let per_replica_of = Hashtbl.create 8 in
        List.iter
          (fun (lp : Perf_model.layer_perf) ->
            let r = layer_rep lp.Perf_model.node in
            Hashtbl.replace per_replica_of lp.Perf_model.node
              (ceil_div (chunk_samples * lp.Perf_model.mvms) r))
          plan.layers;
        Array.iteri
          (fun c assignments ->
            let deepest = ref 0 and total_ops = ref 0 in
            List.iter
              (fun (a : Mapping.assignment) ->
                let u = units.Unit_gen.units.(a.Mapping.unit_index) in
                match Hashtbl.find_opt per_replica_of u.Unit_gen.layer with
                | Some count ->
                  deepest := max !deepest count;
                  total_ops := !total_ops + (count * a.Mapping.tiles)
                | None -> ())
              assignments;
            if !deepest > 0 then
              emitc c
                (Instr.Mvm
                   {
                     count = !deepest;
                     tiles = max 1 (ceil_div !total_ops !deepest);
                     tag = Printf.sprintf "P%d.c%d" p k;
                   }))
          (Lazy.force plan.mapping.Mapping.cores);
        (* VFU merge per layer on its primary core. *)
        List.iter
          (fun (lp : Perf_model.layer_perf) ->
            let node = lp.Perf_model.node in
            let primary = Option.value ~default:0 (producer_core ctx plan node) in
            let vfu_ops = chunk_samples * lp.Perf_model.mvms * lp.Perf_model.vfu_ops_per_mvm in
            if vfu_ops > 0 then emitc primary (Instr.Vfu { ops = vfu_ops }))
          plan.layers;
        (* ABFT checksum verification per layer, after the merge on the
           same primary core: results are validated before downstream
           layers consume them. *)
        if abft then
          List.iter
            (fun (lp : Perf_model.layer_perf) ->
              let node = lp.Perf_model.node in
              let primary = Option.value ~default:0 (producer_core ctx plan node) in
              let ops =
                chunk_samples * lp.Perf_model.mvms
                * Abft.check_ops_per_mvm ~macro_ops:lp.Perf_model.macro_ops_per_mvm
              in
              if ops > 0 then
                emitc primary (Instr.Check { ops; tag = Printf.sprintf "P%d.c%d" p k }))
            plan.layers;
        (* Attached non-crossbar work, charged to its anchor core. *)
        List.iter
          (fun node ->
            let ops = chunk_samples * vector_ops.(node) in
            if ops > 0 then
              let c = Option.value ~default:0 (producer_core ctx plan node) in
              emitc c (Instr.Vfu { ops }))
          plan.io.Dataflow.attached
      end
    done;
    (* 5. Exit tensors: each producing core stores/sends its share. *)
    List.iter
      (fun (node, bytes) ->
        let batch_bytes = fbatch *. bytes in
        let shares = producer_shares ctx plan node in
        let total_share = List.fold_left (fun acc (_, f) -> acc +. f) 0. shares in
        if spills node then begin
          let addr =
            addr_of_tensor node (int_of_float (fbatch *. Dataflow.tensor_bytes ctx node))
          in
          let offset = ref 0 in
          List.iter
            (fun (c, f) ->
              let b = batch_bytes *. (f /. max total_share 1e-12) in
              if b > 0.5 then begin
                emitc c
                  (Instr.Store
                     {
                       bytes = b;
                       addr = addr + !offset;
                       tag = Printf.sprintf "act:%s" (Graph.layer model node).Layer.name;
                     });
                offset := !offset + int_of_float b
              end)
            shares
        end
        else
          (* On-chip handoff: send shares to every later consuming span. *)
          for q = p + 1 to nspans - 1 do
            let plq = plan_arr.(q) in
            if List.mem_assoc node plq.io.Dataflow.loads then begin
              let targets = consumer_cores ctx plq node in
              let primary = List.hd targets in
              List.iter
                (fun (c, f) ->
                  let b = batch_bytes *. (f /. max total_share 1e-12) in
                  send_recv ~src:c ~dst:primary ~bytes:b)
                shares
            end
          done)
      plan.io.Dataflow.stores;
    (* 6. Free tensors whose last consumer was this span. *)
    Hashtbl.iter
      (fun node q ->
        if q = p then
          match Hashtbl.find_opt tensor_addr node with
          | Some addr ->
            Memory_alloc.free act_alloc addr;
            Hashtbl.remove tensor_addr node
          | None -> ())
      last_consumer
  in
  Array.iteri emit_span plan_arr;
  let programs =
    List.init ncores (fun c -> Program.make ~core_id:c (List.rev buffers.(c)))
  in
  {
    programs;
    weight_region_bytes = !weight_cursor;
    activation_high_water_bytes = Memory_alloc.high_water_bytes act_alloc;
    instruction_count = !instruction_count;
    spans = Partition.spans group;
  }

let simulate ctx t =
  Compass_util.Trace.with_span "sim.run" @@ fun () ->
  Sim.run (Dataflow.units ctx).Unit_gen.chip t.programs

let dram_stats _ctx (result : Sim.result) =
  Compass_util.Trace.with_span "dram.replay" @@ fun () ->
  Compass_dram.Dram.simulate result.Sim.dram_trace
