open Compass_nn
open Compass_isa

type t = {
  programs : Program.t list;
  weight_region_bytes : int;
  activation_high_water_bytes : int;
  instruction_count : int;
  spans : Partition.span list;
}

(* Where one span's work runs, computed once from its mapping: a node's
   work sits on the replica-0 core of its first in-span unit, an attached
   node's on that of its anchor unit. *)
type placement = {
  layer_cores : int list;
      (* Per [layers] entry: merges its partial sums, runs its ABFT [Check]
         and receives its in-span inputs. *)
  attached_cores : (Graph.node * int) list;
  transfers : (int * int * float * float) list;
      (* (source, destination, tensor bytes, in-span fraction): [n] samples
         move [n *. bytes *. fraction], rounded once ([n *. bytes] is exact). *)
  load_cores : (Graph.node * int list) list;
      (* Per load: its consuming cores, ascending; the first loads it. *)
  store_shares : (int * float) list list;  (* Per store, normalised to sum 1. *)
}

type span_plan = {
  io : Dataflow.partition_io;
  replication : Replication.t;
  mapping : Mapping.t;
  layers : Perf_model.layer_perf list;
  placement : placement;
}

let ceil_div a b = (a + b - 1) / b

let place ctx ~start_ ~stop (io : Dataflow.partition_io) layers (mapping : Mapping.t) =
  let tab = Dataflow.table ctx in
  let unit_core = Array.make (stop - start_) 0 in
  Array.iteri
    (fun c assignments ->
      List.iter
        (fun (a : Mapping.assignment) ->
          if a.Mapping.replica = 0 then unit_core.(a.Mapping.unit_index - start_) <- c)
        assignments)
    (Lazy.force mapping.Mapping.cores);
  (* The core of a node's first in-span unit (weighted nodes; units are
     contiguous) or of its anchor unit (the rest); -1 outside the span. *)
  let core_of node =
    let lo = tab.Span_table.unit_lo.(node) in
    let i = if lo >= 0 then Int.max lo start_ else tab.Span_table.anchor.(node) in
    if i >= start_ && i < stop && (lo < 0 || i <= tab.Span_table.unit_hi.(node)) then
      unit_core.(i - start_)
    else -1
  in
  let layer_cores =
    List.map (fun (lp : Perf_model.layer_perf) -> core_of lp.Perf_model.node) layers
  in
  let transfers =
    List.concat
      (List.map2
         (fun (lp : Perf_model.layer_perf) dst ->
           List.filter_map
             (fun u ->
               let src = core_of u in
               if src < 0 || src = dst then None
               else
                 let bytes = Dataflow.tensor_bytes ctx u in
                 Some (src, dst, bytes, Dataflow.layer_fraction_in ctx u ~start_ ~stop))
             (Graph.preds (Dataflow.units ctx).Unit_gen.model lp.Perf_model.node))
         layers layer_cores)
  in
  (* [Dataflow.span_io] loads a tensor only for an in-span consumer, so
     every load has at least one consuming core. *)
  let load_cores =
    List.map
      (fun (node, _) ->
        let add acc v = match core_of v with -1 -> acc | c -> c :: acc in
        (node, List.sort_uniq Int.compare (List.fold_left add [] tab.Span_table.succ.(node))))
      io.Dataflow.loads
  in
  let store_shares =
    List.map
      (fun (node, _) ->
        let shares =
          if tab.Span_table.unit_lo.(node) >= 0 then
            let lo = Int.max tab.Span_table.unit_lo.(node) start_ in
            let hi = Int.min tab.Span_table.unit_hi.(node) (stop - 1) in
            List.init (hi - lo + 1) (fun k ->
                (unit_core.(lo + k - start_), Dataflow.unit_fraction ctx (lo + k)))
          else [ (core_of node, 1.) ]
        in
        let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. shares in
        let total = if total >= 1e-12 then total else 1e-12 in
        List.map (fun (c, f) -> (c, f /. total)) shares)
      io.Dataflow.stores
  in
  {
    layer_cores;
    attached_cores = List.map (fun node -> (node, core_of node)) io.Dataflow.attached;
    transfers;
    load_cores;
    store_shares;
  }

let build ?faults ?(abft = false) ctx group ~batch =
  if batch < 1 then invalid_arg "Scheduler.build: batch < 1";
  Compass_util.Trace.with_span "schedule.build"
    ~args:[ ("batch", string_of_int batch) ]
  @@ fun () ->
  let units = Dataflow.units ctx in
  if Partition.total_units group <> Unit_gen.unit_count units then
    invalid_arg "Scheduler.build: group does not cover the decomposition";
  let chunks = Int.min 4 batch in
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
        let placement = place ctx ~start_ ~stop io layers mapping in
        { io; replication; mapping; layers; placement })
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
    let pl = plan.placement in
    let weights_tag = Printf.sprintf "weights:P%d" p in
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
          weight_cursor := !weight_cursor + Int.max 64 (int_of_float bytes / 64 * 64 + 64);
          emitc c (Instr.Weight_write { macro_count; bytes; addr; tag = weights_tag })
        end)
      (Lazy.force plan.mapping.Mapping.cores);
    (* 2. Barrier: loads of this span happen after stores of the previous. *)
    for c = 0 to ncores - 1 do
      emitc c (Instr.Sync { token = p; parties = ncores })
    done;
    (* 3. Entry tensors. *)
    List.iter2
      (fun (node, bytes) (_, targets) ->
        let batch_bytes = fbatch *. bytes in
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
      plan.io.Dataflow.loads pl.load_cores;
    (* 4. Compute, sliced in chunks for pipelining.  Macros co-located on a
       core fire in lockstep (a PUMA-style MVM engages the whole matrix
       unit), so per chunk each core gets one fused Mvm whose count is the
       deepest per-replica pixel stream it hosts and whose tile width
       preserves the total macro-operation count. *)
    let layer_rep node = Replication.replication_of plan.replication node in
    for k = 0 to chunks - 1 do
      let chunk_samples = (batch + chunks - 1 - k) / chunks in
      if chunk_samples > 0 then begin
        let tag = Printf.sprintf "P%d.c%d" p k in
        (* Intra-span input traffic: producer primary -> consumer primary. *)
        List.iter
          (fun (src, dst, bytes, fraction) ->
            send_recv ~src ~dst ~bytes:(float_of_int chunk_samples *. bytes *. fraction))
          pl.transfers;
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
                  deepest := Int.max !deepest count;
                  total_ops := !total_ops + (count * a.Mapping.tiles)
                | None -> ())
              assignments;
            if !deepest > 0 then
              emitc c
                (Instr.Mvm
                   {
                     count = !deepest;
                     tiles = Int.max 1 (ceil_div !total_ops !deepest);
                     tag;
                   }))
          (Lazy.force plan.mapping.Mapping.cores);
        (* VFU merge per layer on its primary core. *)
        List.iter2
          (fun (lp : Perf_model.layer_perf) primary ->
            let vfu_ops = chunk_samples * lp.Perf_model.mvms * lp.Perf_model.vfu_ops_per_mvm in
            if vfu_ops > 0 then emitc primary (Instr.Vfu { ops = vfu_ops }))
          plan.layers pl.layer_cores;
        (* ABFT checksum verification per layer, after the merge on the
           same primary core: results are validated before downstream
           layers consume them. *)
        if abft then
          List.iter2
            (fun (lp : Perf_model.layer_perf) primary ->
              let ops =
                chunk_samples * lp.Perf_model.mvms
                * Abft.check_ops_per_mvm ~macro_ops:lp.Perf_model.macro_ops_per_mvm
              in
              if ops > 0 then emitc primary (Instr.Check { ops; tag }))
            plan.layers pl.layer_cores;
        (* Attached non-crossbar work, charged to its anchor core. *)
        List.iter
          (fun (node, c) ->
            let ops = chunk_samples * vector_ops.(node) in
            if ops > 0 then emitc c (Instr.Vfu { ops }))
          pl.attached_cores
      end
    done;
    (* 5. Exit tensors: each producing core stores/sends its share. *)
    List.iter2
      (fun (node, bytes) shares ->
        let batch_bytes = fbatch *. bytes in
        if spills node then begin
          let addr =
            addr_of_tensor node (int_of_float (fbatch *. Dataflow.tensor_bytes ctx node))
          in
          let offset = ref 0 in
          List.iter
            (fun (c, f) ->
              let b = batch_bytes *. f in
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
            let loads = plan_arr.(q).placement.load_cores in
            match List.find_opt (fun (n, _) -> Int.equal n node) loads with
            | Some (_, primary :: _) ->
              List.iter
                (fun (c, f) -> send_recv ~src:c ~dst:primary ~bytes:(batch_bytes *. f))
                shares
            | _ -> ()
          done)
      plan.io.Dataflow.stores pl.store_shares;
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
