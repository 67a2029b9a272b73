open Compass_nn
open Compass_arch

(* Escalation bounds: retries per faulty layer, core retirements per
   request, and the first backoff, which doubles per attempt. *)
let max_retries = 2
let max_remaps = 4
let backoff_s = 1e-4

type action =
  | Detected of {
      node : Graph.node;
      unit_index : int;
      col : int;
      core : int;
    }
  | Retried of {
      node : Graph.node;
      attempt : int;
      backoff_s : float;
    }
  | Remapped of {
      core : int;
      strategy : Compiler.repair_strategy;
    }
  | Degraded of { node : Graph.node }

type outcome =
  | Clean
  | Healed
  | Degraded_output

type report = {
  outcome : outcome;
  bit_identical : bool;
  checks : int;
  detections : int;
  retries : int;
  remaps : int;
  degraded_layers : int;
  backoff_total_s : float;
  actions : action list;
  plan : Compiler.t;
  sites : Inject.site list;
}

(* A realized site bound to the core that physically holds its cell.  The
   fault lives in the hardware, not the logical unit: once recovery moves
   the unit to a different core (remap retires the victim), the freshly
   programmed cells read clean and the site goes inactive. *)
type bound_site = {
  site : Inject.site;
  home_core : int;
  mutable cleared : bool;  (* transient cleared by a retry *)
}

let metric = Compass_util.Metrics.incr

(* Replica-0 placement of every unit under [plan]'s group, batch and fault
   scenario — the placement the scheduler programs, so localization names
   the core that holds the unit. *)
let core_map plan =
  let group = plan.Compiler.group in
  let cache = Hashtbl.create 8 in
  fun unit_index ->
    let p = Partition.partition_of_unit group unit_index in
    let mapping =
      match Hashtbl.find_opt cache p with
      | Some m -> m
      | None ->
        let span = Partition.span_at group p in
        let m =
          (Replication.place ?faults:plan.Compiler.faults plan.Compiler.ctx
             ~batch:plan.Compiler.batch ~start_:span.Partition.start_
             ~stop:span.Partition.stop)
            .mapping
        in
        Hashtbl.add cache p m;
        m
    in
    Mapping.core_of_unit mapping ~unit_index ~replica:0

(* Augment a scenario with one more dead core, preserving everything else. *)
let retire faults ~cores victim =
  let base = match faults with Some f -> f | None -> Fault.healthy ~cores in
  let statuses = Array.init cores (Fault.status base) in
  statuses.(victim) <- Fault.Dead;
  Fault.make
    ?endurance_budget:(Fault.endurance_budget base)
    ~transient_cells:(Fault.transient_cells base)
    ~weight_flips:(Fault.weight_flips base)
    ?drift:(Fault.drift base) statuses

let run ?(seed = 0) ?faults ~weights ~input plan0 =
  let units = plan0.Compiler.units in
  let model = units.Unit_gen.model in
  let chip = plan0.Compiler.chip in
  let bits = chip.Config.crossbar.Crossbar.weight_bits in
  let faults =
    match faults with
    | Some f -> Some f
    | None -> plan0.Compiler.faults
  in
  (* Backoff is modeled, never slept: recovery never blocks a request. *)
  let retry = Compass_util.Retry.make ~retries:max_retries ~base_s:backoff_s () in
  (match (Graph.entry_nodes model, Graph.exit_nodes model) with
  | [ _ ], [ _ ] -> ()
  | _ -> invalid_arg "Recovery.run: expected exactly one input and one output");
  (* Quantize every weighted layer once; all execution (reference and
     healed) reads dequantized codes so recovered output can be compared
     bit for bit. *)
  let clean_codes : (Graph.node, int array) Hashtbl.t = Hashtbl.create 16 in
  let spec_of : (Graph.node, Quant.spec) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (node, _) ->
      let raw =
        match Hashtbl.find_opt weights node with
        | Some w -> w
        | None -> invalid_arg (Printf.sprintf "Recovery: missing weights for node %d" node)
      in
      let snapped, spec = Quant.quantize ~bits raw in
      Hashtbl.add clean_codes node (Quant.codes spec snapped);
      Hashtbl.add spec_of node spec)
    units.Unit_gen.layer_units;
  let rows_of node =
    Compass_nn.Layer.weight_rows (Graph.layer model node).Compass_nn.Layer.op
  in
  (* Unit [u]'s column-major [rows x cols] block of its layer's [codes]. *)
  let unit_block codes (u : Unit_gen.unit_t) =
    let rows_total = rows_of u.Unit_gen.layer in
    let rows = u.Unit_gen.row_hi - u.Unit_gen.row_lo in
    let cols = u.Unit_gen.col_hi - u.Unit_gen.col_lo in
    let block = Array.make (rows * cols) 0 in
    for c = 0 to cols - 1 do
      for r = 0 to rows - 1 do
        block.((c * rows) + r) <-
          codes.(((u.Unit_gen.col_lo + c) * rows_total) + (u.Unit_gen.row_lo + r))
      done
    done;
    (rows, cols, block)
  in
  (* The checksum row of every unit, computed from pristine codes at
     "unit-generation" time — before any fault is realized. *)
  let unit_checksum =
    Array.map
      (fun (u : Unit_gen.unit_t) ->
        let rows, cols, block = unit_block (Hashtbl.find clean_codes u.Unit_gen.layer) u in
        Abft.checksum_row ~rows ~cols block)
      units.Unit_gen.units
  in
  (* Realize fault sites and bind each to its physical home core. *)
  let sites =
    match faults with
    | Some f when Fault.has_cell_faults f -> Inject.realize units ~faults:f ~seed
    | _ -> []
  in
  let plan = ref plan0 in
  let locate = ref (core_map !plan) in
  let bound =
    List.map
      (fun (s : Inject.site) ->
        { site = s; home_core = !locate s.Inject.unit_index; cleared = false })
      sites
  in
  let active b = (not b.cleared) && !locate b.site.Inject.unit_index = b.home_core in
  let sites_of_unit u = List.filter (fun b -> b.site.Inject.unit_index = u) bound in
  (* What the crossbars of [node] currently hold: clean codes overlaid
     with every active corruption. *)
  let read_layer node =
    let out = Array.copy (Hashtbl.find clean_codes node) in
    let rows_total = rows_of node in
    List.iter
      (fun idx ->
        let u = units.Unit_gen.units.(idx) in
        List.iter
          (fun b ->
            if active b then begin
              let mr = u.Unit_gen.row_lo + b.site.Inject.row in
              let mc = u.Unit_gen.col_lo + b.site.Inject.col in
              let i = (mc * rows_total) + mr in
              out.(i) <- Inject.corrupt_code ~bits b.site.Inject.kind out.(i)
            end)
          (sites_of_unit idx))
      (Unit_gen.units_of_layer units node);
    out
  in
  let checks = ref 0
  and detections = ref 0
  and retries = ref 0
  and remaps = ref 0
  and degraded_layers = ref 0
  and backoff_total = ref 0. in
  let actions = ref [] in
  let push a = actions := a :: !actions in
  (* One ABFT pass over every unit of a layer against the current codes. *)
  let verify_layer node codes =
    List.concat_map
      (fun idx ->
        incr checks;
        metric "recovery.checks";
        let rows, cols, block = unit_block codes units.Unit_gen.units.(idx) in
        Abft.verify ~unit_index:idx ~rows ~cols ~codes:block ~checksum:unit_checksum.(idx))
      (Unit_gen.units_of_layer units node)
  in
  (* Bounded escalation for one layer: retry transients with exponential
     backoff, remap persistents to spare capacity, degrade as last
     resort.  Returns the codes the layer finally executes with. *)
  let heal node =
    Compass_util.Trace.with_span "recovery.verify" (fun () ->
        let codes = ref (read_layer node) in
        let mismatches = ref (verify_layer node !codes) in
        if !mismatches <> [] then begin
          List.iter
            (fun (m : Abft.mismatch) ->
              incr detections;
              metric "recovery.detections";
              push
                (Detected
                   {
                     node;
                     unit_index = m.Abft.unit_index;
                     col = m.Abft.col;
                     core = !locate m.Abft.unit_index;
                   }))
            !mismatches;
          (* Stage 1: retry — transient stuck-at cells clear on re-read. *)
          let rec stage1 attempt =
            if !mismatches <> [] then
              match Compass_util.Retry.next retry ~attempt with
              | Compass_util.Retry.Exhausted | Compass_util.Retry.Expired -> ()
              | Compass_util.Retry.Again backoff ->
                backoff_total := !backoff_total +. backoff;
                incr retries;
                metric "recovery.retries";
                push (Retried { node; attempt; backoff_s = backoff });
                List.iter
                  (fun (m : Abft.mismatch) ->
                    List.iter
                      (fun b -> if b.site.Inject.transient then b.cleared <- true)
                      (sites_of_unit m.Abft.unit_index))
                  !mismatches;
                codes := read_layer node;
                mismatches := verify_layer node !codes;
                stage1 (attempt + 1)
          in
          stage1 0;
          (* Stage 2: remap — retire the faulty core and repair the plan
             so the unit's weights are reprogrammed on spare capacity. *)
          while !mismatches <> [] && !remaps < max_remaps do
            let victim = !locate (List.hd !mismatches).Abft.unit_index in
            let augmented =
              retire !plan.Compiler.faults ~cores:chip.Config.cores victim
            in
            match
              Compass_util.Trace.with_span "recovery.remap" (fun () ->
                  Compiler.repair !plan ~faults:augmented)
            with
            | Ok r ->
              plan := r.Compiler.plan;
              locate := core_map !plan;
              incr remaps;
              metric "recovery.remaps";
              push (Remapped { core = victim; strategy = r.Compiler.strategy });
              codes := read_layer node;
              mismatches := verify_layer node !codes
            | Error _ ->
              (* No spare capacity: stop escalating, serve degraded. *)
              mismatches := [];
              incr degraded_layers;
              metric "recovery.degraded";
              push (Degraded { node });
              codes := read_layer node
          done;
          (* Stage 3: degrade — flag the output but keep serving. *)
          if !mismatches <> [] then begin
            incr degraded_layers;
            metric "recovery.degraded";
            push (Degraded { node })
          end
        end;
        !codes)
  in
  (* Heal every weighted layer in topological order, then run the shared
     executor on dequantized codes for both the reference and the healed
     run, so identical codes give bit-identical outputs. *)
  let execute codes_for =
    let exec_weights : Executor.weights = Hashtbl.create 16 in
    List.iter
      (fun v ->
        if Hashtbl.mem clean_codes v then
          Hashtbl.replace exec_weights v
            (Quant.dequantize (Hashtbl.find spec_of v) (codes_for v)))
      (Graph.topo_order model);
    Executor.output model exec_weights input
  in
  let reference = execute (Hashtbl.find clean_codes) in
  let output =
    Compass_util.Trace.with_span "recovery.execute" (fun () -> execute heal)
  in
  let bit_identical = Tensor.same_bits reference output in
  let outcome =
    if !degraded_layers > 0 then Degraded_output
    else if !detections > 0 then Healed
    else Clean
  in
  {
    outcome;
    bit_identical;
    checks = !checks;
    detections = !detections;
    retries = !retries;
    remaps = !remaps;
    degraded_layers = !degraded_layers;
    backoff_total_s = !backoff_total;
    actions = List.rev !actions;
    plan = !plan;
    sites;
  }

let pp_action ppf = function
  | Detected { node; unit_index; col; core } ->
    Format.fprintf ppf "detected: node %d unit %d col %d (core %d)" node unit_index col
      core
  | Retried { node; attempt; backoff_s } ->
    Format.fprintf ppf "retried: node %d attempt %d (backoff %.1e s)" node attempt
      backoff_s
  | Remapped { core; strategy } ->
    Format.fprintf ppf "remapped: retired core %d (%s)" core
      (match strategy with
      | Compiler.Unchanged -> "mapping moved"
      | Compiler.Remapped n -> Printf.sprintf "%d spans re-split" n
      | Compiler.Recompiled -> "recompiled")
  | Degraded { node } -> Format.fprintf ppf "degraded: node %d output flagged" node

let pp_report ppf r =
  Format.fprintf ppf
    "recovery: %s (%d checks, %d detections, %d retries, %d remaps, %d degraded)"
    (match r.outcome with
    | Clean -> "clean"
    | Healed -> "healed"
    | Degraded_output -> "degraded")
    r.checks r.detections r.retries r.remaps r.degraded_layers
