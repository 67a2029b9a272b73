open Compass_nn
open Compass_arch

type policy = {
  max_retries : int;
  max_remaps : int;
  backoff_s : float;
  allow_remap : bool;
  budget : Compass_util.Budget.t option;
  sleep : float -> unit;
}

let default_policy =
  {
    max_retries = 2;
    max_remaps = 4;
    backoff_s = 1e-4;
    allow_remap = true;
    budget = None;
    (* Backoff is simulated, never slept: recovery must not block the
       request on wall-clock waits, and tests with simulated time must
       not flake.  Callers that really want to wait inject a sleep. *)
    sleep = ignore;
  }

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
  output : Tensor.t;
  reference : Tensor.t;
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

(* Replica-0 placement of every unit under [plan]'s group and fault
   scenario — the same replication + first-fit packing the scheduler
   uses, so localization names the core the schedule programs. *)
let core_map plan =
  let units = plan.Compiler.units in
  let ctx = plan.Compiler.ctx in
  let group = plan.Compiler.group in
  let faults = plan.Compiler.faults in
  let cache = Hashtbl.create 8 in
  fun unit_index ->
    let p = Partition.partition_of_unit group unit_index in
    let mapping =
      match Hashtbl.find_opt cache p with
      | Some m -> m
      | None ->
        let span = Partition.span_at group p in
        let replication =
          Replication.allocate ?faults ctx ~batch:1 ~start_:span.Partition.start_
            ~stop:span.Partition.stop
        in
        let m =
          match
            Mapping.pack ?faults units ~start_:span.Partition.start_
              ~stop:span.Partition.stop
              ~replication:(Replication.unit_replication replication units)
          with
          | Ok m -> m
          | Error msg -> invalid_arg ("Recovery: mapping failed: " ^ msg)
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

let run ?(policy = default_policy) ?(seed = 0) ?faults ~weights ~input plan0 =
  let units = plan0.Compiler.units in
  let model = units.Unit_gen.model in
  let chip = plan0.Compiler.chip in
  let bits = chip.Config.crossbar.Crossbar.weight_bits in
  let faults =
    match faults with
    | Some f -> Some f
    | None -> plan0.Compiler.faults
  in
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
  (* The checksum row of every unit, computed from pristine codes at
     "unit-generation" time — before any fault is realized. *)
  let rows_of node =
    Compass_nn.Layer.weight_rows (Graph.layer model node).Compass_nn.Layer.op
  in
  let unit_checksum =
    Array.map
      (fun (u : Unit_gen.unit_t) ->
        let node = u.Unit_gen.layer in
        let all = Hashtbl.find clean_codes node in
        let rows_total = rows_of node in
        Array.init
          (u.Unit_gen.col_hi - u.Unit_gen.col_lo)
          (fun c ->
            let mc = u.Unit_gen.col_lo + c in
            let sum = ref 0 in
            for mr = u.Unit_gen.row_lo to u.Unit_gen.row_hi - 1 do
              sum := !sum + all.((mc * rows_total) + mr)
            done;
            !sum))
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
  let expired () =
    match policy.budget with Some b -> Compass_util.Budget.expired b | None -> false
  in
  (* One ABFT pass over every unit of a layer against the current codes. *)
  let verify_layer node codes =
    let rows_total = rows_of node in
    List.concat_map
      (fun idx ->
        incr checks;
        metric "recovery.checks";
        let u = units.Unit_gen.units.(idx) in
        let rows = u.Unit_gen.row_hi - u.Unit_gen.row_lo in
        let cols = u.Unit_gen.col_hi - u.Unit_gen.col_lo in
        let block = Array.make (rows * cols) 0 in
        for c = 0 to cols - 1 do
          for r = 0 to rows - 1 do
            block.((c * rows) + r) <-
              codes.(((u.Unit_gen.col_lo + c) * rows_total) + (u.Unit_gen.row_lo + r))
          done
        done;
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
          let attempt = ref 0 in
          while !mismatches <> [] && !attempt < policy.max_retries && not (expired ()) do
            let backoff = policy.backoff_s *. (2. ** float_of_int !attempt) in
            backoff_total := !backoff_total +. backoff;
            policy.sleep backoff;
            incr retries;
            metric "recovery.retries";
            push (Retried { node; attempt = !attempt; backoff_s = backoff });
            List.iter
              (fun (m : Abft.mismatch) ->
                List.iter
                  (fun b -> if b.site.Inject.transient then b.cleared <- true)
                  (sites_of_unit m.Abft.unit_index))
              !mismatches;
            incr attempt;
            codes := read_layer node;
            mismatches := verify_layer node !codes
          done;
          (* Stage 2: remap — retire the faulty core and repair the plan
             so the unit's weights are reprogrammed on spare capacity. *)
          while
            !mismatches <> [] && policy.allow_remap && !remaps < policy.max_remaps
            && not (expired ())
          do
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
  let is_weighted = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.add is_weighted n ()) units.Unit_gen.layer_units;
  let input_node =
    match Graph.entry_nodes model with
    | [ n ] -> n
    | _ -> invalid_arg "Recovery.run: expected exactly one input"
  in
  let dequant node codes = Quant.dequantize (Hashtbl.find spec_of node) codes in
  (* Execute the model with a per-layer code source; reference and healed
     runs share this path so identical codes give bit-identical outputs. *)
  let execute codes_for =
    let exec_weights : Executor.weights = Hashtbl.create 16 in
    let tensors : (Graph.node, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.add tensors input_node input;
    List.iter
      (fun v ->
        if v <> input_node then begin
          if Hashtbl.mem is_weighted v then
            Hashtbl.replace exec_weights v (dequant v (codes_for v));
          let inputs =
            List.map
              (fun u ->
                match Hashtbl.find_opt tensors u with
                | Some t -> t
                | None ->
                  invalid_arg
                    (Printf.sprintf "Recovery: node %d needs %d before it is available" v u))
              (Graph.preds model v)
          in
          Hashtbl.add tensors v (Executor.apply_node model exec_weights v inputs)
        end)
      (Graph.topo_order model);
    let exit_node =
      match Graph.exit_nodes model with
      | [ n ] -> n
      | _ -> invalid_arg "Recovery.run: expected exactly one output"
    in
    match Hashtbl.find_opt tensors exit_node with
    | Some t -> t
    | None -> invalid_arg "Recovery.run: output never produced"
  in
  let reference = execute (fun node -> Hashtbl.find clean_codes node) in
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
    output;
    reference;
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
