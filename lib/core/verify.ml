type violation =
  | Batch_mismatch of { plan_batch : int; perf_batch : int }
  | Coverage of { expected_units : int; covered_units : int }
  | Span_sequence of { index : int; expected : (int * int) option; actual : (int * int) option }
  | Io_span_mismatch of { span : int * int; io_start : int; io_stop : int }
  | Replication_underflow of { span : int * int; layer : string; count : int }
  | Foreign_replication of { span : int * int; layer : string }
  | Tile_accounting of { span : int * int; placed : int; required : int }
  | Core_count_mismatch of { span : int * int; got : int; expected : int }
  | Dead_core_used of { span : int * int; core : int; tiles : int }
  | Core_overcapacity of { span : int * int; core : int; tiles : int; capacity : int }
  | Chip_overcapacity of { span : int * int; tiles : int; capacity : int }
  | Unplaceable_span of { span : int * int; reason : string }
  | Dataflow_order of { span : int * int; tensor : string; producer_home : int }
  | Endurance_accounting of { field : string; reported : float; recomputed : float }
  | Endurance_budget_exceeded of { budget : float; worst_writes_per_batch : int }

(* Total: a plan under verification may reference node ids the model does
   not contain (that is itself a violation), so render those as [#id]
   rather than letting [Graph.layer] raise out of [check]. *)
let node_name model n =
  match Compass_nn.Graph.layer model n with
  | l -> l.Compass_nn.Layer.name
  | exception Invalid_argument _ -> Printf.sprintf "#%d" n

(* Effective per-core macro capacities, straight from the fault scenario
   (or the nominal chip) — not from the mapping stack. *)
let capacities chip faults =
  let nominal = chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core in
  match faults with
  | None -> Array.make chip.Compass_arch.Config.cores nominal
  | Some f -> Compass_arch.Fault.capacities f ~macros_per_core:nominal

(* The verifier's own placement check: place every replicated unit of the
   span, whole, onto the first core with room (units are the minimum
   mapping granularity, so a unit never splits across cores), taking the
   units in decreasing tile order.  Decreasing order matters for soundness,
   not just quality: equal-sized items are interchangeable, so this
   succeeds on every instance the compiler's own decreasing-order packer
   can place — a failure here is a genuine infeasibility of that
   placement discipline, not an artifact of a weaker ordering.  This is an
   independent re-implementation — it shares no code with [Mapping]. *)
let first_fit_pack ~units ~caps ~rep_of (a, b) =
  let items = ref [] in
  for i = a to b - 1 do
    let u = units.(i) in
    for _copy = 1 to rep_of u.Unit_gen.layer do
      items := (u.Unit_gen.tiles, i) :: !items
    done
  done;
  let items = List.sort (fun (ta, _) (tb, _) -> compare tb ta) !items in
  let free = Array.copy caps in
  let failure = ref None in
  (try
     List.iter
       (fun (tiles, i) ->
         let placed = ref false in
         let c = ref 0 in
         while (not !placed) && !c < Array.length free do
           if free.(!c) >= tiles then begin
             free.(!c) <- free.(!c) - tiles;
             placed := true
           end;
           incr c
         done;
         if not !placed then begin
           failure :=
             Some
               (Printf.sprintf "unit %d (%d tiles) fits no core with room left" i tiles);
           raise Exit
         end)
       items
   with Exit -> ());
  !failure

(* Endurance re-accumulation from the per-span placement evidence: every
   placed tile is one macro programming per batch, and first-fit fills a
   core's macro slots from 0, so slot [s] of core [c] is rewritten by
   every span placing more than [s] tiles on [c]. *)
let recompute_endurance chip ~batch spans =
  let ncores = chip.Compass_arch.Config.cores in
  let nominal = chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core in
  let slot_writes = Array.make_matrix ncores (max 1 nominal) 0 in
  let total = ref 0 in
  List.iter
    (fun (sp : Estimator.span_perf) ->
      Array.iteri
        (fun c used ->
          if c < ncores then begin
            total := !total + used;
            for slot = 0 to min used nominal - 1 do
              slot_writes.(c).(slot) <- slot_writes.(c).(slot) + 1
            done
          end)
        sp.Estimator.tiles_per_core)
    spans;
  let worst = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 slot_writes in
  let fbatch = float_of_int batch in
  (!total, worst, float_of_int !total /. fbatch, float_of_int worst /. fbatch)

let check (plan : Compiler.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  let units = plan.Compiler.units in
  let chip = plan.Compiler.chip in
  let model = plan.Compiler.model in
  let m = Unit_gen.unit_count units in
  let perf = plan.Compiler.perf in
  let caps = capacities chip plan.Compiler.faults in
  let chip_capacity = Array.fold_left ( + ) 0 caps in
  (* Whole-plan checks. *)
  if perf.Estimator.batch <> plan.Compiler.batch then
    add
      (Batch_mismatch
         { plan_batch = plan.Compiler.batch; perf_batch = perf.Estimator.batch });
  let covered = Partition.total_units plan.Compiler.group in
  if covered <> m then add (Coverage { expected_units = m; covered_units = covered });
  (* The perf record must list exactly the group's partitions, in order. *)
  let group_spans = Partition.spans plan.Compiler.group in
  let rec align i gs (ps : Estimator.span_perf list) =
    match (gs, ps) with
    | [], [] -> []
    | g :: gs', p :: ps' ->
      let expected = (g.Partition.start_, g.Partition.stop) in
      let actual = (p.Estimator.start_, p.Estimator.stop) in
      if expected <> actual then
        add (Span_sequence { index = i; expected = Some expected; actual = Some actual });
      (* Keep checking the claimed span against its own evidence either way. *)
      p :: align (i + 1) gs' ps'
    | g :: gs', [] ->
      add
        (Span_sequence
           {
             index = i;
             expected = Some (g.Partition.start_, g.Partition.stop);
             actual = None;
           });
      align (i + 1) gs' []
    | [], p :: ps' ->
      add
        (Span_sequence
           {
             index = i;
             expected = None;
             actual = Some (p.Estimator.start_, p.Estimator.stop);
           });
      p :: align (i + 1) [] ps'
  in
  let spans_to_check = align 0 group_spans perf.Estimator.spans in
  (* Per-span checks, each against the span the perf record claims. *)
  List.iter
    (fun (sp : Estimator.span_perf) ->
      let a, b = (sp.Estimator.start_, sp.Estimator.stop) in
      let span = (a, b) in
      let in_range = a >= 0 && a < b && b <= m in
      if not in_range then
        add (Unplaceable_span { span; reason = "span outside the unit decomposition" })
      else begin
        let io = sp.Estimator.io in
        if io.Dataflow.start_ <> a || io.Dataflow.stop <> b then
          add
            (Io_span_mismatch
               { span; io_start = io.Dataflow.start_; io_stop = io.Dataflow.stop });
        (* Replication consistency: counts >= 1, and only for layers that
           actually own a unit inside the span. *)
        let rep = sp.Estimator.replication in
        (* Unit range of a weighted node, from the decomposition data
           ([None] for nodes without units). *)
        let unit_range l =
          match List.assoc_opt l units.Unit_gen.layer_units with
          | Some (lo :: _ as idxs) -> Some (lo, List.fold_left max lo idxs)
          | Some [] | None -> None
        in
        let layer_in_span l =
          match unit_range l with
          | Some (lo, hi) -> lo < b && hi >= a
          | None -> false
        in
        List.iter
          (fun (l, r) ->
            if r < 1 then
              add (Replication_underflow { span; layer = node_name model l; count = r });
            if not (layer_in_span l) then
              add (Foreign_replication { span; layer = node_name model l }))
          rep.Replication.per_layer;
        let rep_of l =
          match List.assoc_opt l rep.Replication.per_layer with
          | Some r -> max r 1
          | None -> 1
        in
        (* Tile accounting: the placed totals must equal the replicated
           demand of the span's units. *)
        let required = ref 0 in
        for i = a to b - 1 do
          let u = units.Unit_gen.units.(i) in
          required := !required + (u.Unit_gen.tiles * rep_of u.Unit_gen.layer)
        done;
        let placed = Array.fold_left ( + ) 0 sp.Estimator.tiles_per_core in
        if placed <> !required then
          add (Tile_accounting { span; placed; required = !required });
        (* Per-core and whole-chip effective capacity. *)
        if Array.length sp.Estimator.tiles_per_core <> chip.Compass_arch.Config.cores then
          add
            (Core_count_mismatch
               {
                 span;
                 got = Array.length sp.Estimator.tiles_per_core;
                 expected = chip.Compass_arch.Config.cores;
               })
        else
          Array.iteri
            (fun c tiles ->
              if tiles < 0 || tiles > caps.(c) then
                if
                  tiles > 0
                  && (match plan.Compiler.faults with
                     | Some f -> Compass_arch.Fault.status f c = Compass_arch.Fault.Dead
                     | None -> false)
                then add (Dead_core_used { span; core = c; tiles })
                else add (Core_overcapacity { span; core = c; tiles; capacity = caps.(c) }))
            sp.Estimator.tiles_per_core;
        if placed > chip_capacity then
          add (Chip_overcapacity { span; tiles = placed; capacity = chip_capacity });
        (* Independent placeability of the replicated span. *)
        (match first_fit_pack ~units:units.Unit_gen.units ~caps ~rep_of span with
        | None -> ()
        | Some reason -> add (Unplaceable_span { span; reason }));
        (* Pipelined-dataflow legality.  Loads carry the fraction of a
           producer missing from the span; the forward pipeline is acyclic
           iff that fraction comes from {e earlier} units only — a
           weighted producer must place no unit at or past the span end,
           an attached producer must be anchored strictly before the span
           (model inputs always stream from DRAM and are exempt).  Stores
           are only legal for tensors the span actually produces: the
           producer's units (or anchor) must intersect the span. *)
        List.iter
          (fun (producer, _bytes) ->
            if not (Dataflow.is_model_input plan.Compiler.ctx producer) then begin
              let home = Dataflow.home_unit plan.Compiler.ctx producer in
              let legal =
                match unit_range producer with
                | Some (_, hi) -> hi < b
                | None -> home < a
              in
              if not legal then
                add
                  (Dataflow_order
                     { span; tensor = node_name model producer; producer_home = home })
            end)
          io.Dataflow.loads;
        List.iter
          (fun (producer, _bytes) ->
            let home = Dataflow.home_unit plan.Compiler.ctx producer in
            let legal =
              match unit_range producer with
              | Some (lo, hi) -> lo < b && hi >= a
              | None -> home >= a && home < b
            in
            if not legal then
              add
                (Dataflow_order
                   { span; tensor = node_name model producer; producer_home = home }))
          io.Dataflow.stores
      end)
    spans_to_check;
  (* Endurance accounting over the whole plan. *)
  let total, worst, per_inf, max_per_inf =
    recompute_endurance chip ~batch:plan.Compiler.batch spans_to_check
  in
  let e = perf.Estimator.endurance in
  let check_f field reported recomputed =
    if reported <> recomputed then add (Endurance_accounting { field; reported; recomputed })
  in
  check_f "macro_writes_per_batch"
    (float_of_int e.Estimator.macro_writes_per_batch)
    (float_of_int total);
  check_f "writes_per_inference" e.Estimator.writes_per_inference per_inf;
  check_f "max_writes_per_macro_per_inference"
    e.Estimator.max_writes_per_macro_per_inference max_per_inf;
  (match Option.bind plan.Compiler.faults Compass_arch.Fault.endurance_budget with
  | Some budget ->
    if float_of_int worst > budget then
      add (Endurance_budget_exceeded { budget; worst_writes_per_batch = worst });
    (match e.Estimator.projected_lifetime_inferences with
    | Some reported when max_per_inf > 0. ->
      check_f "projected_lifetime_inferences" reported (budget /. max_per_inf)
    | _ -> ())
  | None -> ());
  List.rev !out

let span_str (a, b) = Printf.sprintf "[%d,%d)" a b

let render_violation = function
  | Batch_mismatch { plan_batch; perf_batch } ->
    Printf.sprintf "plan compiled for batch %d but evaluated at batch %d" plan_batch
      perf_batch
  | Coverage { expected_units; covered_units } ->
    Printf.sprintf "partition group covers %d units, decomposition has %d" covered_units
      expected_units
  | Span_sequence { index; expected; actual } ->
    let show = function None -> "missing" | Some s -> span_str s in
    Printf.sprintf "span %d: group says %s, perf record says %s" index (show expected)
      (show actual)
  | Io_span_mismatch { span; io_start; io_stop } ->
    Printf.sprintf "span %s: IO record describes %s" (span_str span)
      (span_str (io_start, io_stop))
  | Replication_underflow { span; layer; count } ->
    Printf.sprintf "span %s: layer %s replicated %d times (must be >= 1)" (span_str span)
      layer count
  | Foreign_replication { span; layer } ->
    Printf.sprintf "span %s: replication assigned to layer %s which has no unit in the span"
      (span_str span) layer
  | Tile_accounting { span; placed; required } ->
    Printf.sprintf "span %s: %d tiles placed but the replicated units need %d"
      (span_str span) placed required
  | Core_count_mismatch { span; got; expected } ->
    Printf.sprintf "span %s: placement lists %d cores, chip has %d" (span_str span) got
      expected
  | Dead_core_used { span; core; tiles } ->
    Printf.sprintf "span %s: %d tiles placed on dead core %d" (span_str span) tiles core
  | Core_overcapacity { span; core; tiles; capacity } ->
    Printf.sprintf "span %s: core %d holds %d tiles but only %d are usable"
      (span_str span) core tiles capacity
  | Chip_overcapacity { span; tiles; capacity } ->
    Printf.sprintf "span %s: %d tiles placed, chip has %d usable" (span_str span) tiles
      capacity
  | Unplaceable_span { span; reason } ->
    Printf.sprintf "span %s: no placement exists: %s" (span_str span) reason
  | Dataflow_order { span; tensor; producer_home } ->
    Printf.sprintf
      "span %s: tensor %s (anchored at unit %d) breaks the forward pipeline order"
      (span_str span) tensor producer_home
  | Endurance_accounting { field; reported; recomputed } ->
    Printf.sprintf "endurance %s: plan reports %.17g, evidence gives %.17g" field reported
      recomputed
  | Endurance_budget_exceeded { budget; worst_writes_per_batch } ->
    Printf.sprintf
      "endurance budget %.17g exceeded: most-rewritten macro takes %d writes per batch"
      budget worst_writes_per_batch

let render = function
  | [] -> "plan satisfies all verifier invariants"
  | vs ->
    String.concat "\n"
      (Printf.sprintf "%d violation(s):" (List.length vs)
      :: List.map (fun v -> "  " ^ render_violation v) vs)

