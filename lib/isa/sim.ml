open Compass_arch

type fault_event = {
  at_s : float;
  victim : int;
}

let fail_stop ~at_s ~victim = { at_s; victim }

type event = {
  core : int;
  label : string;
  start_s : float;
  finish_s : float;
}

type result = {
  makespan_s : float;
  core_finish_s : (int * float) list;
  bus_busy_s : float;
  dram_trace : Compass_dram.Trace.record list;
  mvm_macro_ops : float;
  vfu_ops : float;
  weight_bytes : float;
  load_bytes : float;
  store_bytes : float;
  energy_components : (string * float) list;
  energy_j : float;
  events : event list;
  dead_cores : int list;
  dropped_instructions : int;
  checks_run : int;
}

exception Deadlock of string

let label_of = function
  | Instr.Weight_write _ -> "weight_write"
  | Instr.Load _ -> "load"
  | Instr.Store _ -> "store"
  | Instr.Mvm _ -> "mvm"
  | Instr.Vfu _ -> "vfu"
  | Instr.Send _ -> "send"
  | Instr.Recv _ -> "recv"
  | Instr.Sync _ -> "sync"
  | Instr.Check _ -> "check"

type core_state = {
  id : int;
  mutable time : float;
  mutable rest : Instr.t list;
  mutable dead : bool;
}

type barrier = {
  mutable arrived : (int * float) list;
  mutable released : float option;
}

type shared = {
  chip : Config.chip;
  mutable bus_free : float;
  mutable bus_busy : float;
  mutable dram_free : float;
  channels : (int * int * int, float Queue.t) Hashtbl.t; (* channel, src, dst *)
  barriers : (int, barrier) Hashtbl.t;
  mutable trace_rev : Compass_dram.Trace.record list;
  mutable mvm_macro_ops : float;
  mutable vfu_ops : float;
  mutable weight_bytes : float;
  mutable load_bytes : float;
  mutable store_bytes : float;
  mutable checks_run : int;
}

(* [Stdlib.max] specialised to floats: the same comparison (NaN and signed
   zeros included), without the polymorphic compare on boxed values. *)
let fmax (a : float) b = if a >= b then a else b

(* Acquire the bus at or after [t] for a transfer of [bytes]; returns the
   grant time and transfer duration. *)
let bus_acquire shared ~t ~bytes =
  let grant = fmax t shared.bus_free in
  let dur = Interconnect.transfer_time_s shared.chip.Config.bus ~bytes in
  shared.bus_free <- grant +. dur;
  shared.bus_busy <- shared.bus_busy +. dur;
  (grant, dur)

(* A bus + DRAM transfer: the two resources pipeline for one request but
   each serializes across requests, so a transfer occupies both cursors. *)
let external_transfer shared ~t ~bytes ~addr ~tag ~is_store =
  let record =
    if is_store then Compass_dram.Trace.write ~tag ~addr ~bytes:(int_of_float bytes) ()
    else Compass_dram.Trace.read ~tag ~addr ~bytes:(int_of_float bytes) ()
  in
  shared.trace_rev <- record :: shared.trace_rev;
  let grant, bus_dur = bus_acquire shared ~t ~bytes in
  let dram_dur = Compass_dram.Dram.analytic_seconds bytes in
  let dram_grant = fmax grant shared.dram_free in
  let dram_done = dram_grant +. dram_dur in
  shared.dram_free <- dram_done;
  fmax (grant +. bus_dur) dram_done

type step =
  | Done of float
  | Blocked

let execute shared core instr =
  let chip = shared.chip in
  let xbar = chip.Config.crossbar in
  match instr with
  | Instr.Weight_write { macro_count; bytes; addr; tag } ->
    (* Replica-only writers fetch nothing (broadcast): program time only. *)
    let fetched =
      if bytes >= 1. then begin
        shared.weight_bytes <- shared.weight_bytes +. bytes;
        external_transfer shared ~t:core.time ~bytes ~addr ~tag ~is_store:false
      end
      else core.time
    in
    (* Row programming streams behind the fetch; macros of a core program
       serially, so the drain is the full per-macro write time. *)
    let program = float_of_int macro_count *. Crossbar.write_latency_s xbar in
    Done (fmax fetched (core.time +. program))
  | Instr.Load { bytes; addr; tag } ->
    if bytes < 1. then Done core.time
    else begin
      shared.load_bytes <- shared.load_bytes +. bytes;
      Done (external_transfer shared ~t:core.time ~bytes ~addr ~tag ~is_store:false)
    end
  | Instr.Store { bytes; addr; tag } ->
    if bytes < 1. then Done core.time
    else begin
      shared.store_bytes <- shared.store_bytes +. bytes;
      Done (external_transfer shared ~t:core.time ~bytes ~addr ~tag ~is_store:true)
    end
  | Instr.Mvm { count; tiles; tag = _ } ->
    if count < 0 || tiles <= 0 then invalid_arg "Sim: bad mvm payload";
    shared.mvm_macro_ops <- shared.mvm_macro_ops +. float_of_int (count * tiles);
    Done (core.time +. (float_of_int count *. xbar.Crossbar.mvm_latency_s))
  | Instr.Vfu { ops } ->
    if ops < 0 then invalid_arg "Sim: negative vfu ops";
    shared.vfu_ops <- shared.vfu_ops +. float_of_int ops;
    let lanes = float_of_int chip.Config.core.Config.vfus_per_core in
    let cycles = float_of_int ops /. lanes in
    Done (core.time +. (cycles /. chip.Config.core.Config.clock_hz))
  | Instr.Check { ops; tag = _ } ->
    if ops < 0 then invalid_arg "Sim: negative check ops";
    shared.vfu_ops <- shared.vfu_ops +. float_of_int ops;
    shared.checks_run <- shared.checks_run + 1;
    let lanes = float_of_int chip.Config.core.Config.vfus_per_core in
    let cycles = float_of_int ops /. lanes in
    Done (core.time +. (cycles /. chip.Config.core.Config.clock_hz))
  | Instr.Send { bytes; dst; channel } ->
    let grant, dur = bus_acquire shared ~t:core.time ~bytes in
    let arrival = grant +. dur in
    let key = (channel, core.id, dst) in
    let q =
      match Hashtbl.find_opt shared.channels key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add shared.channels key q;
        q
    in
    Queue.add arrival q;
    Done arrival
  | Instr.Recv { bytes = _; src; channel } -> (
    let key = (channel, src, core.id) in
    match Hashtbl.find_opt shared.channels key with
    | Some q when not (Queue.is_empty q) ->
      let arrival = Queue.pop q in
      Done (fmax core.time arrival)
    | Some _ | None -> Blocked)
  | Instr.Sync { token; parties } -> (
    let b =
      match Hashtbl.find_opt shared.barriers token with
      | Some b -> b
      | None ->
        let b = { arrived = []; released = None } in
        Hashtbl.add shared.barriers token b;
        b
    in
    match b.released with
    | Some release -> Done (fmax core.time release)
    | None ->
      if not (List.mem_assoc core.id b.arrived) then
        b.arrived <- (core.id, core.time) :: b.arrived;
      if List.length b.arrived >= parties then begin
        let release = List.fold_left (fun acc (_, t) -> fmax acc t) 0. b.arrived in
        b.released <- Some release;
        Done (fmax core.time release)
      end
      else Blocked)

(* A fail-stopped core loses its remaining work but must not wedge the
   chip: barriers still count it, sends deliver (empty) tokens at local
   time so receivers unblock, receives consume tokens for free; compute
   and memory instructions are skipped at zero cost and counted. *)
let execute_dead shared core instr =
  match instr with
  | Instr.Sync _ -> (execute shared core instr, false)
  | Instr.Send { bytes = _; dst; channel } ->
    let key = (channel, core.id, dst) in
    let q =
      match Hashtbl.find_opt shared.channels key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add shared.channels key q;
        q
    in
    Queue.add core.time q;
    (Done core.time, true)
  | Instr.Recv { bytes = _; src; channel } -> (
    let key = (channel, src, core.id) in
    match Hashtbl.find_opt shared.channels key with
    | Some q when not (Queue.is_empty q) ->
      ignore (Queue.pop q);
      (Done core.time, true)
    | Some _ | None -> (Blocked, true))
  | Instr.Weight_write _ | Instr.Load _ | Instr.Store _ | Instr.Mvm _ | Instr.Vfu _
  | Instr.Check _ ->
    (Done core.time, true)

let run ?(fault_events = []) chip programs =
  (match Program.validate ~cores:chip.Config.cores programs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sim.run: " ^ msg));
  let kill_time = Hashtbl.create 4 in
  List.iteri
    (fun i e ->
      if e.at_s < 0. then
        invalid_arg
          (Printf.sprintf "Sim.run: fault event #%d has negative time %g s" i e.at_s);
      if e.victim < 0 || e.victim >= chip.Config.cores then
        invalid_arg
          (Printf.sprintf
             "Sim.run: fault event #%d targets core %d but the chip has cores 0..%d" i
             e.victim (chip.Config.cores - 1));
      match Hashtbl.find_opt kill_time e.victim with
      | Some t when t <= e.at_s -> ()
      | _ -> Hashtbl.replace kill_time e.victim e.at_s)
    fault_events;
  let shared =
    {
      chip;
      bus_free = 0.;
      bus_busy = 0.;
      dram_free = 0.;
      channels = Hashtbl.create 64;
      barriers = Hashtbl.create 16;
      trace_rev = [];
      mvm_macro_ops = 0.;
      vfu_ops = 0.;
      weight_bytes = 0.;
      load_bytes = 0.;
      store_bytes = 0.;
      checks_run = 0;
    }
  in
  let cores =
    Array.of_list
      (List.map
         (fun p -> { id = p.Program.core_id; time = 0.; rest = p.Program.instrs; dead = false })
         programs)
  in
  let n = Array.length cores in
  let position = Array.make chip.Config.cores 0 in
  Array.iteri (fun i c -> position.(c.id) <- i) cores;
  (* A core is ready while it has work and is not parked.  A core whose
     head instruction blocked is parked: its local time cannot change and
     retrying it does nothing until a send on its channel or the release
     of its barrier, which mark it ready again. *)
  let has_work c = match c.rest with [] -> false | _ :: _ -> true in
  let ready = Array.map has_work cores in
  let wake_receiver ~src ~dst ~channel =
    let i = position.(dst) in
    match cores.(i).rest with
    | Instr.Recv { src = s; channel = c; bytes = _ } :: _ when s = src && c = channel ->
      ready.(i) <- true
    | _ -> ()
  in
  let wake_barrier token =
    for i = 0 to n - 1 do
      match cores.(i).rest with
      | Instr.Sync { token = t; parties = _ } :: _ when t = token -> ready.(i) <- true
      | _ -> ()
    done
  in
  let events_rev = ref [] in
  let dropped = ref 0 in
  let rec drain () =
    (* The earliest ready core runs next, the first in program order on
       ties.  A chip has few cores, so a linear scan finds it. *)
    let next = ref (-1) in
    for i = 0 to n - 1 do
      if ready.(i) && (!next < 0 || Float.compare cores.(i).time cores.(!next).time < 0)
      then next := i
    done;
    let i = !next in
    if i >= 0 then begin
      let core = cores.(i) in
      (match core.rest with
      | [] -> ready.(i) <- false
      | instr :: rest -> (
        if not core.dead then (
          match Hashtbl.find_opt kill_time core.id with
          | Some at when at <= core.time -> core.dead <- true
          | Some _ | None -> ());
        let step, lost =
          if core.dead then execute_dead shared core instr
          else (execute shared core instr, false)
        in
        match step with
        | Done t -> (
          if lost then incr dropped;
          events_rev :=
            { core = core.id; label = label_of instr; start_s = core.time; finish_s = t }
            :: !events_rev;
          core.time <- t;
          core.rest <- rest;
          ready.(i) <- has_work core;
          match instr with
          | Instr.Send { dst; channel; bytes = _ } -> wake_receiver ~src:core.id ~dst ~channel
          | Instr.Sync { token; parties = _ } -> wake_barrier token
          | Instr.Weight_write _ | Instr.Load _ | Instr.Store _ | Instr.Mvm _ | Instr.Vfu _
          | Instr.Recv _ | Instr.Check _ ->
            ())
        | Blocked -> ready.(i) <- false));
      drain ()
    end
    else if Array.exists has_work cores then raise (Deadlock "no core can make progress")
  in
  drain ();
  (* Instruction counters are derived from the event log after the drain —
     one flush per run, nothing on the per-instruction hot path. *)
  if Compass_util.Metrics.enabled () then begin
    let per_core = Hashtbl.create 16 and per_label = Hashtbl.create 8 in
    let bump tbl key =
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    List.iter
      (fun e ->
        bump per_core e.core;
        bump per_label e.label)
      !events_rev;
    Compass_util.Metrics.add "sim.instrs" (List.length !events_rev);
    Hashtbl.iter
      (fun c n -> Compass_util.Metrics.add (Printf.sprintf "sim.core.%d.instrs" c) n)
      per_core;
    Hashtbl.iter
      (fun label n -> Compass_util.Metrics.add ("sim.instr." ^ label) n)
      per_label;
    Compass_util.Metrics.add "sim.dropped_instructions" !dropped;
    if shared.checks_run > 0 then Compass_util.Metrics.add "sim.checks" shared.checks_run
  end;
  let makespan = Array.fold_left (fun acc c -> fmax acc c.time) 0. cores in
  let dram_trace = List.rev shared.trace_rev in
  let dram_bytes = shared.weight_bytes +. shared.load_bytes +. shared.store_bytes in
  let components =
    [
      ("mvm", Energy.mvm_j chip ~macro_ops:shared.mvm_macro_ops);
      ("vfu", Energy.vfu_j chip ~ops:shared.vfu_ops);
      ("weight_write", Energy.weight_write_j chip ~bytes:shared.weight_bytes);
      ("bus", Energy.bus_j chip ~bytes:dram_bytes);
      ("dram", Compass_dram.Dram.analytic_energy_j dram_bytes);
      ("static", Energy.static_j chip ~seconds:makespan);
    ]
  in
  {
    makespan_s = makespan;
    core_finish_s = Array.to_list (Array.map (fun c -> (c.id, c.time)) cores);
    bus_busy_s = shared.bus_busy;
    dram_trace;
    mvm_macro_ops = shared.mvm_macro_ops;
    vfu_ops = shared.vfu_ops;
    weight_bytes = shared.weight_bytes;
    load_bytes = shared.load_bytes;
    store_bytes = shared.store_bytes;
    energy_components = components;
    energy_j = List.fold_left (fun acc (_, v) -> acc +. v) 0. components;
    events = List.rev !events_rev;
    dead_cores =
      List.sort compare
        (List.filter_map (fun c -> if c.dead then Some c.id else None) (Array.to_list cores));
    dropped_instructions = !dropped;
    checks_run = shared.checks_run;
  }
