type energy_model = {
  activate_j : float;
  read_burst_j : float;
  write_burst_j : float;
  refresh_j : float;
  background_w : float;
}

let default_energy =
  {
    activate_j = 2e-9;
    read_burst_j = 9e-9;
    write_burst_j = 10e-9;
    refresh_j = 50e-9;
    background_w = 0.1;
  }

type stats = {
  cycles : int;
  seconds : float;
  bytes : float;
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
  activates : int;
  refreshes : int;
  bus_stall_cycles : int;
  energy_j : float;
  background_j : float;
}

let row_hit_rate s =
  let total = s.row_hits + s.row_misses in
  if total = 0 then 0. else float_of_int s.row_hits /. float_of_int total

let effective_bandwidth s = if s.seconds <= 0. then 0. else s.bytes /. s.seconds

type cursor = {
  timing : Timing.t;
  banks : Bank.t array;
  mutable now : int;  (* command-issue cursor *)
  mutable data_bus_free : int;
  mutable last_data_end : int;
  mutable next_refresh : int;
  mutable reads : int;
  mutable writes : int;
  mutable row_hits : int;
  mutable row_misses : int;
  mutable activates : int;
  mutable refreshes : int;
  mutable bus_stall_cycles : int;
}

let create_cursor timing =
  {
    timing;
    banks = Array.init timing.Timing.banks (fun _ -> Bank.create timing);
    now = 0;
    data_bus_free = 0;
    last_data_end = 0;
    next_refresh = timing.Timing.trefi;
    reads = 0;
    writes = 0;
    row_hits = 0;
    row_misses = 0;
    activates = 0;
    refreshes = 0;
    bus_stall_cycles = 0;
  }

let row_bursts g = g.Timing.row_bytes / Timing.burst_bytes g

(* Row-interleaved address mapping: sequential bursts stream across a row,
   then move to the next bank; rows change only every banks*row_bursts
   bursts. *)
let locate cur burst_index =
  let g = cur.timing in
  let n = row_bursts g in
  let bank = burst_index / n mod g.Timing.banks in
  let row = burst_index / (n * g.Timing.banks) in
  (bank, row)

let refresh_if_due cur =
  let g = cur.timing in
  if cur.now >= cur.next_refresh then begin
    let until = cur.next_refresh + g.Timing.trfc in
    Array.iter (fun b -> Bank.block_until b until) cur.banks;
    cur.refreshes <- cur.refreshes + 1;
    cur.next_refresh <- cur.next_refresh + g.Timing.trefi
  end

let burst cur ~bank ~row ~write =
  refresh_if_due cur;
  let g = cur.timing in
  let outcome = Bank.access cur.banks.(bank) ~now:cur.now ~row ~write in
  if outcome.Bank.row_hit then cur.row_hits <- cur.row_hits + 1
  else cur.row_misses <- cur.row_misses + 1;
  if outcome.Bank.activated then cur.activates <- cur.activates + 1;
  if write then cur.writes <- cur.writes + 1 else cur.reads <- cur.reads + 1;
  let data_start = Int.max outcome.Bank.data_cycle cur.data_bus_free in
  (* Cycles the burst's data sat ready behind an occupied data bus. *)
  cur.bus_stall_cycles <- cur.bus_stall_cycles + (data_start - outcome.Bank.data_cycle);
  let data_end = data_start + Timing.burst_cycles g in
  cur.data_bus_free <- data_end;
  cur.last_data_end <- Int.max cur.last_data_end data_end;
  (* Next command may issue while this data moves; banks stay the limiter. *)
  cur.now <- Int.max cur.now outcome.Bank.issue_cycle

(* After a [burst] step in [bank] that issued at [s = cur.now], the bank is
   ready at [s + bc] and the data bus frees at [s + cas + bc] or later.  Each
   further hit in the open row then issues [bc] cycles after the last and
   waits the same [d = data_bus_free - bc - s - cas] cycles for the bus, so
   up to [n] of them apply in one step: as many as issue before the next
   refresh deadline.  Returns how many were applied. *)
let hits cur bank ~write n =
  let g = cur.timing in
  let bc = Timing.burst_cycles g in
  let s = cur.now in
  let m = Int.min n (Int.max 0 ((cur.next_refresh - s + bc - 1) / bc)) in
  if m > 0 then begin
    let cas = if write then g.Timing.cwl else g.Timing.cl in
    let d = cur.data_bus_free - bc - s - cas in
    cur.now <- s + (bc * m);
    cur.data_bus_free <- cur.data_bus_free + (bc * m);
    cur.last_data_end <- Int.max cur.last_data_end cur.data_bus_free;
    cur.bus_stall_cycles <- cur.bus_stall_cycles + (m * d);
    cur.row_hits <- cur.row_hits + m;
    if write then cur.writes <- cur.writes + m else cur.reads <- cur.reads + m;
    Bank.set_ready cur.banks.(bank) (cur.now + bc)
  end;
  m

(* Last burst, up to [last], of the run starting at [b]: the end of its row. *)
let run_end cur b last =
  let n = row_bursts cur.timing in
  Int.min last ((((b / n) + 1) * n) - 1)

(* Bursts [first..last] of one record, one run at a time: the run's first
   burst, and any burst that finds a refresh due, take the [burst] step;
   the hits between them take [hits]. *)
let replay_runs cur ~write first last =
  let b = ref first in
  while !b <= last do
    let e = run_end cur !b last in
    let bank, row = locate cur !b in
    burst cur ~bank ~row ~write;
    incr b;
    while !b <= e do
      b := !b + hits cur bank ~write (e - !b + 1);
      if !b <= e then begin
        burst cur ~bank ~row ~write;
        incr b
      end
    done
  done

let replay_bursts cur ~write first last =
  for b = first to last do
    let bank, row = locate cur b in
    burst cur ~bank ~row ~write
  done

let replay step ~timing ~energy records =
  let cur = create_cursor timing in
  let burst_sz = Timing.burst_bytes timing in
  let record (r : Trace.record) =
    if float_of_int (r.Trace.addr + r.Trace.bytes) > timing.Timing.capacity_bytes then
      invalid_arg "Controller.run: record beyond device capacity";
    step cur ~write:(r.Trace.kind = Trace.Write) (r.Trace.addr / burst_sz)
      ((r.Trace.addr + r.Trace.bytes - 1) / burst_sz)
  in
  List.iter record records;
  let cycles = cur.last_data_end in
  let seconds = Timing.cycles_to_seconds timing cycles in
  let bytes = Trace.total_bytes records in
  let dynamic =
    (float_of_int cur.activates *. energy.activate_j)
    +. (float_of_int cur.reads *. energy.read_burst_j)
    +. (float_of_int cur.writes *. energy.write_burst_j)
    +. (float_of_int cur.refreshes *. energy.refresh_j)
  in
  let background_j = seconds *. energy.background_w in
  if Compass_util.Metrics.enabled () then begin
    let m = Compass_util.Metrics.add in
    m "dram.reads" cur.reads;
    m "dram.writes" cur.writes;
    m "dram.row_hits" cur.row_hits;
    m "dram.row_misses" cur.row_misses;
    m "dram.activates" cur.activates;
    m "dram.refreshes" cur.refreshes;
    m "dram.bus_stall_cycles" cur.bus_stall_cycles
  end;
  {
    cycles;
    seconds;
    bytes;
    reads = cur.reads;
    writes = cur.writes;
    row_hits = cur.row_hits;
    row_misses = cur.row_misses;
    activates = cur.activates;
    refreshes = cur.refreshes;
    bus_stall_cycles = cur.bus_stall_cycles;
    energy_j = dynamic +. background_j;
    background_j;
  }

let run ?(timing = Timing.lpddr3_1600) ?(energy = default_energy) records =
  replay replay_runs ~timing ~energy records

let run_reference ?(timing = Timing.lpddr3_1600) ?(energy = default_energy) records =
  replay replay_bursts ~timing ~energy records
