(* Tests for the LPDDR3 model: timing, bank state machine, controller,
   analytic approximations. *)

open Compass_dram

let g = Timing.lpddr3_1600

(* Timing *)

let test_burst_geometry () =
  Alcotest.(check int) "32 B bursts" 32 (Timing.burst_bytes g);
  Alcotest.(check int) "4 cycles" 4 (Timing.burst_cycles g)

let test_peak_bandwidth () =
  Alcotest.(check (float 1e6)) "6.4 GB/s" 6.4e9 (Timing.peak_bandwidth_bytes_per_s g)

let test_timing_validation () =
  Alcotest.(check bool) "zero banks" true
    (try
       ignore (Timing.make ~banks:0 ());
       false
     with Invalid_argument _ -> true);
  (* [locate] divides by row_bytes / burst_bytes (32 B here). *)
  Alcotest.(check bool) "row smaller than a burst" true
    (try
       ignore (Timing.make ~row_bytes:16 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "row not a whole number of bursts" true
    (try
       ignore (Timing.make ~row_bytes:48 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "refresh never finishes" true
    (try
       ignore (Timing.make ~trefi:50 ~trfc:100 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "refresh fills the interval" true
    (try
       ignore (Timing.make ~trefi:100 ~trfc:100 ());
       false
     with Invalid_argument _ -> true)

(* Bank *)

let test_bank_first_access_is_miss () =
  let b = Bank.create g in
  let o = Bank.access b ~now:0 ~row:3 ~write:false in
  Alcotest.(check bool) "miss" false o.Bank.row_hit;
  Alcotest.(check bool) "activated" true o.Bank.activated;
  Alcotest.(check bool) "no precharge needed" false o.Bank.precharged;
  Alcotest.(check int) "open row" 3
    (match Bank.open_row b with Some r -> r | None -> -1)

let test_bank_row_hit () =
  let b = Bank.create g in
  let first = Bank.access b ~now:0 ~row:3 ~write:false in
  let second = Bank.access b ~now:first.Bank.issue_cycle ~row:3 ~write:false in
  Alcotest.(check bool) "hit" true second.Bank.row_hit;
  Alcotest.(check bool) "hit is faster" true
    (second.Bank.data_cycle - second.Bank.issue_cycle
    < first.Bank.data_cycle - first.Bank.issue_cycle + 1)

let test_bank_conflict_precharges () =
  let b = Bank.create g in
  let _ = Bank.access b ~now:0 ~row:1 ~write:false in
  let o = Bank.access b ~now:100 ~row:2 ~write:false in
  Alcotest.(check bool) "precharged" true o.Bank.precharged;
  Alcotest.(check bool) "miss" false o.Bank.row_hit;
  (* PRE + ACT + CAS. *)
  Alcotest.(check bool) "full penalty" true
    (o.Bank.data_cycle >= 100 + g.Timing.trp + g.Timing.trcd + g.Timing.cl)

let test_bank_tras_respected () =
  let b = Bank.create g in
  let first = Bank.access b ~now:0 ~row:1 ~write:false in
  (* Immediately conflicting access: precharge cannot happen before
     activation + tRAS. *)
  let o = Bank.access b ~now:first.Bank.issue_cycle ~row:2 ~write:false in
  Alcotest.(check bool) "tRAS enforced" true
    (o.Bank.data_cycle
    >= g.Timing.tras + g.Timing.trp + g.Timing.trcd + g.Timing.cl)

let test_bank_negative_row () =
  let b = Bank.create g in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Bank.access b ~now:0 ~row:(-1) ~write:false);
       false
     with Invalid_argument _ -> true)

(* Trace *)

let test_trace_constructors () =
  let r = Trace.read ~tag:"w" ~addr:64 ~bytes:128 () in
  Alcotest.(check bool) "read kind" true (r.Trace.kind = Trace.Read);
  Alcotest.(check bool) "bad bytes" true
    (try
       ignore (Trace.write ~addr:0 ~bytes:0 ());
       false
     with Invalid_argument _ -> true)

let test_trace_totals () =
  let records =
    [ Trace.read ~addr:0 ~bytes:100 (); Trace.write ~addr:512 ~bytes:50 () ]
  in
  Alcotest.(check (float 1e-9)) "total" 150. (Trace.total_bytes records);
  Alcotest.(check (float 1e-9)) "reads" 100. (Trace.read_bytes records);
  Alcotest.(check (float 1e-9)) "writes" 50. (Trace.write_bytes records)

let test_trace_lines () =
  let lines =
    Trace.to_lines [ Trace.read ~tag:"x" ~addr:0x40 ~bytes:32 () ]
  in
  Alcotest.(check string) "format" "0x00000040 READ 32 x" lines

(* Controller *)

let test_streaming_read () =
  let stats = Dram.simulate [ Trace.read ~tag:"s" ~addr:0 ~bytes:(1 lsl 20) () ] in
  Alcotest.(check int) "32768 bursts" 32768 stats.Controller.reads;
  Alcotest.(check bool) "high row-hit rate" true (Controller.row_hit_rate stats > 0.9);
  let bw = Controller.effective_bandwidth stats in
  Alcotest.(check bool) "within peak" true (bw <= Timing.peak_bandwidth_bytes_per_s g);
  Alcotest.(check bool) "near peak for streams" true
    (bw >= 0.75 *. Timing.peak_bandwidth_bytes_per_s g)

let test_random_access_slower () =
  let rng = Compass_util.Rng.create 5 in
  let stream = [ Trace.read ~addr:0 ~bytes:(256 * 32) () ] in
  let random =
    List.init 256 (fun _ ->
        Trace.read ~addr:(Compass_util.Rng.int rng 4096 * 2048) ~bytes:32 ())
  in
  let s1 = Dram.simulate stream in
  let s2 = Dram.simulate random in
  Alcotest.(check bool) "random has more misses" true
    (Controller.row_hit_rate s2 < Controller.row_hit_rate s1);
  Alcotest.(check bool) "random is slower" true
    (Controller.effective_bandwidth s2 < Controller.effective_bandwidth s1)

let test_refresh_happens () =
  (* A long stream must cross several tREFI windows. *)
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes:(8 lsl 20) () ] in
  Alcotest.(check bool) "refreshes counted" true (stats.Controller.refreshes > 0)

let test_write_energy_higher_than_read () =
  let r = Dram.simulate [ Trace.read ~addr:0 ~bytes:65536 () ] in
  let w = Dram.simulate [ Trace.write ~addr:0 ~bytes:65536 () ] in
  Alcotest.(check bool) "write energy higher" true
    (w.Controller.energy_j > r.Controller.energy_j)

let test_capacity_guard () =
  Alcotest.(check bool) "beyond capacity" true
    (try
       ignore (Dram.simulate [ Trace.read ~addr:(1 lsl 62) ~bytes:64 () ]);
       false
     with Invalid_argument _ -> true)

let test_empty_trace () =
  let stats = Dram.simulate [] in
  Alcotest.(check int) "no cycles" 0 stats.Controller.cycles;
  Alcotest.(check (float 0.)) "hit rate zero" 0. (Controller.row_hit_rate stats)

let test_mapping_policies_agree_on_totals () =
  let trace = [ Trace.read ~addr:0 ~bytes:(512 * 1024) () ] in
  let row = Dram.simulate ~mapping:Controller.Row_interleaved trace in
  let bank = Dram.simulate ~mapping:Controller.Bank_interleaved trace in
  Alcotest.(check (float 0.)) "same bytes" row.Controller.bytes bank.Controller.bytes;
  Alcotest.(check int) "same bursts" row.Controller.reads bank.Controller.reads;
  Alcotest.(check bool) "both positive time" true
    (row.Controller.seconds > 0. && bank.Controller.seconds > 0.)

let test_bank_interleaved_helps_strided () =
  (* Row-size strides thrash a single row buffer under row-interleaving but
     rotate cleanly under bank-interleaving. *)
  let stride = g.Timing.row_bytes * g.Timing.banks in
  let records = List.init 64 (fun i -> Trace.read ~addr:(i * stride) ~bytes:32 ()) in
  let row = Dram.simulate ~mapping:Controller.Row_interleaved records in
  let bank = Dram.simulate ~mapping:Controller.Bank_interleaved records in
  Alcotest.(check bool) "row-interleaved thrashes one bank" true
    (Controller.row_hit_rate row <= Controller.row_hit_rate bank +. 1e-9);
  Alcotest.(check bool) "bank rotation is not slower" true
    (bank.Controller.seconds <= row.Controller.seconds +. 1e-9)

(* Analytic approximations vs the bank-accurate model. *)

let test_analytic_time_close () =
  let bytes = 4 lsl 20 in
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
  let analytic = Dram.analytic_seconds (float_of_int bytes) in
  let ratio = analytic /. stats.Controller.seconds in
  Alcotest.(check bool)
    (Printf.sprintf "within 30%% (ratio %.2f)" ratio)
    true
    (ratio > 0.7 && ratio < 1.3)

let test_analytic_energy_close () =
  let bytes = 4 lsl 20 in
  let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
  let analytic = Dram.analytic_energy_j (float_of_int bytes) in
  let ratio = analytic /. stats.Controller.energy_j in
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4)

let test_analytic_zero () =
  Alcotest.(check (float 0.)) "zero bytes" 0. (Dram.analytic_seconds 0.)

(* Properties *)

let prop_latency_at_least_bandwidth_bound =
  QCheck.Test.make ~name:"latency >= data-bus bound" ~count:50
    QCheck.(int_range 32 (1 lsl 22))
    (fun bytes ->
      let stats = Dram.simulate [ Trace.read ~addr:0 ~bytes () ] in
      let bursts = (bytes + 31) / 32 in
      stats.Controller.cycles >= bursts * Timing.burst_cycles g)

let prop_energy_monotone_in_bytes =
  QCheck.Test.make ~name:"energy monotone in bytes" ~count:50
    QCheck.(int_range 64 (1 lsl 20))
    (fun bytes ->
      let e1 = (Dram.simulate [ Trace.read ~addr:0 ~bytes () ]).Controller.energy_j in
      let e2 =
        (Dram.simulate [ Trace.read ~addr:0 ~bytes:(2 * bytes) () ]).Controller.energy_j
      in
      e2 > e1)

let prop_hit_rate_bounded =
  QCheck.Test.make ~name:"row-hit rate in [0,1]" ~count:50
    QCheck.(pair (int_range 0 100000) (int_range 32 65536))
    (fun (addr, bytes) ->
      let addr = addr * 64 in
      let stats = Dram.simulate [ Trace.read ~addr ~bytes () ] in
      let r = Controller.row_hit_rate stats in
      r >= 0. && r <= 1.)

(* Run-at-a-time replay against the burst-by-burst oracle, on small and
   refresh-heavy geometries so that runs, row changes, bus contention and
   refresh deadlines all interleave. *)
let stats_equal (a : Controller.stats) (b : Controller.stats) =
  let f x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Controller.cycles = b.Controller.cycles
  && f a.Controller.seconds b.Controller.seconds
  && f a.Controller.bytes b.Controller.bytes
  && a.Controller.reads = b.Controller.reads
  && a.Controller.writes = b.Controller.writes
  && a.Controller.row_hits = b.Controller.row_hits
  && a.Controller.row_misses = b.Controller.row_misses
  && a.Controller.activates = b.Controller.activates
  && a.Controller.refreshes = b.Controller.refreshes
  && a.Controller.bus_stall_cycles = b.Controller.bus_stall_cycles
  && f a.Controller.energy_j b.Controller.energy_j
  && f a.Controller.background_j b.Controller.background_j

type replay_case = {
  timing : Timing.t;
  mapping : Controller.address_mapping;
  records : Trace.record list;
}

let gen_replay_case =
  let open QCheck.Gen in
  let* burst_length = oneofl [ 1; 2; 4; 8 ] in
  let* bus_width_bits = oneofl [ 8; 16; 32 ] in
  let burst = bus_width_bits / 8 * burst_length in
  let* row_bursts = int_range 1 8 in
  let* banks = int_range 1 8 in
  let* cl = int_range 1 12 in
  let* cwl = int_range 1 12 in
  let* trcd = int_range 1 15 in
  let* trp = int_range 1 15 in
  let* tras = int_range 1 34 in
  let* trefi = int_range 2 400 in
  let* trfc = int_range 1 (trefi - 1) in
  let timing =
    Timing.make ~burst_length ~bus_width_bits ~cl ~cwl ~trcd ~trp ~tras ~trfc ~trefi
      ~banks ~row_bytes:(row_bursts * burst) ()
  in
  let row_bytes = timing.Timing.row_bytes in
  let* mapping = oneofl [ Controller.Row_interleaved; Controller.Bank_interleaved ] in
  let record prev_end =
    let* write = bool in
    let* sequential = bool in
    let* addr =
      if sequential then return prev_end else int_range 0 (4 * banks * row_bytes)
    in
    let* bytes = int_range 1 ((3 * row_bytes) + burst) in
    return
      (if write then Trace.write ~addr ~bytes () else Trace.read ~addr ~bytes ())
  in
  let* n = int_range 0 12 in
  let rec records n prev_end acc =
    if n = 0 then return (List.rev acc)
    else
      let* r = record prev_end in
      records (n - 1) (r.Trace.addr + r.Trace.bytes) (r :: acc)
  in
  let* records = records n 0 [] in
  return { timing; mapping; records }

let print_replay_case c =
  let g = c.timing in
  Printf.sprintf
    "burst_length=%d bus=%d cl=%d cwl=%d trcd=%d trp=%d tras=%d trfc=%d trefi=%d \
     banks=%d row_bytes=%d %s\n%s"
    g.Timing.burst_length g.Timing.bus_width_bits g.Timing.cl g.Timing.cwl
    g.Timing.trcd g.Timing.trp g.Timing.tras g.Timing.trfc g.Timing.trefi
    g.Timing.banks g.Timing.row_bytes
    (match c.mapping with
    | Controller.Row_interleaved -> "row-interleaved"
    | Controller.Bank_interleaved -> "bank-interleaved")
    (Trace.to_lines c.records)

let prop_run_matches_reference =
  QCheck.Test.make ~name:"run = run_reference (floats bit-equal)" ~count:2000
    (QCheck.make ~print:print_replay_case gen_replay_case)
    (fun { timing; mapping; records } ->
      stats_equal
        (Controller.run ~timing ~mapping records)
        (Controller.run_reference ~timing ~mapping records))

let test_run_matches_reference_lpddr3 () =
  (* The evaluation device on long streams: many refreshes inside runs. *)
  let records =
    [
      Trace.read ~addr:0 ~bytes:(3 lsl 20) ();
      Trace.write ~addr:(5 lsl 20) ~bytes:((1 lsl 20) + 17) ();
      Trace.read ~addr:100 ~bytes:70000 ();
    ]
  in
  List.iter
    (fun mapping ->
      Alcotest.(check bool) "equal stats" true
        (stats_equal
           (Controller.run ~mapping records)
           (Controller.run_reference ~mapping records)))
    [ Controller.Row_interleaved; Controller.Bank_interleaved ]

let () =
  Alcotest.run "compass_dram"
    [
      ( "timing",
        [
          Alcotest.test_case "burst geometry" `Quick test_burst_geometry;
          Alcotest.test_case "peak bandwidth" `Quick test_peak_bandwidth;
          Alcotest.test_case "validation" `Quick test_timing_validation;
        ] );
      ( "bank",
        [
          Alcotest.test_case "first access misses" `Quick test_bank_first_access_is_miss;
          Alcotest.test_case "row hit" `Quick test_bank_row_hit;
          Alcotest.test_case "conflict precharges" `Quick test_bank_conflict_precharges;
          Alcotest.test_case "tRAS respected" `Quick test_bank_tras_respected;
          Alcotest.test_case "negative row" `Quick test_bank_negative_row;
        ] );
      ( "trace",
        [
          Alcotest.test_case "constructors" `Quick test_trace_constructors;
          Alcotest.test_case "totals" `Quick test_trace_totals;
          Alcotest.test_case "lines" `Quick test_trace_lines;
        ] );
      ( "controller",
        [
          Alcotest.test_case "streaming read" `Quick test_streaming_read;
          Alcotest.test_case "random slower" `Quick test_random_access_slower;
          Alcotest.test_case "refresh happens" `Quick test_refresh_happens;
          Alcotest.test_case "write energy higher" `Quick
            test_write_energy_higher_than_read;
          Alcotest.test_case "capacity guard" `Quick test_capacity_guard;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "mapping policies totals" `Quick
            test_mapping_policies_agree_on_totals;
          Alcotest.test_case "bank interleave strided" `Quick
            test_bank_interleaved_helps_strided;
          QCheck_alcotest.to_alcotest prop_latency_at_least_bandwidth_bound;
          QCheck_alcotest.to_alcotest prop_energy_monotone_in_bytes;
          QCheck_alcotest.to_alcotest prop_hit_rate_bounded;
          Alcotest.test_case "run = reference on LPDDR3" `Quick
            test_run_matches_reference_lpddr3;
          QCheck_alcotest.to_alcotest prop_run_matches_reference;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "time close to model" `Quick test_analytic_time_close;
          Alcotest.test_case "energy close to model" `Quick test_analytic_energy_close;
          Alcotest.test_case "zero bytes" `Quick test_analytic_zero;
        ] );
    ]
