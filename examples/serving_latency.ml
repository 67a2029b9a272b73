(* Serving-latency study: what batch size should an online service use?

   The paper's batching discussion (Sec. II-B) is framed per batch; a
   deployment sees request *arrival* dynamics.  This example simulates a
   Poisson request stream against compiled ResNet18-S plans: requests
   accumulate until the batch fills (or a timeout fires), the batch runs
   for the plan's estimated batch latency, and per-request latency =
   queueing + batch execution.  Throughput-optimal batches are not
   tail-latency-optimal — the classic serving trade-off, quantified on
   COMPASS plans.

   Run with:  dune exec examples/serving_latency.exe *)

open Compass_core

let simulate_serving ~rng ~arrival_per_s ~batch ~latency_at_fill ~timeout_s ~requests =
  (* Exponential inter-arrival times; a single-chip executor.  A dispatch
     takes [latency_at_fill k] where [k] is how many requests it carries
     (partial batches still pay their weight-replacement rounds but less
     compute). *)
  let arrivals = Array.make requests 0. in
  let t = ref 0. in
  for i = 0 to requests - 1 do
    let u = max 1e-12 (Compass_util.Rng.float rng 1.) in
    t := !t +. (-.log u /. arrival_per_s);
    arrivals.(i) <- !t
  done;
  let latencies = Array.make requests 0. in
  let chip_free = ref 0. in
  let i = ref 0 in
  while !i < requests do
    let first = !i in
    let window_close = arrivals.(first) +. timeout_s in
    (* Collect up to [batch] requests that arrive before the timeout. *)
    let j = ref first in
    while
      !j + 1 < requests
      && !j + 1 - first < batch
      && arrivals.(!j + 1) <= window_close
    do
      incr j
    done;
    let fill = !j - first + 1 in
    let dispatch =
      max !chip_free (if fill = batch then arrivals.(!j) else window_close)
    in
    let finish = dispatch +. latency_at_fill fill in
    chip_free := finish;
    for k = first to !j do
      latencies.(k) <- finish -. arrivals.(k)
    done;
    i := !j + 1
  done;
  Array.to_list latencies

let () =
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.chip_s in
  let arrival_per_s = 800. in
  let timeout_s = 10e-3 in
  Printf.printf
    "ResNet18 on chip S, Poisson arrivals at %.0f req/s, %.0f ms batching timeout\n\n"
    arrival_per_s (timeout_s *. 1e3);
  let table =
    Compass_util.Table.create
      ~aligns:Compass_util.Table.[ Right; Right; Right; Right; Right ]
      [ "batch"; "plan throughput"; "p50 latency"; "p99 latency"; "mean latency" ]
  in
  List.iter
    (fun batch ->
      let plan =
        Compiler.compile ~ga_params:Ga.quick_params ~model ~chip ~batch Compiler.Compass
      in
      (* Price every possible fill level of this plan once. *)
      let fills =
        Array.init batch (fun k ->
            (Estimator.evaluate plan.Compiler.ctx ~batch:(k + 1) plan.Compiler.group)
              .Estimator.batch_latency_s)
      in
      let latency_at_fill k = fills.(min (batch - 1) (max 0 (k - 1))) in
      let rng = Compass_util.Rng.create 2024 in
      let lat =
        simulate_serving ~rng ~arrival_per_s ~batch ~latency_at_fill ~timeout_s
          ~requests:4000
      in
      Compass_util.Table.add_row table
        [
          string_of_int batch;
          Printf.sprintf "%.0f/s" plan.Compiler.perf.Estimator.throughput_per_s;
          Compass_util.Units.time_to_string (Compass_util.Stats.percentile 50. lat);
          Compass_util.Units.time_to_string (Compass_util.Stats.percentile 99. lat);
          Compass_util.Units.time_to_string (Compass_util.Stats.mean lat);
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  Compass_util.Table.print table;
  print_newline ();
  print_endline
    "Small batches cannot sustain the arrival rate (queues diverge into the\n\
     p99); very large batches add waiting and per-sample completion delay.\n\
     The serving sweet spot sits near the EDP sweet spot of Fig. 8 — weight\n\
     replacement wants batching, tail latency caps it.";
  (* The numbers above are *estimated* accelerator latencies.  For a
     functional sanity check of the serving path itself, run a real batch
     through the host executor's im2col/GEMM kernels and report the
     measured host serving rate. *)
  print_newline ();
  let weights = Compass_nn.Executor.random_weights ~seed:7 model in
  let inputs =
    Array.init 4 (fun i -> Compass_nn.Executor.random_input ~seed:(7 + i) model)
  in
  let t0 = Unix.gettimeofday () in
  let outs = Compass_nn.Executor.output_batch model weights inputs in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Wall clock varies run to run: stderr, so stdout stays byte-stable. *)
  Printf.eprintf
    "Host functional replay (gemm engine): batch %d in %s — %.2f images/s\n"
    (Array.length outs)
    (Compass_util.Units.time_to_string elapsed)
    (float_of_int (Array.length outs) /. elapsed)
