(* Tests for the observability layer: span nesting well-formedness,
   monotone timestamps, the pinned Chrome trace_event JSON schema, and the
   merge semantics of per-domain metric buffers. *)

open Compass_util

(* A deterministic clock: every sample advances by [step] seconds. *)
let fake_clock ?(step = 10e-6) () =
  let t = ref 0. in
  fun () ->
    let now = !t in
    t := !t +. step;
    now

let fresh ?clock () =
  Trace.reset ();
  Metrics.reset ();
  Trace.enable ?clock ();
  Metrics.enable ()

let teardown () =
  Trace.disable ();
  Metrics.disable ();
  Trace.reset ();
  Metrics.reset ()

let with_observability ?clock f =
  fresh ?clock ();
  Fun.protect ~finally:teardown f

(* Every End must close the most recent still-open Begin of its buffer
   (stack discipline per tid), and the merged stream must leave no span
   open.  Returns the number of completed spans. *)
let check_well_formed events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.Trace.tid) in
      match e.Trace.phase with
      | Trace.Begin -> Hashtbl.replace stacks e.Trace.tid (e.Trace.name :: stack)
      | Trace.End -> (
        match stack with
        | top :: rest when top = e.Trace.name ->
          incr closed;
          Hashtbl.replace stacks e.Trace.tid rest
        | top :: _ ->
          Alcotest.failf "End %S closes open span %S (tid %d)" e.Trace.name top
            e.Trace.tid
        | [] -> Alcotest.failf "End %S with no open span (tid %d)" e.Trace.name e.Trace.tid))
    events;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        Alcotest.failf "tid %d left spans open: %s" tid (String.concat ", " stack))
    stacks;
  !closed

let check_monotone events =
  let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      (match Hashtbl.find_opt last e.Trace.tid with
      | Some prev when e.Trace.ts < prev ->
        Alcotest.failf "tid %d: timestamp %g after %g" e.Trace.tid e.Trace.ts prev
      | Some _ | None -> ());
      Hashtbl.replace last e.Trace.tid e.Trace.ts)
    events

(* -- tracing ----------------------------------------------------------- *)

let test_disabled_is_noop () =
  teardown ();
  let ran = ref 0 in
  let result = Trace.with_span "off" (fun () -> incr ran; 42) in
  Alcotest.(check int) "body ran" 1 !ran;
  Alcotest.(check int) "result returned" 42 result;
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events ()))

let test_nesting_well_formed () =
  with_observability ~clock:(fake_clock ()) @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner" (fun () -> Trace.with_span "leaf" (fun () -> ())));
  let events = Trace.events () in
  Alcotest.(check int) "event count" 8 (List.length events);
  Alcotest.(check int) "completed spans" 4 (check_well_formed events);
  check_monotone events

let test_exception_closes_span () =
  with_observability ~clock:(fake_clock ()) @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let events = Trace.events () in
  Alcotest.(check int) "Begin and End" 2 (List.length events);
  Alcotest.(check int) "span closed despite raise" 1 (check_well_formed events)

let test_backwards_clock_monotonized () =
  (* A clock that steps backwards mid-span must not produce a span that
     ends before it starts. *)
  let samples = ref [ 0.; 10e-6; 5e-6; 20e-6; 2e-6 ] in
  let clock () =
    match !samples with
    | [ last ] -> last
    | x :: rest ->
      samples := rest;
      x
    | [] -> assert false
  in
  with_observability ~clock @@ fun () ->
  Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ()));
  let events = Trace.events () in
  ignore (check_well_formed events);
  check_monotone events

let test_golden_chrome_json () =
  (* Field names, field order and the wrapper object are a pinned output
     format (docs/FORMATS.md); any change here is a breaking change for
     trace consumers and must be deliberate. *)
  with_observability ~clock:(fake_clock ()) @@ fun () ->
  Trace.with_span "a" ~args:[ ("k", "v\"x") ] (fun () ->
      Trace.with_span "b" (fun () -> ()));
  let expected =
    "{\"traceEvents\":[\n\
     {\"name\":\"a\",\"cat\":\"compass\",\"ph\":\"B\",\"ts\":10.000,\"pid\":0,\"tid\":0,\"args\":{\"k\":\"v\\\"x\"}},\n\
     {\"name\":\"b\",\"cat\":\"compass\",\"ph\":\"B\",\"ts\":20.000,\"pid\":0,\"tid\":0},\n\
     {\"name\":\"b\",\"cat\":\"compass\",\"ph\":\"E\",\"ts\":30.000,\"pid\":0,\"tid\":0},\n\
     {\"name\":\"a\",\"cat\":\"compass\",\"ph\":\"E\",\"ts\":40.000,\"pid\":0,\"tid\":0}\n\
     ]}\n"
  in
  let path = Filename.temp_file "compass" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.save_chrome path;
  Alcotest.(check string) "pinned trace_event schema" expected
    (In_channel.with_open_bin path In_channel.input_all)

let test_summarize () =
  with_observability ~clock:(fake_clock ~step:1e-3 ()) @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner" (fun () -> ()));
  (* One row per span name, largest total first. *)
  Alcotest.(check string) "summary"
    "span  | count | total | mean |  max\n\
     ------+-------+-------+------+-----\n\
     outer |     1 |  5 ms | 5 ms | 5 ms\n\
     inner |     2 |  2 ms | 1 ms | 1 ms"
    (Table.render (Trace.summary_table ()))

let test_pool_spans_merge () =
  (* Spans recorded inside pool worker domains appear in the merged
     export and keep per-buffer stack discipline. *)
  with_observability @@ fun () ->
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Pool.map pool
          (fun i -> Trace.with_span "work" (fun () -> i * 2))
          (Array.init 64 Fun.id)
      in
      Alcotest.(check (array int)) "results" (Array.init 64 (fun i -> i * 2)) out);
  let events = Trace.events () in
  Alcotest.(check int) "all worker spans merged" 64 (check_well_formed events);
  check_monotone events

(* -- metrics ----------------------------------------------------------- *)

let test_metrics_disabled_is_noop () =
  teardown ();
  Metrics.incr "nope";
  Metrics.set "nope.gauge" 1.;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Metrics.snapshot ()))

let test_counter_and_gauge_basics () =
  with_observability @@ fun () ->
  Metrics.incr "c";
  Metrics.add "c" 41;
  Metrics.set "g" 1.5;
  Metrics.set "g" 2.5;
  Alcotest.(check (option int)) "counter sums" (Some 42) (Metrics.find_int "c");
  (match List.assoc_opt "g" (Metrics.snapshot ()) with
  | Some (Metrics.Float v) -> Alcotest.(check (float 0.)) "gauge last write" 2.5 v
  | _ -> Alcotest.fail "gauge missing");
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       Metrics.set "c" 1.;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind mismatch raises (incr on gauge)" true
    (try
       Metrics.incr "g";
       false
     with Invalid_argument _ -> true)

let prop_counter_merge_worker_count_independent =
  (* Counters merge associatively and commutatively: however the
     increments are spread over worker domains, the snapshot equals the
     sequential sum. *)
  QCheck.Test.make ~name:"counter merge independent of worker count" ~count:30
    QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 3) (int_range 1 100))))
    (fun (jobs, increments) ->
      let name i = Printf.sprintf "prop.c%d" i in
      let expected = Hashtbl.create 4 in
      List.iter
        (fun (i, by) ->
          Hashtbl.replace expected (name i)
            (by + Option.value ~default:0 (Hashtbl.find_opt expected (name i))))
        increments;
      with_observability @@ fun () ->
      Pool.with_pool ~jobs (fun pool ->
          ignore
            (Pool.map pool
               (fun (i, by) ->
                 Metrics.add (name i) by;
                 0)
               (Array.of_list increments)));
      Hashtbl.fold
        (fun name total acc -> acc && Metrics.find_int name = Some total)
        expected true
      && List.length (Metrics.snapshot ()) = Hashtbl.length expected)

let test_snapshot_sorted () =
  with_observability @@ fun () ->
  Metrics.incr "z";
  Metrics.incr "a";
  Metrics.incr "m";
  Alcotest.(check (list string)) "sorted by name" [ "a"; "m"; "z" ]
    (List.map fst (Metrics.snapshot ()))

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "nesting well-formed" `Quick test_nesting_well_formed;
          Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
          Alcotest.test_case "backwards clock monotonized" `Quick
            test_backwards_clock_monotonized;
          Alcotest.test_case "golden chrome json" `Quick test_golden_chrome_json;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "pool spans merge" `Quick test_pool_spans_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_metrics_disabled_is_noop;
          Alcotest.test_case "counter and gauge basics" `Quick
            test_counter_and_gauge_basics;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          QCheck_alcotest.to_alcotest prop_counter_merge_worker_count_independent;
        ] );
    ]
