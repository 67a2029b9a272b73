(* Tests for the resilient serving runtime (lib/serve): wire-protocol
   round-trips and located rejections, watermark shedding with
   hysteresis, per-request deadlines (timeout-in-queue, degraded
   compiles, inferences cancelled between layers), bounded transient
   retry with backoff deferred in the queue, the circuit breaker's
   open -> half-open -> closed trajectory, graceful drain, the wire
   loop's torn-EOF accounting, and the chaos soak: under an injected
   failpoint storm no request loses its response, nothing deadlocks, and
   successful responses are byte-identical to a clean run.  Everything
   runs on an injected clock — no test sleeps. *)

open Compass_serve
open Compass_util
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Fixture: a server with a scripted clock and captured responses      *)

type fix = {
  server : Server.t;
  responses : P.response list ref;  (* newest first *)
  time : float ref;
  step : float ref;  (* clock advance per read *)
}

let make ?(step = 0.) ?(config = Server.default_config) () =
  let time = ref 0. in
  let step = ref step in
  let responses = ref [] in
  let clock () =
    let v = !time in
    time := v +. !step;
    v
  in
  let config = { config with Server.clock } in
  let server =
    Server.create ~config ~respond:(fun r -> responses := r :: !responses) ()
  in
  { server; responses; time; step }

let by_id fix id =
  match List.find_opt (fun r -> r.P.r_id = id) !(fix.responses) with
  | Some r -> r
  | None -> Alcotest.failf "no response for id %s" id

let status_name r = P.status_to_string r.P.status
let note_of r = Option.value ~default:"" r.P.note

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_status id expected r =
  Alcotest.(check string) (id ^ " status") expected (status_name r)

let check_note id needle r =
  if not (contains (note_of r) needle) then
    Alcotest.failf "%s note %S does not mention %S" id (note_of r) needle

(* Request builders (line lists, as the framer would deliver them). *)
let ping id = [ Printf.sprintf "request %s ping" id ]

let infer ?(model = "tiny_mlp") ?(batch = 1) ?(seed = 0) ?deadline id =
  [ Printf.sprintf "request %s infer" id; "model " ^ model;
    Printf.sprintf "batch %d" batch; Printf.sprintf "seed %d" seed ]
  @ match deadline with
    | None -> []
    | Some d -> [ "deadline " ^ Artifact.float_token d ]

let compile ?(model = "lenet5") ?(chip = "S") ?(batch = 2) ?(seed = 0) ?deadline
    id =
  [ Printf.sprintf "request %s compile" id; "model " ^ model; "chip " ^ chip;
    Printf.sprintf "batch %d" batch; Printf.sprintf "seed %d" seed;
    "quick true" ]
  @ match deadline with
    | None -> []
    | Some d -> [ "deadline " ^ Artifact.float_token d ]

let verify id payload =
  (Printf.sprintf "request %s verify" id)
  :: Printf.sprintf "payload %d" (List.length payload)
  :: payload

let plan_payload () =
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan =
    Compass_core.Compiler.compile ~model ~chip:Compass_arch.Config.chip_s
      ~batch:2 Compass_core.Compiler.Greedy
  in
  match
    List.rev (String.split_on_char '\n' (Compass_core.Plan_text.to_string plan))
  with
  | "" :: rev -> List.rev rev
  | rev -> List.rev rev

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_request_round_trip () =
  let req =
    {
      P.default_request with
      P.id = "rt-1";
      kind = P.Verify;
      batch = 7;
      deadline_s = Some 0.125;
      seed = 42;
      quick = false;
      payload = [ "raw line"; "end"; "payload 3"; "" ];
    }
  in
  let f = P.Framer.create () in
  let blocks =
    List.filter_map (P.Framer.feed f) (P.request_to_lines req)
  in
  (match blocks with
  | [ block ] -> (
    match P.parse_request block with
    | Ok got ->
      if got <> req then Alcotest.fail "request did not round-trip the framer"
    | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg)
  | bs -> Alcotest.failf "expected 1 framed block, got %d" (List.length bs));
  Alcotest.(check bool) "framer drained" false (P.Framer.partial f)

let test_request_parse_errors () =
  let expect_err lines needle =
    match P.parse_request lines with
    | Ok _ -> Alcotest.failf "parsed despite %s" needle
    | Error msg ->
      if not (contains msg needle) then
        Alcotest.failf "diagnostic %S does not mention %S" msg needle
  in
  expect_err [] "empty";
  expect_err [ "bogus header" ] "line 1";
  expect_err [ "request only" ] "request <id> <kind>";
  expect_err [ "request x teleport" ] "unknown request kind";
  expect_err [ "request spaces! ping" ] "request id";
  expect_err
    [ "request "
      ^ String.concat "" (List.init 65 (fun _ -> "x"))
      ^ " ping" ]
    "request id";
  expect_err [ "request x ping"; "bogus 3" ] "line 2";
  expect_err [ "request x compile"; "batch four" ] "expected an integer";
  expect_err [ "request x compile"; "deadline -1" ] "deadline";
  expect_err [ "request x verify"; "payload 5"; "only"; "two" ] "payload";
  expect_err [ "request x ping"; "quick maybe" ] "quick"

let test_response_round_trip () =
  let resp =
    {
      P.r_id = "resp-9";
      status = P.Degraded;
      elapsed_s = 0.30000000000000004;
      note = Some "deadline expired mid-search: plan is best-so-far";
      body = [ "compass-plan 1"; "cuts 0 3" ];
    }
  in
  match P.parse_response (P.response_to_string resp) with
  | Ok got ->
    if got <> resp then Alcotest.fail "response did not round-trip";
    Alcotest.(check bool) "elapsed bit-exact" true
      (Int64.bits_of_float got.P.elapsed_s = Int64.bits_of_float resp.P.elapsed_s)
  | Error msg -> Alcotest.failf "response parse failed: %s" msg

let test_framer_streaming () =
  let f = P.Framer.create () in
  let fed = ref [] in
  List.iter
    (fun line ->
      match P.Framer.feed f line with
      | Some block -> fed := block :: !fed
      | None -> ())
    [
      ""; "request a ping"; "end"; "end"; "";
      "request b verify"; "payload 2"; "end"; "raw end line"; "end";
      "request c ping";
    ];
  (match List.rev !fed with
  | [ [ "request a ping" ]; [ "request b verify"; "payload 2"; "end"; "raw end line" ] ]
    -> ()
  | blocks -> Alcotest.failf "unexpected framing (%d blocks)" (List.length blocks));
  Alcotest.(check bool) "torn block detectable" true (P.Framer.partial f)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_hysteresis () =
  let q = Admission.create ~high:4 ~low:2 () in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "offer %d" i) true (Admission.offer q i)
  done;
  Alcotest.(check bool) "5th offer shed" false (Admission.offer q 5);
  Alcotest.(check bool) "shedding" true (Admission.shedding q);
  ignore (Admission.pop q);
  Alcotest.(check bool) "still shedding above low" false (Admission.offer q 6);
  ignore (Admission.pop q);
  ignore (Admission.pop q);
  (* depth 1 < low 2: hysteresis releases *)
  Alcotest.(check bool) "accepts again below low" true (Admission.offer q 7);
  Alcotest.(check int) "sheds counted" 2 (Admission.shed_count q);
  (match Admission.create ~high:0 () with
  | _ -> Alcotest.fail "high=0 accepted"
  | exception Invalid_argument _ -> ());
  match Admission.create ~high:4 ~low:5 () with
  | _ -> Alcotest.fail "low>high accepted"
  | exception Invalid_argument _ -> ()

let test_server_sheds_at_watermark () =
  let config = { Server.default_config with Server.queue_high = 2; queue_low = 1 } in
  let fix = make ~config () in
  List.iter (fun i -> Server.submit fix.server (infer (Printf.sprintf "q%d" i)))
    [ 1; 2; 3; 4 ];
  check_status "q3" "rejected" (by_id fix "q3");
  check_note "q3" "overloaded" (by_id fix "q3");
  check_status "q4" "rejected" (by_id fix "q4");
  Alcotest.(check int) "two queued" 2 (Server.pending fix.server);
  Alcotest.(check bool) "step 1" true (Server.step fix.server);
  Alcotest.(check bool) "step 2" true (Server.step fix.server);
  Alcotest.(check bool) "idle" false (Server.step fix.server);
  check_status "q1" "ok" (by_id fix "q1");
  check_status "q2" "ok" (by_id fix "q2");
  Alcotest.(check int) "all answered" 4 (Server.responded fix.server);
  Server.close fix.server

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_timeout_while_queued () =
  let fix = make () in
  Server.submit fix.server (infer ~deadline:5.0 "slow");
  fix.time := 10.0;
  Alcotest.(check bool) "one step" true (Server.step fix.server);
  let r = by_id fix "slow" in
  check_status "slow" "timeout" r;
  check_note "slow" "queued" r;
  Alcotest.(check (list string)) "no payload on timeout" [] r.P.body;
  Server.close fix.server

let test_compile_degrades_on_deadline () =
  (* The clock advances 5 ms per read and the deadline is 10 ms, so the
     GA's budget polls trip mid-search: the response must be a degraded
     best-so-far plan that still parses and verifies cleanly. *)
  let fix = make ~step:0.005 () in
  Server.submit fix.server (compile ~deadline:0.01 "deg");
  ignore (Server.step fix.server);
  let r = by_id fix "deg" in
  check_status "deg" "degraded" r;
  check_note "deg" "best-so-far" r;
  let plan =
    Compass_core.Plan_text.of_string (String.concat "\n" r.P.body ^ "\n")
  in
  Alcotest.(check (list string)) "degraded plan verifies" []
    (List.map Compass_core.Verify.render_violation (Compass_core.Verify.check plan));
  Server.close fix.server

let test_infer_cancelled_on_deadline () =
  let fix = make ~step:0.005 () in
  Server.submit fix.server (infer ~model:"lenet5" ~batch:2 ~deadline:0.01 "slow");
  ignore (Server.step fix.server);
  let r = by_id fix "slow" in
  check_status "slow" "timeout" r;
  check_note "slow" "cancelled" r;
  Alcotest.(check (list string)) "no payload" [] r.P.body;
  Server.close fix.server

let test_default_deadline_applied () =
  let config = { Server.default_config with Server.default_deadline_s = Some 5.0 } in
  let fix = make ~config () in
  Server.submit fix.server (infer "d1");
  fix.time := 10.0;
  ignore (Server.step fix.server);
  check_status "d1" "timeout" (by_id fix "d1");
  Server.close fix.server

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)

(* A transient failure is re-queued, due one backoff later on the
   scripted clock; with nothing else queued, the next step runs it. *)
let test_transient_retried () =
  let fix = make () in
  Failpoint.with_schedule "serve.request=raise@once" (fun () ->
      Server.submit fix.server (infer "flaky");
      ignore (Server.step fix.server);
      Alcotest.(check (option (float 0.))) "one backoff" (Some 0.01)
        (Server.retry_due fix.server);
      Alcotest.(check int) "not answered yet" 0 (Server.responded fix.server);
      ignore (Server.step fix.server));
  check_status "flaky" "ok" (by_id fix "flaky");
  Alcotest.(check (option (float 0.))) "no retry left" None (Server.retry_due fix.server);
  Server.close fix.server

let test_transient_gives_up () =
  let fix = make () in
  let backoffs = ref [] in
  Failpoint.with_schedule "serve.request=raise@always" (fun () ->
      Server.submit fix.server (infer "doomed");
      while Server.step fix.server do
        Option.iter (fun due -> backoffs := due :: !backoffs) (Server.retry_due fix.server)
      done);
  let r = by_id fix "doomed" in
  check_status "doomed" "error" r;
  check_note "doomed" "gave up after 3 attempt(s)" r;
  (* Doubling backoff: 10 ms then 20 ms (newest first). *)
  Alcotest.(check (list (float 1e-9))) "backoff doubles" [ 0.02; 0.01 ] !backoffs;
  Server.close fix.server

let test_retry_respects_deadline () =
  let fix = make ~step:0.01 () in
  Failpoint.with_schedule "serve.request=raise@always" (fun () ->
      Server.submit fix.server (infer ~deadline:0.015 "hasty");
      ignore (Server.step fix.server));
  let r = by_id fix "hasty" in
  check_status "hasty" "timeout" r;
  check_note "hasty" "retrying" r;
  (* A deadline that passes while the retry backs off in the queue. *)
  fix.step := 0.;
  Failpoint.with_schedule "serve.request=raise@once" (fun () ->
      Server.submit fix.server (infer ~deadline:1.0 "patient");
      ignore (Server.step fix.server);
      fix.time := 5.0;
      ignore (Server.step fix.server));
  let r = by_id fix "patient" in
  check_status "patient" "timeout" r;
  check_note "patient" "queued" r;
  Server.close fix.server

let order fix = List.rev_map (fun r -> r.P.r_id) !(fix.responses)

(* A retry waits in the queue, not in the loop: a clean request queued
   behind a failing one is answered first, a backing-off retry never
   runs ahead of other queued work, and a drain answers everything. *)
let test_retry_deferred () =
  let fix = make () in
  Failpoint.with_schedule "serve.request=raise@nth:1" (fun () ->
      Server.submit fix.server (infer "c-1");
      Server.submit fix.server (infer "c-2");
      ignore (Server.step fix.server);
      Alcotest.(check int) "c-1 deferred" 2 (Server.pending fix.server);
      ignore (Server.step fix.server);
      Alcotest.(check (list string)) "clean one first" [ "c-2" ] (order fix);
      (* Just before the retry is due, queued work still goes first. *)
      Server.submit fix.server (infer "c-3");
      fix.time := Float.pred 0.01;
      ignore (Server.step fix.server);
      Alcotest.(check (list string)) "retry not early" [ "c-2"; "c-3" ] (order fix);
      (* Once due, the retry runs ahead of the queue. *)
      Server.submit fix.server (infer "c-4");
      fix.time := 0.01;
      ignore (Server.step fix.server);
      Alcotest.(check (list string)) "due retry first" [ "c-2"; "c-3"; "c-1" ] (order fix));
  Server.drain fix.server;
  Alcotest.(check (list string)) "drained" [ "c-2"; "c-3"; "c-1"; "c-4" ] (order fix);
  List.iter (fun id -> check_status id "ok" (by_id fix id)) [ "c-1"; "c-2"; "c-3"; "c-4" ];
  Server.close fix.server;
  (* A drain gives up the backoff: both answered, the clean one first. *)
  let fix = make () in
  Failpoint.with_schedule "serve.request=raise@nth:1" (fun () ->
      Server.submit fix.server (infer "d-1");
      Server.submit fix.server (infer "d-2");
      Server.drain fix.server);
  Alcotest.(check (list string)) "drain answers both" [ "d-2"; "d-1" ] (order fix);
  List.iter (fun id -> check_status id "ok" (by_id fix id)) [ "d-1"; "d-2" ];
  Alcotest.(check int) "nothing left" 0 (Server.pending fix.server);
  Server.close fix.server

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)

let test_breaker_trajectory () =
  let config =
    { Server.default_config with Server.breaker_threshold = 2; max_retries = 0 }
  in
  let fix = make ~config () in
  let failing id =
    Failpoint.with_schedule "serve.request=raise@always" (fun () ->
        Server.submit fix.server (infer id);
        ignore (Server.step fix.server))
  in
  failing "f1";
  check_status "f1" "error" (by_id fix "f1");
  failing "f2";
  check_status "f2" "error" (by_id fix "f2");
  (* Two consecutive failures: the infer class is now open; compile and
     ping are unaffected. *)
  Server.submit fix.server (infer "f3");
  check_status "f3" "rejected" (by_id fix "f3");
  check_note "f3" "circuit" (by_id fix "f3");
  Server.submit fix.server (ping "p1");
  check_status "p1" "ok" (by_id fix "p1");
  Server.submit fix.server (compile "c1");
  ignore (Server.step fix.server);
  check_status "c1" "ok" (by_id fix "c1");
  (* Cooldown elapses (1 s doubling, jitter < 1.25): the next infer is
     the half-open probe.  It fails -> straight back open, doubled. *)
  fix.time := !(fix.time) +. 2.0;
  failing "probe1";
  check_status "probe1" "error" (by_id fix "probe1");
  Server.submit fix.server (infer "f4");
  check_status "f4" "rejected" (by_id fix "f4");
  (* Second cooldown (< 2.5 s with jitter); a clean probe closes it. *)
  fix.time := !(fix.time) +. 3.0;
  Server.submit fix.server (infer "probe2");
  ignore (Server.step fix.server);
  check_status "probe2" "ok" (by_id fix "probe2");
  Server.submit fix.server (infer "f5");
  ignore (Server.step fix.server);
  check_status "f5" "ok" (by_id fix "f5");
  Server.close fix.server

let test_breaker_probe_rejects_second () =
  (* While a probe is queued (half-open), a second request of the same
     class is rejected, not queued behind it. *)
  let now = ref 0. in
  let b = Breaker.create ~threshold:1 ~cooldown_s:1.0 ~now:(fun () -> !now) () in
  Breaker.record b "infer" ~ok:false;
  Alcotest.(check string) "open after threshold" "open" (Breaker.state_name b "infer");
  now := 2.0;
  (match Breaker.admit b "infer" with
  | Breaker.Probe -> ()
  | _ -> Alcotest.fail "expected the half-open probe");
  (match Breaker.admit b "infer" with
  | Breaker.Reject reason ->
    if not (contains reason "probe") then
      Alcotest.failf "reject reason %S does not mention the probe" reason
  | _ -> Alcotest.fail "second admit during probe not rejected");
  (* A probe that never executes (shed) must not wedge the class. *)
  Breaker.cancel_probe b "infer";
  Alcotest.(check string) "re-opened" "open" (Breaker.state_name b "infer");
  (match Breaker.admit b "infer" with
  | Breaker.Probe -> ()
  | _ -> Alcotest.fail "cancelled probe not re-admitted");
  Breaker.record b "infer" ~ok:true;
  Alcotest.(check string) "closed on success" "closed" (Breaker.state_name b "infer")

(* The breaker's cooldown schedule, pinned bit for bit over 20
   consecutive opens at 1 s: each open starts at t = 0, so the class
   must still reject at the float just below the pinned cooldown and
   probe exactly at it.  Doubling with seeded jitter, then the 60 s cap
   (0x1.ep+5) from the seventh open on. *)
let test_breaker_cooldowns_pinned () =
  List.iter
    (fun (seed, want) ->
      let now = ref 0. in
      let b = Breaker.create ~threshold:1 ~cooldown_s:1.0 ~seed ~now:(fun () -> !now) () in
      List.iteri
        (fun k hex ->
          let c = float_of_string hex in
          now := 0.;
          Breaker.record b "infer" ~ok:false;
          now := Float.pred c;
          (match Breaker.admit b "infer" with
          | Breaker.Reject _ -> ()
          | _ -> Alcotest.failf "seed %d open %d: probed before %h" seed k c);
          now := c;
          match Breaker.admit b "infer" with
          | Breaker.Probe -> ()
          | _ -> Alcotest.failf "seed %d open %d: no probe at %h" seed k c)
        want)
    [
      ( 0,
        [ "0x1.38882a0e5ec77p+0"; "0x1.1b9e279aa86e6p+1"; "0x1.01b1174620025p+2";
          "0x1.3e22ee2a1c932p+3"; "0x1.06ce625a946a2p+4"; "0x1.14f2e7c31d1fap+5" ]
        @ List.init 14 (fun _ -> "0x1.ep+5") );
      ( 7,
        [ "0x1.18f2f879164c8p+0"; "0x1.01130f35fd0f2p+1"; "0x1.39a610202eac5p+2";
          "0x1.254ebadc19cf9p+3"; "0x1.1cf4ced99a878p+4"; "0x1.0ff6afa1b2efbp+5" ]
        @ List.init 14 (fun _ -> "0x1.ep+5") );
    ]

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)

let test_graceful_drain () =
  let fix = make () in
  List.iter
    (fun i -> Server.submit fix.server (infer (Printf.sprintf "w%d" i)))
    [ 1; 2; 3 ];
  Server.begin_drain fix.server;
  Alcotest.(check bool) "draining" true (Server.draining fix.server);
  Server.submit fix.server (infer "late");
  check_status "late" "rejected" (by_id fix "late");
  check_note "late" "draining" (by_id fix "late");
  (* A ping still answers during drain, flagged. *)
  Server.submit fix.server (ping "hb");
  check_status "hb" "ok" (by_id fix "hb");
  check_note "hb" "draining" (by_id fix "hb");
  Server.drain fix.server;
  Alcotest.(check int) "queue empty" 0 (Server.pending fix.server);
  List.iter (fun i -> check_status "drained" "ok" (by_id fix (Printf.sprintf "w%d" i)))
    [ 1; 2; 3 ];
  (* Exactly one response per submitted request. *)
  Alcotest.(check int) "response count" 5 (Server.responded fix.server);
  let ids = List.map (fun r -> r.P.r_id) !(fix.responses) in
  Alcotest.(check int) "no duplicate responses"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Server.close fix.server;
  (match Server.step fix.server with
  | _ -> Alcotest.fail "step after close accepted"
  | exception Invalid_argument _ -> ());
  Server.close fix.server (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Wire loop                                                           *)

let test_wire_loop_eof_accounting () =
  let fix = make () in
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload =
    String.concat "\n"
      ([ "request a ping"; "end" ] @ infer "b" @ [ "end"; "request torn infer" ])
    ^ "\n"
  in
  ignore (Unix.write_substring wr payload 0 (String.length payload));
  Unix.close wr;
  (match Server.run_fd fix.server ~stop:(fun () -> false) rd with
  | `Eof -> ()
  | `Stopped -> Alcotest.fail "expected Eof");
  Unix.close rd;
  Server.drain fix.server;
  check_status "a" "ok" (by_id fix "a");
  check_status "b" "ok" (by_id fix "b");
  let torn = by_id fix "-" in
  check_status "torn" "error" torn;
  check_note "torn" "truncated" torn;
  Alcotest.(check int) "every block answered" 3 (Server.responded fix.server);
  Server.close fix.server

let test_wire_loop_stop () =
  let fix = make () in
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stopped = ref false in
  (match Server.run_fd fix.server ~stop:(fun () -> !stopped = false && (stopped := true; false) || true) rd with
  | `Stopped -> ()
  | `Eof -> Alcotest.fail "expected Stopped");
  Unix.close rd;
  Unix.close wr;
  Server.close fix.server

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let test_serve_metrics () =
  let fix = make () in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      Server.submit fix.server (ping "m1");
      Server.submit fix.server (infer "m2");
      Server.submit fix.server [ "garbage" ];
      ignore (Server.step fix.server);
      let metric name = Option.value ~default:0 (Metrics.find_int name) in
      Alcotest.(check int) "requests" 3 (metric "serve.requests");
      Alcotest.(check int) "responses" 3 (metric "serve.responses");
      Alcotest.(check int) "ok" 2 (metric "serve.status.ok");
      Alcotest.(check int) "error" 1 (metric "serve.status.error");
      Alcotest.(check int) "latency samples" 3 (metric "serve.latency_s.count");
      match Metrics.quantile "serve.latency_s" 0.99 with
      | Some q -> Alcotest.(check bool) "p99 finite" true (Float.is_finite q)
      | None -> Alcotest.fail "no latency histogram");
  Server.close fix.server

(* ------------------------------------------------------------------ *)
(* Chaos soak                                                          *)

(* The tentpole acceptance: a scripted burst of mixed requests, run
   clean and run under a failpoint storm (every execution attempt and
   every batch entry can fire).  Both runs must answer every request
   exactly once, and every response that succeeds in both runs must be
   byte-identical — recovery may only add retries, never change
   results. *)
let soak_script fix =
  let payload = plan_payload () in
  Server.submit fix.server (ping "s-ping");
  Server.submit fix.server (compile ~seed:3 "s-compile");
  Server.submit fix.server (infer ~seed:5 ~batch:2 "s-infer");
  Server.submit fix.server (verify "s-verify" payload);
  Server.submit fix.server (verify "s-verify-bad" [ "not a plan" ]);
  Server.submit fix.server (infer ~model:"nonesuch" "s-badmodel");
  Server.submit fix.server [ "request s-badkind teleport" ];
  Server.submit fix.server (infer ~seed:6 "s-infer2");
  while Server.step fix.server do () done;
  Server.drain fix.server

let soak_run spec =
  let fix = make () in
  (match spec with
  | None -> soak_script fix
  | Some spec -> Failpoint.with_schedule spec (fun () -> soak_script fix));
  let rendered =
    List.map (fun r -> (r.P.r_id, P.response_to_string r)) !(fix.responses)
    |> List.sort compare
  in
  Server.close fix.server;
  (Server.responded fix.server, rendered)

let test_chaos_soak_deterministic () =
  let clean_count, clean = soak_run None in
  Alcotest.(check int) "clean: every request answered" 8 clean_count;
  List.iter
    (fun spec ->
      let count, chaos = soak_run (Some spec) in
      Alcotest.(check int)
        (Printf.sprintf "%s: every request answered" spec)
        8 count;
      Alcotest.(check (list string))
        (Printf.sprintf "%s: same ids" spec)
        (List.map fst clean) (List.map fst chaos);
      List.iter2
        (fun (id, clean_text) (_, chaos_text) ->
          match P.parse_response clean_text with
          | Ok { P.status = P.Ok | P.Degraded; _ } ->
            Alcotest.(check string)
              (Printf.sprintf "%s: %s byte-identical" spec id)
              clean_text chaos_text
          | _ -> ())
        clean chaos)
    [
      "serve.request=raise@nth:2";
      "serve.request=raise@every:3";
      "serve.request=eintr@every:2";
      "executor.batch=raise@nth:2";
      "serve.request=raise@nth:1;executor.batch=raise@every:4";
    ]

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
          Alcotest.test_case "request parse errors located" `Quick
            test_request_parse_errors;
          Alcotest.test_case "response round-trip" `Quick test_response_round_trip;
          Alcotest.test_case "framer streaming" `Quick test_framer_streaming;
        ] );
      ( "admission",
        [
          Alcotest.test_case "watermark hysteresis" `Quick test_admission_hysteresis;
          Alcotest.test_case "server sheds at watermark" `Quick
            test_server_sheds_at_watermark;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "timeout while queued" `Quick test_timeout_while_queued;
          Alcotest.test_case "compile degrades" `Quick
            test_compile_degrades_on_deadline;
          Alcotest.test_case "infer cancelled" `Quick test_infer_cancelled_on_deadline;
          Alcotest.test_case "default deadline" `Quick test_default_deadline_applied;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient retried" `Quick test_transient_retried;
          Alcotest.test_case "gives up bounded" `Quick test_transient_gives_up;
          Alcotest.test_case "respects deadline" `Quick test_retry_respects_deadline;
          Alcotest.test_case "deferred behind queued work" `Quick test_retry_deferred;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "open half-open closed" `Quick test_breaker_trajectory;
          Alcotest.test_case "probe exclusivity" `Quick
            test_breaker_probe_rejects_second;
          Alcotest.test_case "cooldowns pinned" `Quick test_breaker_cooldowns_pinned;
        ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain" `Quick test_graceful_drain ] );
      ( "wire",
        [
          Alcotest.test_case "eof accounting" `Quick test_wire_loop_eof_accounting;
          Alcotest.test_case "stop signal" `Quick test_wire_loop_stop;
        ] );
      ( "observability",
        [ Alcotest.test_case "serve metrics" `Quick test_serve_metrics ] );
      ( "chaos",
        [
          Alcotest.test_case "soak is deterministic" `Quick
            test_chaos_soak_deterministic;
        ] );
    ]
