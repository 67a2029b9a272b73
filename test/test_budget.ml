(* Deadline tokens with an injected clock. *)

open Compass_util

(* A hand-cranked clock: [tick] advances it, the token only sees what we
   feed it. *)
let fake_clock start =
  let t = ref start in
  let now () = !t in
  let set v = t := v in
  (now, set)

let test_expiry () =
  let now, set = fake_clock 100. in
  let b = Budget.of_deadline ~now 10. in
  Alcotest.(check bool) "fresh" false (Budget.expired b);
  set 105.;
  Alcotest.(check bool) "mid-budget" false (Budget.expired b);
  set (Float.pred 110.);
  Alcotest.(check bool) "just before the deadline" false (Budget.expired b);
  set 110.;
  Alcotest.(check bool) "at deadline" true (Budget.expired b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b)

let test_sticky () =
  let now, set = fake_clock 0. in
  let b = Budget.of_deadline ~now 1. in
  set 2.;
  Alcotest.(check bool) "expired" true (Budget.expired b);
  (* A wall-clock step backwards must not resurrect the budget. *)
  set 0.5;
  Alcotest.(check bool) "still expired" true (Budget.expired b);
  Alcotest.(check bool) "still exhausted" true (Budget.exhausted b)

let test_monotonic_clock () =
  let now, set = fake_clock 50. in
  let b = Budget.of_deadline ~now 0. in
  (* The token's view of time never decreases even if the raw clock does:
     a zero deadline set at 50 stays expired when the clock reads 40. *)
  set 40.;
  Alcotest.(check bool) "watermark holds" true (Budget.expired b)

let test_zero_deadline () =
  let now, _set = fake_clock 7. in
  let b = Budget.of_deadline ~now 0. in
  Alcotest.(check bool) "instantly expired" true (Budget.expired b)

let test_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Budget.of_deadline: negative or NaN deadline") (fun () ->
      ignore (Budget.of_deadline (-1.)));
  Alcotest.check_raises "nan"
    (Invalid_argument "Budget.of_deadline: negative or NaN deadline") (fun () ->
      ignore (Budget.of_deadline Float.nan))

let test_exhausted_only_after_observation () =
  let now, set = fake_clock 0. in
  let b = Budget.of_deadline ~now 1. in
  set 5.;
  (* [exhausted] reports whether an expiry was *observed*, so an
     unobserved deadline is not yet exhausted. *)
  Alcotest.(check bool) "not yet observed" false (Budget.exhausted b);
  ignore (Budget.expired b);
  Alcotest.(check bool) "observed" true (Budget.exhausted b)

(* Expiry hooks: the serving runtime counts per-request deadline trips
   through [on_expiry] instead of polluting every polling site. *)
let test_on_expiry_fires_once () =
  let now, set = fake_clock 0. in
  let b = Budget.of_deadline ~now 5. in
  let fired = ref 0 in
  Budget.on_expiry b (fun () -> incr fired);
  ignore (Budget.expired b);
  Alcotest.(check int) "not before the deadline" 0 !fired;
  set 10.;
  ignore (Budget.expired b);
  Alcotest.(check int) "fires at the tripping poll" 1 !fired;
  ignore (Budget.expired b);
  Alcotest.(check int) "exactly once" 1 !fired;
  (* Registered after the trip: runs immediately. *)
  Budget.on_expiry b (fun () -> fired := !fired + 10);
  Alcotest.(check int) "late hook runs immediately" 11 !fired

let test_on_expiry_order () =
  let now, set = fake_clock 0. in
  let b = Budget.of_deadline ~now 1. in
  let order = ref [] in
  Budget.on_expiry b (fun () -> order := "first" :: !order);
  Budget.on_expiry b (fun () -> order := "second" :: !order);
  set 2.;
  Alcotest.(check (list string)) "passing the deadline alone does not poll" [] !order;
  ignore (Budget.expired b);
  Alcotest.(check (list string)) "registration order" [ "second"; "first" ] !order

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "expiry" `Quick test_expiry;
          Alcotest.test_case "sticky" `Quick test_sticky;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
          Alcotest.test_case "zero deadline" `Quick test_zero_deadline;
          Alcotest.test_case "invalid seconds" `Quick test_invalid;
          Alcotest.test_case "exhausted needs observation" `Quick
            test_exhausted_only_after_observation;
          Alcotest.test_case "on_expiry fires once" `Quick test_on_expiry_fires_once;
          Alcotest.test_case "on_expiry order" `Quick test_on_expiry_order;
        ] );
    ]
