(* Deterministic failpoint framework: spec grammar, trigger semantics,
   zero-cost disabled behavior, schedule scoping. *)

open Compass_util

let fires f =
  match f () with
  | () -> false
  | exception Failpoint.Injected _ -> true

let test_disabled_is_inert () =
  Failpoint.clear ();
  Alcotest.(check bool) "disabled" false (Failpoint.enabled ());
  Failpoint.guard "anything.at.all";
  Alcotest.(check string) "guard_write is identity" "payload"
    (Failpoint.guard_write "anything.at.all" "payload");
  Alcotest.(check int) "no hits recorded" 0 (Failpoint.hits "anything.at.all");
  Alcotest.(check (list (pair string int))) "nothing fired" [] (Failpoint.fired ())

let test_trigger_once () =
  Failpoint.with_schedule "a=raise" @@ fun () ->
  Alcotest.(check bool) "first hit fires" true (fires (fun () -> Failpoint.guard "a"));
  Alcotest.(check bool) "second hit silent" false (fires (fun () -> Failpoint.guard "a"));
  Alcotest.(check int) "both hits observed" 2 (Failpoint.hits "a");
  Alcotest.(check (list (pair string int))) "one firing" [ ("a", 1) ] (Failpoint.fired ())

let test_trigger_nth_every_always () =
  (Failpoint.with_schedule "a=raise@nth:3" @@ fun () ->
   let pattern = List.init 5 (fun _ -> fires (fun () -> Failpoint.guard "a")) in
   Alcotest.(check (list bool)) "nth:3" [ false; false; true; false; false ] pattern);
  (Failpoint.with_schedule "a=raise@every:2" @@ fun () ->
   let pattern = List.init 6 (fun _ -> fires (fun () -> Failpoint.guard "a")) in
   Alcotest.(check (list bool)) "every:2" [ false; true; false; true; false; true ] pattern);
  Failpoint.with_schedule "a=raise@always" @@ fun () ->
  let pattern = List.init 3 (fun _ -> fires (fun () -> Failpoint.guard "a")) in
  Alcotest.(check (list bool)) "always" [ true; true; true ] pattern

let test_trigger_prob_deterministic () =
  let draw () =
    Failpoint.with_schedule "a=raise@prob:0.5:42" @@ fun () ->
    List.init 64 (fun _ -> fires (fun () -> Failpoint.guard "a"))
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list bool)) "seeded draws replay identically" a b;
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "roughly Bernoulli(0.5)" true (fired > 10 && fired < 54)

let test_actions () =
  (Failpoint.with_schedule "a=enospc" @@ fun () ->
   match Failpoint.guard "a" with
   | () -> Alcotest.fail "enospc did not fire"
   | exception Unix.Unix_error (Unix.ENOSPC, "failpoint", "a") -> ());
  (Failpoint.with_schedule "a=eintr" @@ fun () ->
   match Failpoint.guard "a" with
   | () -> Alcotest.fail "eintr did not fire"
   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  (Failpoint.with_schedule "a=truncate:3" @@ fun () ->
   Alcotest.(check string) "truncated" "pay" (Failpoint.guard_write "a" "payload");
   Alcotest.(check string) "once: second write intact" "payload"
     (Failpoint.guard_write "a" "payload"));
  (Failpoint.with_schedule "a=truncate:99" @@ fun () ->
   Alcotest.(check string) "truncate beyond length is whole payload" "pay"
     (Failpoint.guard_write "a" "pay"));
  (* truncate at a plain guard site is a no-op, not a crash. *)
  Failpoint.with_schedule "a=truncate:0" @@ fun () -> Failpoint.guard "a"

let test_prefix_match () =
  Failpoint.with_schedule "artifact.*=raise@always" @@ fun () ->
  Alcotest.(check bool) "prefix matches" true
    (fires (fun () -> Failpoint.guard "artifact.write.mid"));
  Alcotest.(check bool) "other sites untouched" false
    (fires (fun () -> Failpoint.guard "pool.task"))

let test_hits_pattern () =
  Failpoint.with_schedule "zz=raise" @@ fun () ->
  List.iter Failpoint.guard [ "ab"; "ab"; "ac"; "b" ];
  Alcotest.(check int) "exact site" 2 (Failpoint.hits "ab");
  Alcotest.(check int) "prefix sums its sites" 3 (Failpoint.hits "a*");
  Alcotest.(check int) "'*' sums every site" 4 (Failpoint.hits "*")

let test_first_matching_rule_wins () =
  Failpoint.with_schedule "a=raise@always;a=truncate:1@always" @@ fun () ->
  Alcotest.(check bool) "first rule fires" true (fires (fun () -> Failpoint.guard "a"))

let test_with_schedule_restores () =
  Failpoint.set "outer=raise@always";
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  (Failpoint.with_schedule "inner=raise@always" @@ fun () ->
   Alcotest.(check (option string)) "inner armed" (Some "inner=raise@always")
     (Failpoint.active ());
   Alcotest.(check bool) "outer suspended" false
     (fires (fun () -> Failpoint.guard "outer")));
  Alcotest.(check (option string)) "outer restored" (Some "outer=raise@always")
    (Failpoint.active ());
  Alcotest.(check bool) "outer fires again" true (fires (fun () -> Failpoint.guard "outer"));
  (* Restoration survives an exception escaping the scoped thunk. *)
  (try
     Failpoint.with_schedule "inner=raise@always" (fun () -> failwith "escape")
   with Failure _ -> ());
  Alcotest.(check (option string)) "restored on exception" (Some "outer=raise@always")
    (Failpoint.active ())

let test_spec_errors () =
  let rejects spec col mentions =
    Located_check.expect_located ~line:1 ~col ~mentions (fun () ->
        Failpoint.with_schedule spec (fun () -> ()))
  in
  rejects "nosign" 1 "lacks '='";
  rejects "a=explode" 3 "unknown action \"explode\"";
  rejects "a=truncate:minus" 12 "bad truncate byte count";
  rejects "a=truncate:-1" 12 "bad truncate byte count";
  rejects "a=delay:fast" 9 "bad delay";
  rejects "a=raise@sometimes" 9 "unknown trigger";
  rejects "a=raise@nth:0" 13 "bad nth count";
  rejects "a=raise@prob:2:1" 14 "bad prob trigger";
  rejects "=raise" 1 "names no site";
  rejects "a=raise; b=zap" 12 "unknown action \"zap\"";
  (* The empty spec disarms rather than erroring. *)
  Failpoint.set "";
  Alcotest.(check bool) "empty spec disarms" false (Failpoint.enabled ())

(* Model loads read through the guarded artifact reader, so an injected
   read error surfaces as the syscall error the CLI maps to exit 2. *)
let test_model_load_read_error () =
  let path = Filename.temp_file "compass" ".model" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Failpoint.with_schedule "artifact.read=eio" @@ fun () ->
  match Compass_nn.Model_text.parse_file path with
  | _ -> Alcotest.fail "injected read error did not surface"
  | exception Unix.Unix_error (Unix.EIO, "failpoint", "artifact.read") -> ()

let () =
  Alcotest.run "failpoint"
    [
      ( "schedule",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "once" `Quick test_trigger_once;
          Alcotest.test_case "nth/every/always" `Quick test_trigger_nth_every_always;
          Alcotest.test_case "prob is seeded" `Quick test_trigger_prob_deterministic;
          Alcotest.test_case "actions" `Quick test_actions;
          Alcotest.test_case "prefix match" `Quick test_prefix_match;
          Alcotest.test_case "hits pattern" `Quick test_hits_pattern;
          Alcotest.test_case "first rule wins" `Quick test_first_matching_rule_wins;
          Alcotest.test_case "with_schedule restores" `Quick test_with_schedule_restores;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "model load read error" `Quick test_model_load_read_error;
        ] );
    ]
