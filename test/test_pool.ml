(* Tests for the persistent domain pool behind the parallel GA search. *)

open Compass_util

let seq_map f xs = Array.map f xs

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = Array.init 257 (fun i -> i) in
          let f x = (x * x) + 1 in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            (seq_map f xs) (Pool.map pool f xs)))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_tiny () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 10 |] (Pool.map pool (fun x -> x * 10) [| 1 |]))

let test_pool_is_persistent () =
  (* Many phases on one pool; workers must survive between calls. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 20 do
        let xs = Array.init 50 (fun i -> i) in
        let expected = seq_map (fun x -> x + round) xs in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          expected
          (Pool.map pool (fun x -> x + round) xs)
      done)

let test_map_init_states () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let out, states =
        Pool.map_init pool
          ~init:(fun () -> ref 0)
          ~f:(fun acc x ->
            incr acc;
            x * 2)
          xs
      in
      Alcotest.(check (array int)) "results ordered" (seq_map (fun x -> x * 2) xs) out;
      let n_states = List.length states in
      Alcotest.(check bool) "at most jobs states" true (n_states >= 1 && n_states <= 4);
      (* Every item was processed by exactly one domain-local state. *)
      Alcotest.(check int) "items partitioned over states" 100
        (List.fold_left (fun acc r -> acc + !r) 0 states))

let test_map_init_sequential_single_state () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let _, states =
        Pool.map_init pool ~init:(fun () -> ()) ~f:(fun () x -> x) (Array.init 10 Fun.id)
      in
      Alcotest.(check int) "one state at j=1" 1 (List.length states))

exception Boom of int

let test_exception_lowest_index_wins () =
  (* Whatever the scheduling, the caller sees the failure of the lowest
     input index, wrapped in a located Task_error naming that index —
     deterministic replay even for errors. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = Array.init 200 (fun i -> i) in
          match Pool.map pool (fun x -> if x >= 41 then raise (Boom x) else x) xs with
          | _ -> Alcotest.fail "expected an exception"
          | exception Pool.Task_error { index; attempts; error = Boom i; _ } ->
            Alcotest.(check int) (Printf.sprintf "jobs=%d index" jobs) 41 index;
            Alcotest.(check int) (Printf.sprintf "jobs=%d payload" jobs) 41 i;
            Alcotest.(check int) (Printf.sprintf "jobs=%d attempts" jobs) 1 attempts))
    [ 1; 2; 4 ];
  (* The pool survives a failing phase. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> failwith "boom") [| 1; 2; 3 |]) with _ -> ());
      Alcotest.(check (array int)) "usable after failure" [| 2; 4; 6 |]
        (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

let test_supervision_recovers_transient () =
  (* A task that fails on its first execution only: supervision re-runs
     it and the result equals the unfailed run, for any worker count. *)
  List.iter
    (fun jobs ->
      let failed_once = Atomic.make false in
      let f x =
        if x = 41 && not (Atomic.exchange failed_once true) then raise (Boom x)
        else x * 3
      in
      Pool.with_pool ~jobs (fun pool ->
          let xs = Array.init 100 Fun.id in
          let got = Pool.map ~supervision:(Pool.supervision ()) pool f xs in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            (seq_map (fun x -> x * 3) xs)
            got))
    [ 1; 2; 4 ]

let test_supervision_exhausts_retries () =
  (* A persistent failure surfaces with the attempt count: 1 original
     execution + retries. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      match
        Pool.map
          ~supervision:(Pool.supervision ~retries:2 ())
          pool
          (fun x -> if x = 5 then raise (Boom x) else x)
          (Array.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { index; attempts; error = Boom 5; _ } ->
        Alcotest.(check int) "index" 5 index;
        Alcotest.(check int) "attempts = 1 + retries" 3 attempts);
  (* retries:0 still wraps the failure in a located diagnostic. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      match
        Pool.map
          ~supervision:(Pool.supervision ~retries:0 ())
          pool
          (fun _ -> raise (Boom 0))
          [| 0 |]
      with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { attempts = 1; _ } -> ());
  Alcotest.(check bool) "negative retries rejected" true
    (try
       ignore (Pool.supervision ~retries:(-1) ());
       false
     with Invalid_argument _ -> true)

let test_supervision_watchdog () =
  (* An expired watchdog abandons retries instead of spinning. *)
  let now = ref 0. in
  let budget = Budget.of_deadline ~now:(fun () -> !now) 1.0 in
  now := 5.;
  Pool.with_pool ~jobs:1 (fun pool ->
      let executions = ref 0 in
      match
        Pool.map
          ~supervision:(Pool.supervision ~retries:1000 ~watchdog:budget ())
          pool
          (fun x ->
            incr executions;
            raise (Boom x))
          [| 7 |]
      with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { index = 0; error = Boom 7; attempts; _ } ->
        (* Original execution only: the watchdog was already expired, so
           no retry ran. *)
        Alcotest.(check int) "no retry under expired watchdog" 1 !executions;
        Alcotest.(check int) "attempts reported" 1 attempts)

let test_supervision_retry_state_returned () =
  (* The retry's fresh per-domain state is merged into the returned
     states like any worker's, so caller-side merges stay complete. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let failed_once = ref false in
      let out, states =
        Pool.map_init
          ~supervision:(Pool.supervision ())
          pool
          ~init:(fun () -> ref 0)
          ~f:(fun acc x ->
            if x = 3 && not !failed_once then begin
              failed_once := true;
              raise (Boom x)
            end;
            incr acc;
            x)
          (Array.init 6 Fun.id)
      in
      Alcotest.(check (array int)) "results" (Array.init 6 Fun.id) out;
      Alcotest.(check int) "worker state + retry state" 2 (List.length states);
      Alcotest.(check int) "every item counted once" 6
        (List.fold_left (fun acc r -> acc + !r) 0 states))

let test_create_guards () =
  Alcotest.(check bool) "jobs 0 rejected" true
    (try
       ignore (Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true);
  let pool = Pool.create ~jobs:2 in
  Alcotest.(check int) "jobs recorded" 2 (Pool.jobs pool);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.(check bool) "use after shutdown rejected" true
    (try
       ignore (Pool.map pool Fun.id [| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_default_jobs_env () =
  let with_env value f =
    (match value with
    | Some v -> Unix.putenv "COMPASS_JOBS" v
    | None -> Unix.putenv "COMPASS_JOBS" "");
    Fun.protect ~finally:(fun () -> Unix.putenv "COMPASS_JOBS" "") f
  in
  with_env (Some "4") (fun () ->
      Alcotest.(check int) "COMPASS_JOBS=4" 4 (Pool.default_jobs ()));
  with_env (Some " 2 ") (fun () ->
      Alcotest.(check int) "whitespace tolerated" 2 (Pool.default_jobs ()));
  with_env (Some "nope") (fun () ->
      Alcotest.(check int) "malformed -> 1" 1 (Pool.default_jobs ()));
  with_env (Some "-3") (fun () ->
      Alcotest.(check int) "negative -> 1" 1 (Pool.default_jobs ()));
  with_env (Some "0") (fun () ->
      Alcotest.(check bool) "0 -> recommended >= 1" true (Pool.default_jobs () >= 1));
  with_env (Some "100000") (fun () ->
      Alcotest.(check int) "clamped" 128 (Pool.default_jobs ()))

let test_resolve_jobs () =
  Alcotest.(check int) "positive kept" 3 (Pool.resolve_jobs 3);
  Alcotest.(check int) "clamped" 128 (Pool.resolve_jobs 100000);
  Alcotest.(check int) "0 -> recommended domain count"
    (min 128 (Domain.recommended_domain_count ()))
    (Pool.resolve_jobs 0);
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Pool.resolve_jobs (-1));
       false
     with Invalid_argument _ -> true)

let prop_map_order_preserved =
  QCheck.Test.make ~name:"pool map preserves order" ~count:30
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      Pool.with_pool ~jobs (fun pool ->
          Pool.map pool (fun x -> x + 7) xs = seq_map (fun x -> x + 7) xs))

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty and tiny" `Quick test_map_empty_and_tiny;
          Alcotest.test_case "persistent workers" `Quick test_pool_is_persistent;
          Alcotest.test_case "map_init states" `Quick test_map_init_states;
          Alcotest.test_case "map_init sequential" `Quick
            test_map_init_sequential_single_state;
          QCheck_alcotest.to_alcotest prop_map_order_preserved;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "exceptions deterministic" `Quick
            test_exception_lowest_index_wins;
          Alcotest.test_case "create guards" `Quick test_create_guards;
          Alcotest.test_case "COMPASS_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "recovers transient failures" `Quick
            test_supervision_recovers_transient;
          Alcotest.test_case "exhausts retries" `Quick test_supervision_exhausts_retries;
          Alcotest.test_case "watchdog bounds retries" `Quick test_supervision_watchdog;
          Alcotest.test_case "retry state returned" `Quick
            test_supervision_retry_state_returned;
        ] );
    ]
