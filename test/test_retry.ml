(* The one retry policy: the doubling delay, bit for bit, under its 60 s
   cap; the seeded jitter range; argument checks; and the order of the
   bound and budget checks in [next]. *)

open Compass_util

let bits = Int64.bits_of_float

(* Without jitter the delay of retry k is exactly [min 60 (base *. 2. ** k)]
   — the formula every retrying site used before sharing this module. *)
let prop_doubling_bit_exact =
  QCheck.Test.make ~name:"delay = min 60 (base * 2^k), bit for bit" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair
           (oneof [ return 0.; float_range 1e-9 1e-3; float_range 0. 1.; float_range 0. 1e3 ])
           (int_range 0 1023)))
    (fun (base, k) ->
      let t = Retry.make ~retries:3 ~base_s:base () in
      bits (Retry.delay t ~attempt:k) = bits (Float.min 60. (base *. (2. ** float_of_int k))))

let prop_jitter_range =
  QCheck.Test.make ~name:"jitter stays in [1, 1.25)" ~count:200 QCheck.small_nat (fun seed ->
      let t = Retry.make ~jitter_seed:seed ~retries:1 ~base_s:1.0 () in
      List.for_all
        (fun _ ->
          let j = Retry.delay t ~attempt:0 in
          1. <= j && j < 1.25)
        (List.init 50 Fun.id))

let test_cap_and_edges () =
  let t = Retry.make ~retries:1 ~base_s:1e-3 () in
  Alcotest.(check (float 0.)) "capped" 60. (Retry.delay t ~attempt:5000);
  let zero = Retry.make ~retries:1 ~base_s:0. () in
  Alcotest.(check (float 0.)) "zero base stays zero" 0. (Retry.delay zero ~attempt:5000);
  let jittered = Retry.make ~jitter_seed:3 ~retries:1 ~base_s:1.0 () in
  Alcotest.(check (float 0.)) "jitter capped too" 60.
    (Retry.delay jittered ~attempt:10);
  let draws seed =
    let t = Retry.make ~jitter_seed:seed ~retries:1 ~base_s:1.0 () in
    List.init 5 (fun k -> Retry.delay t ~attempt:k)
  in
  Alcotest.(check (list (float 0.))) "same seed, same draws" (draws 7) (draws 7);
  Alcotest.(check bool) "seeds decorrelate" true (draws 0 <> draws 7)

let test_make_rejects () =
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative retries" (fun () -> Retry.make ~retries:(-1) ~base_s:1. ());
  rejects "negative base" (fun () -> Retry.make ~retries:1 ~base_s:(-1e-9) ());
  rejects "NaN base" (fun () -> Retry.make ~retries:1 ~base_s:Float.nan ());
  ignore (Retry.make ~retries:0 ~base_s:0. ())

(* [next] checks the bound before it polls the budget: an exhausted
   policy leaves an expired budget's hooks unrun. *)
let test_next_order () =
  let t = Retry.make ~retries:2 ~base_s:0.5 () in
  let decision = function
    | Retry.Again d -> Printf.sprintf "again %h" d
    | Retry.Exhausted -> "exhausted"
    | Retry.Expired -> "expired"
  in
  Alcotest.(check (list string)) "schedule" [ "again 0x1p-1"; "again 0x1p+0"; "exhausted" ]
    (List.map (fun attempt -> decision (Retry.next t ~attempt)) [ 0; 1; 2 ]);
  let now = ref 0. in
  let budget = Budget.of_deadline ~now:(fun () -> !now) 1. in
  let hooks = ref 0 in
  Budget.on_expiry budget (fun () -> incr hooks);
  now := 2.;
  Alcotest.(check string) "bound first" "exhausted" (decision (Retry.next ~budget t ~attempt:2));
  Alcotest.(check int) "budget not polled" 0 !hooks;
  Alcotest.(check string) "then the budget" "expired" (decision (Retry.next ~budget t ~attempt:0));
  Alcotest.(check int) "expiry hook ran" 1 !hooks

let () =
  Alcotest.run "retry"
    [
      ( "delay",
        [
          QCheck_alcotest.to_alcotest prop_doubling_bit_exact;
          QCheck_alcotest.to_alcotest prop_jitter_range;
          Alcotest.test_case "cap and edges" `Quick test_cap_and_edges;
        ] );
      ( "policy",
        [
          Alcotest.test_case "make rejects" `Quick test_make_rejects;
          Alcotest.test_case "next order" `Quick test_next_order;
        ] );
    ]
