(* The benchmark's statistics and its regression verdicts.  Quartile
   expectations are Python's statistics.quantiles(xs, n=4). *)

open Compass_perf

let float = Alcotest.float 1e-12
let floats = Alcotest.(list (float 1e-12))
let quartiles xs = let a, b, c = Stats.quartiles xs in [ a; b; c ]

let test_median () =
  Alcotest.check float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check float "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check float "single" 7. (Stats.median [ 7. ])

let test_quartiles () =
  Alcotest.check floats "two" [ 0.75; 1.5; 2.25 ] (quartiles [ 1.; 2. ]);
  Alcotest.check floats "three" [ 1.; 2.; 3. ] (quartiles [ 3.; 1.; 2. ]);
  Alcotest.check floats "five" [ 1.5; 3.; 4.5 ] (quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check floats "ten" [ 2.75; 5.5; 8.25 ] (quartiles ten);
  Alcotest.check float "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread ten)

let test_tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "ten samples support no tail" true (Stats.tail (upto 10) = None);
  let t = Option.get (Stats.tail (upto 11)) in
  Alcotest.(check (list int)) "eleven" [ 9; 10; 11 ] [ t.Stats.pct; t.beyond; t.samples ];
  Alcotest.check float "eleven value" 1. t.value;
  let t = Option.get (Stats.tail (List.rev (upto 300))) in
  Alcotest.(check (list int)) "three hundred" [ 96; 12; 300 ] [ t.Stats.pct; t.beyond; t.samples ];
  Alcotest.check float "three hundred value" 288. t.value;
  let t = Option.get (Stats.tail (upto 600)) in
  Alcotest.(check (list int)) "six hundred" [ 98; 12; 600 ] [ t.Stats.pct; t.beyond; t.samples ]

let test_geomean () =
  Alcotest.check float "geomean" 4. (Compass_util.Stats.geomean [ 1.; 4.; 16. ])

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Report.verdict_to_string v)) ( = )

let classify better bound base fresh = Report.classify ~better ~bound ~base ~fresh ()

let test_classify () =
  let open Measure in
  let flat x = [ x; x; x ] in
  Alcotest.check verdict "slower" Report.Worse (classify Lower 0.1 (flat 1.) (flat 1.2));
  Alcotest.check verdict "faster" Report.Better (classify Lower 0.1 (flat 1.) (flat 0.8));
  Alcotest.check verdict "within bound" Report.Same (classify Lower 0.1 (flat 1.) (flat 1.05));
  Alcotest.check verdict "higher is better" Report.Worse (classify Higher 0.1 (flat 10.) (flat 8.));
  Alcotest.check verdict "too noisy" Report.Unresolved
    (classify Lower 0.1 [ 1.; 1.5; 2.; 1.2 ] [ 1.1; 1.6; 2.1; 1.3 ]);
  Alcotest.check verdict "noisy, medians only" Report.Same
    (Report.classify ~medians_only:true ~better:Lower ~bound:0.1 ~base:[ 1.; 1.5; 2.; 1.2 ]
       ~fresh:[ 1.1; 1.6; 2.1; 1.3 ] ());
  Alcotest.check verdict "noisy but every run wins" Report.Better
    (classify Lower 0.1 [ 2.; 2.5; 3.; 2.2 ] [ 1.; 1.5; 1.9; 1.2 ]);
  Alcotest.check verdict "exact and equal" Report.Same (classify Lower 0. (flat 5.) (flat 5.));
  Alcotest.check verdict "exact and larger" Report.Worse
    (classify Lower 0. (flat 5.) (flat 5.000001));
  Alcotest.check verdict "exact zero base" Report.Worse (classify Lower 0. (flat 0.) (flat 1.))

let test_json () =
  let j = Json.of_string {|{"a": [1, 2.5e-3, -3], "b": {"c": "x\"y"}, "d": null, "e": true}|} in
  Alcotest.check float "number" 0.0025
    (Json.to_num (List.nth (Json.to_list (Json.member "a" j)) 1));
  Alcotest.(check string) "string" "x\"y" (Json.to_str (Json.member "c" (Json.member "b" j)));
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string j) = j);
  Alcotest.(check bool) "all digits" true
    (Json.of_string (Json.to_string (Json.Num 0.1)) = Json.Num 0.1)

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ("diff", [ Alcotest.test_case "classify" `Quick test_classify ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]
