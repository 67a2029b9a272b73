(* Tests for partition groups (chromosomes) and their edit operations. *)

open Compass_core

let group = Alcotest.testable Fmt.(using Partition.cuts (Dump.array int)) Partition.equal

let test_of_cuts_ok () =
  let g = Partition.of_cuts [| 0; 3; 7; 10 |] in
  Alcotest.(check int) "count" 3 (Partition.partition_count g);
  Alcotest.(check int) "total" 10 (Partition.total_units g)

let test_of_cuts_rejects () =
  let bad cuts =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (Partition.of_cuts cuts);
         false
       with Invalid_argument _ -> true)
  in
  bad [| 0 |];
  bad [| 1; 5 |];
  bad [| 0; 5; 5 |];
  bad [| 0; 5; 3 |]

let test_of_spans_roundtrip () =
  let g = Partition.of_cuts [| 0; 4; 9 |] in
  Alcotest.check group "roundtrip" g (Partition.of_spans (Partition.spans g))

let test_of_spans_rejects_gap () =
  Alcotest.(check bool) "gap" true
    (try
       ignore
         (Partition.of_spans
            [ { Partition.start_ = 0; stop = 3 }; { Partition.start_ = 4; stop = 6 } ]);
       false
     with Invalid_argument _ -> true)

let test_singleton () =
  let g = Partition.singleton 5 in
  Alcotest.(check int) "one partition" 1 (Partition.partition_count g);
  Alcotest.(check int) "covers" 5 (Partition.total_units g)

let test_span_at () =
  let g = Partition.of_cuts [| 0; 3; 7 |] in
  let s = Partition.span_at g 1 in
  Alcotest.(check (pair int int)) "second span" (3, 7) (s.Partition.start_, s.Partition.stop);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Partition.span_at g 2);
       false
     with Invalid_argument _ -> true)

let test_partition_of_unit () =
  let g = Partition.of_cuts [| 0; 3; 7; 10 |] in
  Alcotest.(check int) "first" 0 (Partition.partition_of_unit g 0);
  Alcotest.(check int) "boundary" 1 (Partition.partition_of_unit g 3);
  Alcotest.(check int) "last" 2 (Partition.partition_of_unit g 9);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Partition.partition_of_unit g 10);
       false
     with Invalid_argument _ -> true)

let test_merge () =
  let g = Partition.of_cuts [| 0; 3; 7; 10 |] in
  Alcotest.check group "merge middle"
    (Partition.of_cuts [| 0; 3; 10 |])
    (Partition.merge g 1);
  Alcotest.check group "merge first" (Partition.of_cuts [| 0; 7; 10 |]) (Partition.merge g 0)

let test_split () =
  let g = Partition.of_cuts [| 0; 5 |] in
  Alcotest.check group "split" (Partition.of_cuts [| 0; 2; 5 |]) (Partition.split g 0 ~at:2);
  Alcotest.(check bool) "split at boundary rejected" true
    (try
       ignore (Partition.split g 0 ~at:0);
       false
     with Invalid_argument _ -> true)

let test_move () =
  let g = Partition.of_cuts [| 0; 3; 7 |] in
  Alcotest.check group "move right" (Partition.of_cuts [| 0; 4; 7 |]) (Partition.move g 0 ~delta:1);
  Alcotest.check group "move left" (Partition.of_cuts [| 0; 2; 7 |]) (Partition.move g 0 ~delta:(-1));
  Alcotest.(check bool) "emptying rejected" true
    (try
       ignore (Partition.move g 0 ~delta:(-3));
       false
     with Invalid_argument _ -> true)

let test_merge_split_inverse () =
  let g = Partition.of_cuts [| 0; 4; 9 |] in
  Alcotest.check group "split undoes merge" g
    (Partition.split (Partition.merge g 0) 0 ~at:4)

let test_cuts_copy_isolated () =
  let g = Partition.of_cuts [| 0; 4; 9 |] in
  let c = Partition.cuts g in
  c.(1) <- 99;
  Alcotest.check group "internal state unchanged" (Partition.of_cuts [| 0; 4; 9 |]) g

(* Properties on random groups. *)

let cuts_gen =
  QCheck.Gen.(
    let* m = int_range 2 60 in
    let* k = int_range 0 (m - 1) in
    let* interior = QCheck.Gen.list_repeat k (int_range 1 (m - 1)) in
    let cuts = List.sort_uniq compare ((0 :: m :: interior) @ []) in
    return (Array.of_list cuts))

let prop_spans_tile =
  QCheck.Test.make ~name:"spans tile [0,M)" ~count:300 (QCheck.make cuts_gen)
    (fun cuts ->
      let g = Partition.of_cuts cuts in
      let spans = Partition.spans g in
      let rec contiguous pos = function
        | [] -> pos = Partition.total_units g
        | s :: rest -> s.Partition.start_ = pos && contiguous s.Partition.stop rest
      in
      contiguous 0 spans)

let prop_partition_of_unit_consistent =
  QCheck.Test.make ~name:"partition_of_unit agrees with spans" ~count:200
    (QCheck.make cuts_gen) (fun cuts ->
      let g = Partition.of_cuts cuts in
      List.for_all
        (fun u ->
          let k = Partition.partition_of_unit g u in
          let s = Partition.span_at g k in
          u >= s.Partition.start_ && u < s.Partition.stop)
        (List.init (Partition.total_units g) (fun i -> i)))

let prop_merge_reduces_count =
  QCheck.Test.make ~name:"merge reduces partition count by one" ~count:200
    (QCheck.make cuts_gen) (fun cuts ->
      let g = Partition.of_cuts cuts in
      let k = Partition.partition_count g in
      k < 2 || Partition.partition_count (Partition.merge g 0) = k - 1)

let () =
  Alcotest.run "partition"
    [
      ( "construction",
        [
          Alcotest.test_case "of_cuts ok" `Quick test_of_cuts_ok;
          Alcotest.test_case "of_cuts rejects" `Quick test_of_cuts_rejects;
          Alcotest.test_case "of_spans roundtrip" `Quick test_of_spans_roundtrip;
          Alcotest.test_case "of_spans rejects gap" `Quick test_of_spans_rejects_gap;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "cuts copy isolated" `Quick test_cuts_copy_isolated;
        ] );
      ( "queries",
        [
          Alcotest.test_case "span_at" `Quick test_span_at;
          Alcotest.test_case "partition_of_unit" `Quick test_partition_of_unit;
        ] );
      ( "edits",
        [
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "merge/split inverse" `Quick test_merge_split_inverse;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_spans_tile;
          QCheck_alcotest.to_alcotest prop_partition_of_unit_consistent;
          QCheck_alcotest.to_alcotest prop_merge_reduces_count;
        ] );
    ]
