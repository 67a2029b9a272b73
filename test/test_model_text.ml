(* Tests for the textual model format (the ONNX-substitute front end). *)

open Compass_nn

let lenet_text =
  {|# LeNet-5
model lenet5
input in 1x28x28
conv conv1 from in out=6 kernel=5 pad=2
relu r1 from conv1
avgpool p1 from r1 kernel=2 stride=2
conv conv2 from p1 out=16 kernel=5 pad=0
relu r2 from conv2
avgpool p2 from r2 kernel=2 stride=2
flatten f from p2
linear fc1 from f out=120
relu r3 from fc1
linear fc2 from r3 out=84
relu r4 from fc2
linear fc3 from r4 out=10
|}

let residual_text =
  {|model residual
input in 3x32x32
conv stem from in out=16 kernel=3
relu r0 from stem
conv c1 from r0 out=16 kernel=3
relu r1 from c1
conv c2 from r1 out=16 kernel=3
add s from c2 r0
relu r2 from s
gap g from r2
linear fc from g out=10
|}

let test_parse_lenet () =
  let g = Model_text.parse lenet_text in
  Alcotest.(check string) "name" "lenet5" (Graph.name g);
  Alcotest.(check bool) "valid" true (Graph.validate g = Ok ());
  (* Same structure as the built-in builder. *)
  let builtin = Models.lenet5 () in
  Alcotest.(check int) "same weights" (Graph.total_weight_params builtin)
    (Graph.total_weight_params g);
  Alcotest.(check int) "same weighted layers"
    (List.length (Graph.weighted_nodes builtin))
    (List.length (Graph.weighted_nodes g))

let test_parse_residual () =
  let g = Model_text.parse residual_text in
  Alcotest.(check bool) "valid" true (Graph.validate g = Ok ());
  let adds =
    List.filter (fun n -> (Graph.layer g n).Layer.op = Layer.Add) (Graph.nodes g)
  in
  Alcotest.(check int) "one add" 1 (List.length adds)

let test_inferred_channels () =
  let g = Model_text.parse lenet_text in
  let conv2 =
    List.find (fun n -> (Graph.layer g n).Layer.name = "conv2") (Graph.nodes g)
  in
  match (Graph.layer g conv2).Layer.op with
  | Layer.Conv { in_channels; _ } -> Alcotest.(check int) "inferred" 6 in_channels
  | _ -> Alcotest.fail "not a conv"

let expect ~line ?col ~mentions text =
  Located_check.expect_located ~line ?col ~mentions (fun () -> Model_text.parse text)

let test_error_unknown_op () =
  expect ~line:3 ~col:1 ~mentions:"unknown operator foo" "model m\ninput in 4\nfoo x from in\n"

let test_error_unknown_producer () =
  expect ~line:3 ~col:13 ~mentions:"unknown producer ghost"
    "model m\ninput in 4\nrelu r from ghost\n"

let test_error_missing_attr () =
  expect ~line:3 ~mentions:"missing attribute out"
    "model m\ninput in 3x8x8\nconv c from in kernel=3\n"

let test_error_duplicate_name () =
  expect ~line:3 ~col:6 ~mentions:"duplicate node name in"
    "model m\ninput in 4\nrelu in from in\n"

let test_error_shape_mismatch () =
  (* Linear on a feature map must point at the offending line. *)
  expect ~line:3 ~mentions:"producer is a feature map"
    "model m\ninput in 3x8x8\nlinear fc from in out=10\n"

let test_error_empty () = expect ~line:0 ~mentions:"empty description" ""

let test_error_bad_shape () =
  expect ~line:2 ~col:10 ~mentions:"bad shape \"3x\"" "model m\ninput in 3x\n"

(* Corpus of malformed inputs: every case must fail with a *located*
   diagnostic (correct line, and the offending token's column where it
   exists), never a bare exception. *)

let test_corpus_located () =
  (* Non-integer attribute value, at the value's column. *)
  expect ~line:3 ~col:20 ~mentions:"attribute out: \"banana\" is not an integer"
    "model m\ninput in 3x8x8\nconv c from in out=banana kernel=3\n";
  (* Unknown operator names its column too. *)
  expect ~line:3 ~col:1 ~mentions:"unknown operator warp"
    "model m\ninput in 4\nwarp w from in\n";
  (* Unknown attribute. *)
  expect ~line:3 ~col:31 ~mentions:"unknown attribute zap"
    "model m\ninput in 3x8x8\nconv c from in out=4 kernel=3 zap=1\n";
  (* Bare word where key=value expected. *)
  expect ~line:3 ~col:25 ~mentions:"expected key=value"
    "model m\ninput in 8\nlinear fc from in out=4 oops\n";
  (* Columns count from the raw line: indentation and comments do not
     shift them. *)
  expect ~line:3 ~col:25 ~mentions:"is not an integer"
    "model m # c\n  input in 8\n  linear fc from in out=x\n"

let test_corpus_constructor_errors () =
  (* Invalid layer parameters surface as located diagnostics, not raw
     Invalid_argument from the layer smart constructors. *)
  expect ~line:3 ~mentions:"" "model m\ninput in 3x8x8\nconv c from in out=4 kernel=0\n";
  expect ~line:3 ~mentions:"" "model m\ninput in 3x8x8\ndepthwise d from in kernel=0\n";
  expect ~line:3 ~mentions:"" "model m\ninput in 8\nlinear fc from in out=-3\n";
  expect ~line:3 ~mentions:"" "model m\ninput in 3x8x8\nmaxpool p from in kernel=-2\n";
  (* Bad shapes, including non-positive dimensions. *)
  expect ~line:2 ~col:10 ~mentions:"bad shape" "model m\ninput in 0x8x8\n";
  expect ~line:2 ~col:10 ~mentions:"bad shape" "model m\ninput in 3x8x8x8\n";
  expect ~line:2 ~col:10 ~mentions:"bad shape" "model m\ninput in -4\n"

let test_corpus_truncation () =
  (* Descriptions cut off mid-way fail cleanly at the right line. *)
  expect ~line:3 ~mentions:"missing attribute" "model m\ninput in 3x8x8\nconv c from in\n"
  (* attrs lost *);
  expect ~line:3 ~mentions:"needs a name" "model m\ninput in 3x8x8\nconv\n" (* name lost *);
  expect ~line:2 ~mentions:"exactly one shape" "model m\ninput in\n" (* shape lost *);
  (* A consumer statement whose producer line vanished. *)
  expect ~line:2 ~col:13 ~mentions:"unknown producer in"
    "model m\nconv c from in out=4 kernel=3\n";
  expect ~line:0 ~mentions:"empty description" "" (* everything lost *)

let test_comments_and_blanks () =
  let g = Model_text.parse "# header\n\nmodel m\n  # indented comment\ninput in 8\nlinear fc from in out=4 # trailing\n" in
  Alcotest.(check int) "two nodes" 2 (Graph.node_count g)

let test_groups_roundtrip () =
  let text =
    "model grp\ninput in 8x8x8\ndepthwise dw from in kernel=3\nconv pw from dw out=16 kernel=1 pad=0 groups=2\ngap g from pw\nlinear fc from g out=4\n"
  in
  let g = Model_text.parse text in
  let reparsed = Model_text.parse (Model_text.to_string g) in
  Alcotest.(check int) "params survive" (Graph.total_weight_params g)
    (Graph.total_weight_params reparsed);
  let dw = List.find (fun n -> (Graph.layer g n).Layer.name = "dw") (Graph.nodes g) in
  match (Graph.layer g dw).Layer.op with
  | Layer.Conv { groups; _ } -> Alcotest.(check int) "depthwise groups" 8 groups
  | _ -> Alcotest.fail "dw is not a conv"

let test_roundtrip_zoo () =
  List.iter
    (fun name ->
      let original = Models.by_name name in
      let text = Model_text.to_string original in
      let reparsed = Model_text.parse text in
      Alcotest.(check string) (name ^ " name") (Graph.name original) (Graph.name reparsed);
      Alcotest.(check int)
        (name ^ " node count")
        (Graph.node_count original) (Graph.node_count reparsed);
      Alcotest.(check int)
        (name ^ " weights")
        (Graph.total_weight_params original)
        (Graph.total_weight_params reparsed);
      (* Per-node shapes survive the round trip. *)
      List.iter
        (fun node ->
          Alcotest.(check bool) (name ^ " shape") true
            (Shape.equal (Graph.shape_of original node) (Graph.shape_of reparsed node)))
        (Graph.nodes original))
    Models.all_names

let test_parse_file () =
  let path = Filename.temp_file "compass" ".model" in
  let oc = open_out path in
  output_string oc lenet_text;
  close_out oc;
  let g = Model_text.parse_file path in
  Alcotest.(check string) "loaded" "lenet5" (Graph.name g);
  (* File errors name the file. *)
  let oc = open_out path in
  output_string oc "model m\nwarp w\n";
  close_out oc;
  (match Model_text.parse_file path with
  | _ -> Alcotest.fail "malformed file parsed"
  | exception Compass_util.Located.Error e ->
    Alcotest.(check string) "names the file"
      (path ^ ":2:1: unknown operator warp")
      (Compass_util.Located.render e));
  Sys.remove path

let test_parsed_model_compiles () =
  let g = Model_text.parse residual_text in
  let plan =
    Compass_core.Compiler.compile ~ga_params:Compass_core.Ga.quick_params ~model:g
      ~chip:Compass_arch.Config.chip_s ~batch:4 Compass_core.Compiler.Compass
  in
  Alcotest.(check bool) "throughput positive" true
    (plan.Compass_core.Compiler.perf.Compass_core.Estimator.throughput_per_s > 0.)

(* Property: graphs written then parsed keep their per-layer MVM counts. *)

let prop_roundtrip_mvms =
  QCheck.Test.make ~name:"roundtrip preserves mvm counts" ~count:20
    (QCheck.make (QCheck.Gen.oneofl Models.all_names))
    (fun name ->
      let original = Models.by_name name in
      let reparsed = Model_text.parse (Model_text.to_string original) in
      List.for_all
        (fun node -> Graph.mvms_of original node = Graph.mvms_of reparsed node)
        (Graph.nodes original))

let () =
  Alcotest.run "model_text"
    [
      ( "parse",
        [
          Alcotest.test_case "lenet" `Quick test_parse_lenet;
          Alcotest.test_case "residual" `Quick test_parse_residual;
          Alcotest.test_case "inferred channels" `Quick test_inferred_channels;
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
          Alcotest.test_case "parse file" `Quick test_parse_file;
          Alcotest.test_case "parsed model compiles" `Quick test_parsed_model_compiles;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown op" `Quick test_error_unknown_op;
          Alcotest.test_case "unknown producer" `Quick test_error_unknown_producer;
          Alcotest.test_case "missing attr" `Quick test_error_missing_attr;
          Alcotest.test_case "duplicate name" `Quick test_error_duplicate_name;
          Alcotest.test_case "shape mismatch" `Quick test_error_shape_mismatch;
          Alcotest.test_case "empty" `Quick test_error_empty;
          Alcotest.test_case "bad shape" `Quick test_error_bad_shape;
          Alcotest.test_case "located corpus" `Quick test_corpus_located;
          Alcotest.test_case "constructor errors located" `Quick
            test_corpus_constructor_errors;
          Alcotest.test_case "truncation corpus" `Quick test_corpus_truncation;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "zoo roundtrip" `Quick test_roundtrip_zoo;
          Alcotest.test_case "groups roundtrip" `Quick test_groups_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_mvms;
        ] );
    ]
