(* Chaos drills: torn-artifact salvage over an exhaustive truncation
   corpus, crash-consistent writes under injected failures, and the
   determinism of supervised recovery. *)

open Compass_core
open Compass_util

let setup () =
  let units =
    Unit_gen.generate (Compass_nn.Models.by_name "lenet5") Compass_arch.Config.chip_s
  in
  let v = Validity.build units in
  (v, Dataflow.context units)

let params = { Ga.quick_params with Ga.seed = 11; jobs = 1 }

let capture_checkpoints () =
  let v, ctx = setup () in
  let cks = ref [] in
  let result = Ga.optimize ~params ~on_checkpoint:(fun ck -> cks := ck :: !cks) ctx v ~batch:4 in
  (result, List.rev !cks)

(* The tentpole salvage guarantee, exhaustively: a checkpoint truncated
   at EVERY byte prefix either salvages to a strictly-reparseable
   checkpoint of no newer generation, or raises a located Located.Error —
   never an unhandled exception, never a silently-wrong population. *)
let test_checkpoint_truncation_corpus () =
  let _, cks = capture_checkpoints () in
  let ck = List.nth cks (List.length cks - 1) in
  let text = Plan_text.checkpoint_to_string ck in
  let n = String.length text in
  let salvaged = ref 0 in
  let rejected = ref 0 in
  for keep = 0 to n do
    let prefix = String.sub text 0 keep in
    match Plan_text.salvage_of_string prefix with
    | s ->
      incr salvaged;
      if s.Plan_text.generation > ck.Ga.ck_generation then
        Alcotest.failf "prefix %d salvaged a generation from the future" keep;
      if s.Plan_text.complete && keep <> n then
        Alcotest.failf "prefix %d claimed to be complete" keep;
      (* Whatever salvage returns must itself survive a strict round
         trip: recovery never fabricates an unloadable state. *)
      let reparsed =
        Plan_text.checkpoint_of_string (Plan_text.checkpoint_to_string s.Plan_text.recovered)
      in
      if reparsed.Ga.ck_generation <> s.Plan_text.generation then
        Alcotest.failf "prefix %d: salvaged checkpoint does not round-trip" keep
    | exception Compass_util.Located.Error _ -> incr rejected
    | exception e ->
      Alcotest.failf "prefix %d escaped with %s" keep (Printexc.to_string e)
  done;
  Alcotest.(check bool) "some prefixes salvage" true (!salvaged > 0);
  Alcotest.(check bool) "some prefixes reject" true (!rejected > 0);
  (* The full text is complete and drops nothing. *)
  let s = Plan_text.salvage_of_string text in
  Alcotest.(check bool) "full text complete" true s.Plan_text.complete;
  Alcotest.(check int) "nothing dropped" 0 s.Plan_text.dropped_records

(* A salvaged resume must continue the search exactly as the untorn
   checkpoint would have: tearing only the history section changes
   nothing about the trajectory. *)
let test_salvaged_resume_is_deterministic () =
  let v, ctx = setup () in
  let full, cks = capture_checkpoints () in
  let ck = List.nth cks (List.length cks - 1) in
  let text = Plan_text.checkpoint_to_string ck in
  (* Tear inside the final history record (drop its last few bytes). *)
  let torn = String.sub text 0 (String.length text - 5) in
  let s = Plan_text.salvage_of_string torn in
  Alcotest.(check bool) "tear was tolerated, not strict" false s.Plan_text.complete;
  Alcotest.(check int) "same generation" ck.Ga.ck_generation s.Plan_text.generation;
  let resumed = Ga.optimize ~params ~resume:s.Plan_text.recovered ctx v ~batch:4 in
  Alcotest.(check bool) "same best group" true
    (Partition.equal full.Ga.best.Ga.group resumed.Ga.best.Ga.group);
  Alcotest.(check (float 0.)) "same best fitness" full.Ga.best.Ga.fitness
    resumed.Ga.best.Ga.fitness

let test_plan_truncation_corpus () =
  (* Archived plans get the same no-unhandled-exception guarantee (no
     salvage path — a torn plan is rejected, never mis-loaded). *)
  let plan =
    Compiler.compile ~ga_params:params
      ~model:(Compass_nn.Models.by_name "lenet5")
      ~chip:Compass_arch.Config.chip_s ~batch:4 Compiler.Greedy
  in
  let text = Plan_text.to_string plan in
  for keep = 0 to String.length text - 1 do
    match Plan_text.of_string (String.sub text 0 keep) with
    | _ -> ()  (* a prefix that still parses is a complete, valid plan *)
    | exception Compass_util.Located.Error _ -> ()
    | exception e ->
      Alcotest.failf "plan prefix %d escaped with %s" keep (Printexc.to_string e)
  done

let with_temp_dir f =
  let dir = Filename.temp_file "compass-chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_journal_salvage () =
  let _, cks = capture_checkpoints () in
  let first = List.hd cks and last = List.nth cks (List.length cks - 1) in
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "journal.txt" in
  Plan_text.append_checkpoint path first;
  Plan_text.append_checkpoint path last;
  (* Intact journal: the newest block wins, strictly. *)
  let s = Plan_text.salvage_checkpoint path in
  Alcotest.(check int) "newest block" last.Ga.ck_generation s.Plan_text.generation;
  Alcotest.(check bool) "strict" true s.Plan_text.complete;
  (* Torn final append: fall back to the previous complete block. *)
  let t1 = Plan_text.checkpoint_to_string first in
  let contents = Artifact.read_file path in
  let torn = String.sub contents 0 (String.length t1 + 40) in
  let s = Plan_text.salvage_of_string torn in
  Alcotest.(check int) "previous block recovered" first.Ga.ck_generation
    s.Plan_text.generation;
  Alcotest.(check bool) "previous block is strict" true s.Plan_text.complete

(* Journal edge cases: a journal file with no content at all, and one
   whose very FIRST block is torn (no earlier complete block to fall
   back on), must both be rejected with a located diagnostic — never
   mis-salvaged into a bogus resume — while a torn first block followed
   by a complete append salvages the complete one. *)
let test_journal_salvage_edges () =
  let _, cks = capture_checkpoints () in
  let first = List.hd cks in
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "journal.txt" in
  (* Empty journal file. *)
  Artifact.append_durable path "";
  (match Plan_text.salvage_checkpoint path with
  | _ -> Alcotest.fail "empty journal salvaged"
  | exception Compass_util.Located.Error _ -> ());
  (* Torn first block: the only block is incomplete, nothing salvages. *)
  let t1 = Plan_text.checkpoint_to_string first in
  let torn_first =
    (* Tear on a record boundary, the way a durable append tears. *)
    let cut = String.rindex_from t1 (String.length t1 / 2) '\n' in
    String.sub t1 0 (cut + 1)
  in
  Artifact.append_durable path torn_first;
  (match Plan_text.salvage_checkpoint path with
  | _ -> Alcotest.fail "torn-first-block journal salvaged"
  | exception Compass_util.Located.Error _ -> ());
  (* A later durable append of a complete block makes the journal
     salvageable again: the torn prefix is skipped, not fatal. *)
  Artifact.append_durable path t1;
  let s = Plan_text.salvage_checkpoint path in
  Alcotest.(check int) "complete block recovered past the torn prefix"
    first.Ga.ck_generation s.Plan_text.generation;
  (* Nothing recoverable: the newest block's diagnostic points at its
     line of the journal, not at its line within the block. *)
  let corrupt =
    String.split_on_char '\n' t1
    |> List.map (fun l -> if String.starts_with ~prefix:"batch " l then "batch many" else l)
    |> String.concat "\n"
  in
  let block_lines = List.length (String.split_on_char '\n' t1) - 1 in
  Located_check.expect_located ~line:(block_lines + 3) ~col:7 ~mentions:"bad batch"
    (fun () -> Plan_text.salvage_of_string (corrupt ^ corrupt));
  (* Missing journal: located error, not a crash. *)
  match Plan_text.salvage_checkpoint (Filename.concat dir "nonexistent.txt") with
  | _ -> Alcotest.fail "missing journal salvaged"
  | exception (Compass_util.Located.Error _ | Sys_error _) -> ()

(* Crash-consistent writes: under every injected failure the destination
   keeps its previous contents and the directory keeps no litter; the
   reported error names the failing step, not the cleanup. *)
let test_atomic_write_under_chaos () =
  let big = String.init 200_000 (fun i -> Char.chr (33 + (i mod 90))) in
  let schedules =
    [
      ("artifact.write.open=raise", true);
      ("artifact.write.mid=raise", true);
      ("artifact.write.syscall=enospc", false);
      ("artifact.write.syscall=enospc@nth:2", false);  (* second 64KiB chunk *)
      ("artifact.write.fsync=eio", false);
      ("artifact.write.rename=enospc", false);
      ("artifact.write.mid=truncate:10;artifact.write.fsync=eio", false);
    ]
  in
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "artifact.txt" in
  Artifact.write_atomic path "previous generation";
  List.iter
    (fun (spec, injected) ->
      (Failpoint.with_schedule spec @@ fun () ->
       match Artifact.write_atomic path big with
       | () -> Alcotest.failf "%s: write unexpectedly succeeded" spec
       | exception Failpoint.Injected _ when injected -> ()
       | exception Sys_error msg when not injected ->
         let mentions sub =
           let n = String.length msg and m = String.length sub in
           let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
           go 0
         in
         if not (mentions path) then
           Alcotest.failf "%s: diagnostic %S does not locate the path" spec msg;
         if mentions "unlink" then
           Alcotest.failf "%s: cleanup error shadowed the original: %S" spec msg
       | exception e -> Alcotest.failf "%s: escaped with %s" spec (Printexc.to_string e));
      Alcotest.(check string)
        (spec ^ ": destination preserved")
        "previous generation" (Artifact.read_file path);
      Alcotest.(check (list string))
        (spec ^ ": no litter")
        [ "artifact.txt" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))
    schedules;
  (* Truncation that reaches the rename: the artifact is replaced by the
     torn payload — exactly the torn-file scenario salvage handles — but
     still atomically (no litter, no partial-then-grown file). *)
  (Failpoint.with_schedule "artifact.write.mid=truncate:10" @@ fun () ->
   Artifact.write_atomic path big);
  Alcotest.(check string) "torn payload written atomically" (String.sub big 0 10)
    (Artifact.read_file path)

let test_eintr_handling () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "artifact.txt" in
  let big = String.init 200_000 (fun i -> Char.chr (33 + (i mod 90))) in
  (* Transient EINTR on every other chunk write is retried transparently. *)
  (Failpoint.with_schedule "artifact.write.syscall=eintr@every:2" @@ fun () ->
   Artifact.write_atomic path big);
  Alcotest.(check int) "intact despite interruptions" (String.length big)
    (String.length (Artifact.read_file path));
  (* A wedged descriptor (EINTR forever) is bounded, not an infinite loop. *)
  (Failpoint.with_schedule "artifact.write.syscall=eintr@always" @@ fun () ->
   match Artifact.write_atomic path "new" with
   | () -> Alcotest.fail "unbounded EINTR loop terminated with success?"
   | exception Sys_error msg ->
     Alcotest.(check bool) "diagnostic mentions EINTR" true
       (let n = String.length msg in
        let rec go i = i + 5 <= n && (String.sub msg i 5 = "EINTR" || go (i + 1)) in
        go 0));
  Alcotest.(check int) "destination preserved" (String.length big)
    (String.length (Artifact.read_file path))

let test_append_durable () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "journal.txt" in
  Artifact.append_durable path "one\n";
  Artifact.append_durable path "two\n";
  Alcotest.(check string) "appends accumulate" "one\ntwo\n" (Artifact.read_file path);
  (* A failed append leaves the previous contents readable. *)
  (Failpoint.with_schedule "artifact.append.syscall=enospc" @@ fun () ->
   match Artifact.append_durable path "three\n" with
   | () -> Alcotest.fail "injected ENOSPC ignored"
   | exception Sys_error _ -> ());
  Alcotest.(check string) "prefix intact after torn append" "one\ntwo\n"
    (Artifact.read_file path)

(* Supervised recovery is invisible in the results: a GA run whose
   evaluations crash (and are retried) emits the same checkpoint stream
   as an unfailed run, for any worker count. *)
let test_ga_supervised_chaos_deterministic () =
  let v, ctx = setup () in
  let stream supervision jobs spec =
    let texts = ref [] in
    let run () =
      ignore
        (Ga.optimize
           ~params:{ params with Ga.jobs }
           ?supervision
           ~on_checkpoint:(fun ck -> texts := Plan_text.checkpoint_to_string ck :: !texts)
           ctx v ~batch:4)
    in
    (match spec with
    | None -> run ()
    | Some spec -> Failpoint.with_schedule spec run);
    List.rev !texts
  in
  let clean = stream None 1 None in
  let supervision = Some (Pool.supervision ~retries:3 ()) in
  let chaotic = stream supervision 1 (Some "pool.task=raise@nth:7") in
  Alcotest.(check (list string)) "recovered run byte-identical" clean chaotic;
  (* The checkpoint serializes the jobs param itself, so the jobs=2
     comparison needs a clean jobs=2 baseline. *)
  let clean2 = stream None 2 None in
  let chaotic2 = stream supervision 2 (Some "pool.task=raise@every:13") in
  Alcotest.(check (list string)) "recovered run byte-identical (jobs=2)" clean2 chaotic2;
  (* An armed-but-silent schedule must also be invisible. *)
  let armed = stream None 1 (Some "no.such.site=raise@always") in
  Alcotest.(check (list string)) "armed-not-firing byte-identical" clean armed

let test_ga_unsupervised_chaos_diagnosed () =
  let v, ctx = setup () in
  Failpoint.with_schedule "pool.task=raise@nth:4" @@ fun () ->
  match Ga.optimize ~params ctx v ~batch:4 with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Pool.Task_error { index = 3; error = Failpoint.Injected "pool.task"; _ } ->
    ()  (* at jobs=1 the 4th task guard is index 3 *)

let test_executor_supervised_chaos () =
  let model = Compass_nn.Models.by_name "lenet5" in
  let weights = Compass_nn.Executor.random_weights ~seed:7 model in
  let inputs =
    Array.init 4 (fun i -> Compass_nn.Executor.random_input ~seed:(100 + i) model)
  in
  let clean = Compass_nn.Executor.output_batch model weights inputs in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let recovered =
    Failpoint.with_schedule "pool.task=raise@nth:3" @@ fun () ->
    Compass_nn.Executor.output_batch ~pool
      ~supervision:(Pool.supervision ~retries:2 ())
      model weights inputs
  in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %d bit-identical" i)
        true
        (Compass_nn.Tensor.same_bits clean.(i) t))
    recovered

let () =
  Alcotest.run "chaos"
    [
      ( "salvage",
        [
          Alcotest.test_case "checkpoint truncation corpus" `Quick
            test_checkpoint_truncation_corpus;
          Alcotest.test_case "salvaged resume deterministic" `Quick
            test_salvaged_resume_is_deterministic;
          Alcotest.test_case "plan truncation corpus" `Quick test_plan_truncation_corpus;
          Alcotest.test_case "journal salvage" `Quick test_journal_salvage;
          Alcotest.test_case "journal salvage edges" `Quick test_journal_salvage_edges;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "atomic write under chaos" `Quick
            test_atomic_write_under_chaos;
          Alcotest.test_case "EINTR bounded and transparent" `Quick test_eintr_handling;
          Alcotest.test_case "durable append" `Quick test_append_durable;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "GA recovery byte-identical" `Quick
            test_ga_supervised_chaos_deterministic;
          Alcotest.test_case "GA failure located" `Quick
            test_ga_unsupervised_chaos_diagnosed;
          Alcotest.test_case "executor recovery bit-identical" `Quick
            test_executor_supervised_chaos;
        ] );
    ]
