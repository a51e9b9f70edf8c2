(* The differential fuzzing oracle: corpus replay (deterministic), a
   bounded fixed-seed fuzz smoke run, shrinker sanity against
   deliberately broken engines, degenerate-budget uniformity across all
   engines, the corpus text format, and index save/load feeding a fuzz
   replay. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let hits = Alcotest.(list (pair int int))

(* Under `dune runtest` the cwd is the test directory (corpus/* declared
   as deps); under a bare `dune exec` it is the workspace root. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

(* ------------------------------------------------------------------ *)
(* Corpus replay: every checked-in reproducer must keep all engines in
   agreement, forever. *)

let test_corpus_replay () =
  let results = Oracle.replay_dir corpus_dir in
  check bool "corpus is nonempty" true (List.length results >= 5);
  List.iter
    (fun (path, divs) ->
      match divs with
      | [] -> ()
      | d :: _ -> Alcotest.failf "%s: %s" path (Format.asprintf "%a" Oracle.pp_divergence d))
    results

(* ------------------------------------------------------------------ *)
(* Bounded fixed-seed fuzz smoke: the tier-1 incarnation of `kmm fuzz`.
   Small sizes keep it well under the runtest budget. *)

let fuzz_smoke ~iters ~max_text () =
  let r = Oracle.fuzz ~seed:42 ~iters ~max_text () in
  (match r.Oracle.divergences with
  | [] -> ()
  | d :: _ -> Alcotest.failf "fuzz smoke: %s" (Format.asprintf "%a" Oracle.pp_divergence d));
  check int "iterations all ran" iters r.Oracle.iters_run;
  check int "every generator class drawn"
    (List.length Oracle.all_classes)
    (List.length r.Oracle.by_class)

let test_fuzz_smoke = fuzz_smoke ~iters:400 ~max_text:120

(* Texts up to 4096 bp carry a bidir prefix table (q = 1..3 from 256 bp
   on), which the default sizes never reach. *)
let test_fuzz_smoke_long = fuzz_smoke ~iters:200 ~max_text:4096

(* ------------------------------------------------------------------ *)
(* Shrinker sanity: broken engines must be caught and minimized. *)

let reproducer_size c = String.length c.Oracle.text + String.length c.Oracle.pattern

let test_broken_engine_caught_and_shrunk () =
  (* Drops every hit at position 0: a boundary bug archetype. *)
  let broken =
    {
      Oracle.sub_name = "broken-drops-pos0";
      run = (fun _ c -> Some (List.filter (fun (p, _) -> p <> 0) (Oracle.reference c)));
    }
  in
  let r = Oracle.fuzz ~subjects:[ broken ] ~seed:5 ~iters:300 () in
  match r.Oracle.divergences with
  | [ d ] ->
      check string "subject named" "broken-drops-pos0" d.Oracle.div_subject;
      check bool "shrunk to <= 32 chars" true (reproducer_size d.Oracle.div_case <= 32);
      (* this minimal case is checked in as corpus/shrunk-broken-drops-pos0.case *)
      check bool "still failing after shrink" true
        (Oracle.reference d.Oracle.div_case
        <> List.filter (fun (p, _) -> p <> 0) (Oracle.reference d.Oracle.div_case))
  | ds -> Alcotest.failf "expected exactly one divergence, got %d" (List.length ds)

let test_broken_distance_engine_shrunk () =
  (* Off-by-one on reported distances — results keep the right
     positions, so only the distance comparison can catch it. *)
  let broken =
    {
      Oracle.sub_name = "broken-distance";
      run = (fun _ c -> Some (List.map (fun (p, d) -> (p, d + 1)) (Oracle.reference c)));
    }
  in
  let r = Oracle.fuzz ~subjects:[ broken ] ~seed:11 ~iters:300 () in
  match r.Oracle.divergences with
  | [ d ] -> check bool "shrunk to <= 32 chars" true (reproducer_size d.Oracle.div_case <= 32)
  | ds -> Alcotest.failf "expected exactly one divergence, got %d" (List.length ds)

let test_raising_engine_recorded () =
  let raising =
    { Oracle.sub_name = "broken-raises"; run = (fun _ _ -> failwith "engine exploded") }
  in
  let c = Oracle.make_case ~text:"acgt" ~pattern:"ac" ~k:1 in
  match Oracle.check_case ~subjects:[ raising ] c with
  | [ { Oracle.got = Oracle.Engine_error msg; _ } ] ->
      check bool "message kept" true
        (Stringmatch.Naive.find_all ~pattern:"exploded" ~text:msg <> [])
  | _ -> Alcotest.fail "expected one Engine_error divergence"

(* ------------------------------------------------------------------ *)
(* Degenerate budgets: k >= m answers every window at its true distance,
   identically for every engine (and clamps protect k = max_int). *)

let test_k_ge_m_uniform () =
  let text = "acgtacgtgg" in
  let idx = Kmismatch.build_index text in
  let n = String.length text in
  List.iter
    (fun (pattern, k) ->
      let m = String.length pattern in
      let expected = Stringmatch.Hamming.search ~pattern ~text ~k in
      (* the reference itself must list every window position *)
      check
        Alcotest.(list int)
        (Printf.sprintf "all windows (m=%d k=%d)" m k)
        (List.init (n - m + 1) (fun i -> i))
        (List.map fst expected);
      List.iter
        (fun engine ->
          check hits
            (Printf.sprintf "%s m=%d k=%d" (Kmismatch.engine_name engine) m k)
            expected
            (Test_util.run_hits idx ~engine ~pattern ~k))
        (Kmismatch.all_engines ()))
    [ ("acg", 3); ("acg", 7); ("tttt", 4); ("tttt", max_int); ("acgtacgtgg", 10) ]

(* ------------------------------------------------------------------ *)
(* Corpus format *)

let test_corpus_format_roundtrip () =
  let cases =
    [
      Oracle.make_case ~text:"acgt" ~pattern:"ac" ~k:0;
      Oracle.make_case ~text:"" ~pattern:"a" ~k:3;
      Oracle.make_case ~text:"aaaa" ~pattern:"tttt" ~k:max_int;
    ]
  in
  List.iter
    (fun c ->
      match Oracle.corpus_of_string (Oracle.corpus_to_string ~comment:[ "roundtrip" ] c) with
      | Ok c' -> check bool "case survives" true (c = c')
      | Error msg -> Alcotest.failf "roundtrip failed: %s" msg)
    cases

let test_corpus_format_errors () =
  let expect_err doc =
    match Oracle.corpus_of_string doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed doc %S" doc
  in
  expect_err "pattern ac\ntext acgt\n";          (* missing k *)
  expect_err "k 1\ntext acgt\n";                 (* missing pattern *)
  expect_err "k 1\npattern ac\n";                (* missing text *)
  expect_err "k x\npattern ac\ntext acgt\n";     (* bad int *)
  expect_err "k 1\npattern ac\ntext acgt\nbudget 3\n" (* unknown key *);
  expect_err "k -1\npattern ac\ntext acgt\n";    (* negative k *)
  expect_err "k 1\npattern axc\ntext acgt\n";    (* non-ACGT *)
  expect_err "k 1\npattern\ntext acgt\n" (* empty pattern *)

let test_corpus_tolerates_comments_and_crlf () =
  match Oracle.corpus_of_string "# c1\r\n\r\nk 1\r\npattern AC\r\ntext ACGT\r\n# c2\r\n" with
  | Ok c ->
      check string "text normalized" "acgt" c.Oracle.text;
      check string "pattern normalized" "ac" c.Oracle.pattern;
      check int "k" 1 c.Oracle.k
  | Error msg -> Alcotest.failf "CRLF doc rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Persistence: a saved/loaded index must answer a corpus replay exactly
   like the freshly built one. *)

let test_save_load_then_replay () =
  let case = Oracle.load_case (Filename.concat corpus_dir "degenerate-k-ge-m.case") in
  let idx = Kmismatch.build_index case.Oracle.text in
  let path = Filename.temp_file "oracle" ".fmi" in
  Kmismatch.save_index idx path;
  let idx' = Kmismatch.load_index path in
  Sys.remove path;
  check string "text round-trips" case.Oracle.text (Kmismatch.text idx');
  let expected = Oracle.reference case in
  List.iter
    (fun engine ->
      check hits
        ("loaded index: " ^ Kmismatch.engine_name engine)
        expected
        (Test_util.run_hits idx' ~engine ~pattern:case.Oracle.pattern ~k:case.Oracle.k))
    (Kmismatch.all_engines ())

(* ------------------------------------------------------------------ *)
(* Generator and shrinker properties *)

let prop_generate_valid =
  Test_util.qtest ~count:300 "generated cases satisfy the case invariants"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = Oracle.generate ~max_text:80 st in
      String.length c.Oracle.pattern >= 1
      && c.Oracle.k >= 0
      && String.for_all (fun ch -> String.contains "acgt" ch) c.Oracle.text
      && String.for_all (fun ch -> String.contains "acgt" ch) c.Oracle.pattern)

let prop_shrink_preserves_failure =
  Test_util.qtest ~count:50 "shrink output still fails its predicate"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = Oracle.generate ~max_text:60 st in
      (* a predicate unrelated to matching: text contains pattern's first
         character; cheap, and failure-preservation is what matters *)
      let pred c =
        c.Oracle.pattern <> ""
        && String.contains c.Oracle.text c.Oracle.pattern.[0]
      in
      (not (pred c))
      ||
      let c' = Oracle.shrink pred c in
      pred c' && reproducer_size c' <= reproducer_size c)

let () =
  Alcotest.run "oracle"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay" `Quick test_corpus_replay;
          Alcotest.test_case "format roundtrip" `Quick test_corpus_format_roundtrip;
          Alcotest.test_case "format errors" `Quick test_corpus_format_errors;
          Alcotest.test_case "comments and CRLF" `Quick test_corpus_tolerates_comments_and_crlf;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "fixed-seed smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "fixed-seed smoke, texts to 4096 bp" `Quick test_fuzz_smoke_long;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "drops-pos0 caught" `Quick test_broken_engine_caught_and_shrunk;
          Alcotest.test_case "distance bug caught" `Quick test_broken_distance_engine_shrunk;
          Alcotest.test_case "exceptions recorded" `Quick test_raising_engine_recorded;
          prop_shrink_preserves_failure;
        ] );
      ("degenerate_budget", [ Alcotest.test_case "k >= m uniform" `Quick test_k_ge_m_uniform ]);
      ("persistence", [ Alcotest.test_case "save/load then replay" `Quick test_save_load_then_replay ]);
      ("generators", [ prop_generate_valid ]);
    ]
