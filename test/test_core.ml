open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let hits = Alcotest.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Mismatch arrays                                                     *)

let test_r_tables_paper_example () =
  (* Fig. 4: r = tcacg.  R_1 = mismatches of tcac vs cacg = every
     position; R_2 = tca vs acg = {1, 3}; R_3 = tc vs cg = {1, 2};
     R_4 = t vs g = {1}. *)
  let t = Mismatch_array.build "tcacg" ~k:3 in
  check (Alcotest.array int) "R1" [| 1; 2; 3; 4 |] (Mismatch_array.shift_table t 1);
  check (Alcotest.array int) "R2" [| 1; 3 |] (Mismatch_array.shift_table t 2);
  check (Alcotest.array int) "R3" [| 1; 2 |] (Mismatch_array.shift_table t 3);
  check (Alcotest.array int) "R4" [| 1 |] (Mismatch_array.shift_table t 4);
  check (Alcotest.array int) "R0 empty" [||] (Mismatch_array.shift_table t 0)

let test_r_tables_limit () =
  (* Tables hold at most k+2 entries. *)
  let t = Mismatch_array.build "tttttttttt" ~k:1 in
  (* shift 1 over aaaa... all-equal: no mismatches at all. *)
  check (Alcotest.array int) "periodic: none" [||] (Mismatch_array.shift_table t 1);
  let t2 = Mismatch_array.build "tgtgtgtgtg" ~k:1 in
  check int "capped at k+2" 3 (Array.length (Mismatch_array.shift_table t2 1))

let naive_shift r i ~limit =
  let m = String.length r in
  Mismatch_array.naive_pairwise (String.sub r 0 (m - i)) (String.sub r i (m - i)) ~limit

let prop_r_tables =
  Test_util.qtest ~count:300 "R_i = naive shift mismatches"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:2 ~hi:80 ()) (int_range 0 5))
    (fun (r, k) ->
      let t = Mismatch_array.build r ~k in
      let ok = ref true in
      for i = 1 to String.length r - 1 do
        if Mismatch_array.shift_table t i <> naive_shift r i ~limit:(k + 2) then
          ok := false
      done;
      !ok)

let test_merge_paper_example () =
  (* §IV.B: A1 = R_1 = [1;2;3;4], A2 = R_3... the paper merges
     A1 = [1;2;3;4], A2 = [1;3] with beta = cacg, gamma = acg (overlap 3),
     yielding the mismatches of beta vs gamma over the joint coordinates.
     Here we check merge on the two full arrays exactly as printed:
     result [1;2;3;4] capped to the overlap handled by the caller. *)
  let beta x = "cacg".[x - 1] and gamma x = "acgg".[x - 1] in
  let merged =
    Mismatch_array.merge ~a1:[| 1; 2; 3; 4 |] ~a2:[| 1; 3 |] ~beta ~gamma ~limit:10
  in
  check (Alcotest.array int) "merge" [| 1; 2; 3; 4 |] merged

let test_merge_cancellation () =
  (* A position in both arrays where beta and gamma agree must vanish. *)
  let beta x = "aa".[x - 1] and gamma x = "aa".[x - 1] in
  let merged = Mismatch_array.merge ~a1:[| 1; 2 |] ~a2:[| 1; 2 |] ~beta ~gamma ~limit:10 in
  check (Alcotest.array int) "cancel" [||] merged

let prop_merge =
  (* alpha, beta, gamma random of equal length: merging the full mismatch
     arrays of (alpha,beta) and (alpha,gamma) gives those of (beta,gamma). *)
  Test_util.qtest ~count:400 "merge correctness"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:1 ~hi:60 ()) (Test_util.dna_gen ~lo:1 ~hi:60 ())
        (Test_util.dna_gen ~lo:1 ~hi:60 ()))
    (fun (a, b, c) ->
      let n = min (String.length a) (min (String.length b) (String.length c)) in
      let a = String.sub a 0 n and b = String.sub b 0 n and c = String.sub c 0 n in
      let full x y = Mismatch_array.naive_pairwise x y ~limit:n in
      let beta x = b.[x - 1] and gamma x = c.[x - 1] in
      Mismatch_array.merge ~a1:(full a b) ~a2:(full a c) ~beta ~gamma ~limit:n
      = full b c)

let prop_derive_rij =
  (* derive (the paper's R_ij via merge of truncated tables, plus our exact
     completion) must equal the direct computation. *)
  Test_util.qtest ~count:400 "derive = pairwise"
    QCheck2.Gen.(tup3 (Test_util.dna_gen ~lo:3 ~hi:60 ()) (int_range 0 4) (pair small_nat small_nat))
    (fun (r, k, (i0, j0)) ->
      let m = String.length r in
      let i = i0 mod (m - 1) in
      let j = i + 1 + (j0 mod (m - 1 - i)) in
      let t = Mismatch_array.build r ~k in
      Mismatch_array.derive t ~i ~j
      = Mismatch_array.pairwise_lce t ~i ~j ~limit:(k + 2))

let test_mismatch_array_validation () =
  (match Mismatch_array.build "" ~k:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pattern");
  (match Mismatch_array.build "acg" ~k:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative k");
  let t = Mismatch_array.build "acg" ~k:1 in
  match Mismatch_array.shift_table t 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shift out of range"

(* ------------------------------------------------------------------ *)
(* Engine agreement                                                    *)

let oracle ~pattern ~text ~k = Stringmatch.Hamming.search ~pattern ~text ~k

let paper_target = "acagaca"
let paper_index = lazy (Kmismatch.build_index paper_target)

let test_paper_running_example () =
  (* §IV.A: r = tcaca, s = acagaca, k = 2 has exactly the two occurrences
     s[1..5] and s[3..7] (1-based), i.e. 0-based positions 0 and 2. *)
  let idx = Lazy.force paper_index in
  List.iter
    (fun engine ->
      let got = Test_util.run_hits idx ~engine ~pattern:"tcaca" ~k:2 in
      check hits
        ("paper example via " ^ Kmismatch.engine_name engine)
        [ (0, 2); (2, 2) ] got)
    (Kmismatch.all_engines ())

let test_intro_example () =
  (* §I: r = aaaaacaaac in s = ccacacagaagcc at position 2 (0-based) with
     exactly 4 mismatches. *)
  let idx = Kmismatch.build_index "ccacacagaagcc" in
  List.iter
    (fun engine ->
      let got = Test_util.run_hits idx ~engine ~pattern:"aaaaacaaac" ~k:4 in
      check bool
        ("intro example via " ^ Kmismatch.engine_name engine)
        true
        (List.mem (2, 4) got))
    (Kmismatch.all_engines ())

let engines_under_test = (Kmismatch.all_engines ())

let agreement_case ~count ~tlo ~thi ~plo ~phi ~kmax name =
  let gen =
    QCheck2.Gen.(
      tup3
        (Test_util.dna_gen ~lo:tlo ~hi:thi ())
        (Test_util.dna_gen ~lo:plo ~hi:phi ())
        (int_range 0 kmax))
  in
  List.map
    (fun engine ->
      Test_util.qtest ~count
        (Printf.sprintf "%s: %s = oracle" name (Kmismatch.engine_name engine))
        gen
        (fun (text, pattern, k) ->
          let idx = Kmismatch.build_index text in
          Test_util.run_hits idx ~engine ~pattern ~k = oracle ~pattern ~text ~k))
    engines_under_test

(* Planted occurrences: mutate a window of the text into the pattern with
   <= k errors so that matches are guaranteed to exist. *)
let gen_planted =
  QCheck2.Gen.(
    tup4 (Test_util.dna_gen ~lo:30 ~hi:300 ()) (int_range 5 20) (int_range 0 5)
      (pair small_nat small_nat)
    >|= fun (text, m, k, (pos0, seed)) ->
    let n = String.length text in
    let m = min m n in
    let pos = pos0 mod (n - m + 1) in
    let st = Random.State.make [| seed |] in
    let pat = Bytes.of_string (String.sub text pos m) in
    let errors = if k = 0 then 0 else Random.State.int st (k + 1) in
    for _ = 1 to errors do
      let off = Random.State.int st m in
      Bytes.set pat off [| 'a'; 'c'; 'g'; 't' |].(Random.State.int st 4)
    done;
    (text, Bytes.to_string pat, k))

let planted_agreement =
  List.map
    (fun engine ->
      Test_util.qtest ~count:200
        (Printf.sprintf "planted: %s = oracle" (Kmismatch.engine_name engine))
        gen_planted
        (fun (text, pattern, k) ->
          let idx = Kmismatch.build_index text in
          Test_util.run_hits idx ~engine ~pattern ~k = oracle ~pattern ~text ~k))
    engines_under_test

(* Repetitive texts are where derivations actually fire; build them from a
   small alphabet of repeated unit strings. *)
let gen_repetitive =
  QCheck2.Gen.(
    tup4 (Test_util.dna_gen ~lo:2 ~hi:6 ()) (int_range 5 40)
      (Test_util.dna_gen ~lo:3 ~hi:12 ())
      (int_range 0 4)
    >|= fun (unit_str, reps, pattern, k) ->
    let text = String.concat "" (List.init reps (fun _ -> unit_str)) in
    (text, pattern, k))

let repetitive_agreement =
  List.map
    (fun engine ->
      Test_util.qtest ~count:300
        (Printf.sprintf "repetitive: %s = oracle" (Kmismatch.engine_name engine))
        gen_repetitive
        (fun (text, pattern, k) ->
          let idx = Kmismatch.build_index text in
          Test_util.run_hits idx ~engine ~pattern ~k = oracle ~pattern ~text ~k))
    engines_under_test

let test_edge_cases () =
  let idx = Kmismatch.build_index "acgtacgt" in
  List.iter
    (fun engine ->
      let name = Kmismatch.engine_name engine in
      (* pattern longer than text *)
      check hits (name ^ ": long pattern") []
        (Test_util.run_hits idx ~engine ~pattern:"acgtacgtacgt" ~k:3);
      (* k = 0 equals exact matching *)
      check hits (name ^ ": k=0") [ (0, 0); (4, 0) ]
        (Test_util.run_hits idx ~engine ~pattern:"acgt" ~k:0);
      (* k >= m: every window matches *)
      check int (name ^ ": k>=m") 6
        (List.length (Test_util.run_hits idx ~engine ~pattern:"ttt" ~k:3));
      (* whole text as pattern *)
      check hits (name ^ ": whole text") [ (0, 0) ]
        (Test_util.run_hits idx ~engine ~pattern:"acgtacgt" ~k:1))
    (Kmismatch.all_engines ())

let test_validation () =
  let idx = Kmismatch.build_index "acgt" in
  List.iter
    (fun engine ->
      (match Test_util.run_hits idx ~engine ~pattern:"" ~k:1 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "empty pattern accepted");
      (match Test_util.run_hits idx ~engine ~pattern:"ac" ~k:(-1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative k accepted");
      match Test_util.run_hits idx ~engine ~pattern:"anc" ~k:1 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad character accepted")
    (Kmismatch.all_engines ())

let test_pattern_case_normalized () =
  let idx = Kmismatch.build_index "ACGTacgt" in
  check hits "uppercase pattern" [ (0, 0); (4, 0) ]
    (Test_util.run_hits idx ~engine:Kmismatch.M_tree ~pattern:"ACGT" ~k:0)

(* ------------------------------------------------------------------ *)
(* M-tree specifics                                                    *)

let test_m_tree_chain_skip_equivalence =
  Test_util.qtest ~count:300 "m-tree: chain_skip on = off" gen_repetitive
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      let with_skip =
        Test_util.run_hits ~config:{ M_tree.default_config with M_tree.chain_skip = true } idx
          ~engine:Kmismatch.M_tree ~pattern ~k
      in
      let without =
        Test_util.run_hits ~config:{ M_tree.default_config with M_tree.chain_skip = false } idx
          ~engine:Kmismatch.M_tree ~pattern ~k
      in
      with_skip = without)

let test_m_tree_derivations_fire () =
  (* On a repetitive genome the hash table must hit: derivations > 0. *)
  let text = String.concat "" (List.init 60 (fun _ -> "acgtagct")) in
  let idx = Kmismatch.build_index text in
  let r =
    Kmismatch.run idx
      (Kmismatch.Query.make ~engine:Kmismatch.M_tree ~pattern:"acgtagctacgt" ~k:2 ())
  in
  check bool "derivations fired" true (r.stats.Stats.derivations > 0)

let test_m_tree_cheaper_than_s_tree () =
  (* The headline claim: Algorithm A spends fewer rank operations than the
     plain BWT search on repetitive texts. *)
  let text =
    String.concat "" (List.init 100 (fun i -> if i mod 7 = 0 then "acgtacct" else "acgtagct"))
  in
  let idx = Kmismatch.build_index text in
  let pattern = "acgtagctacgtagct" in
  let query engine = Kmismatch.run idx (Kmismatch.Query.make ~engine ~pattern ~k:3 ()) in
  let s = query Kmismatch.S_tree_no_delta and m = query Kmismatch.M_tree in
  check hits "same results" s.hits m.hits;
  let s_ranks = s.stats.Stats.rank_calls and m_ranks = m.stats.Stats.rank_calls in
  check bool
    (Printf.sprintf "fewer rank calls (m=%d s=%d)" m_ranks s_ranks)
    true (m_ranks < s_ranks)

let test_s_tree_delta_soundness =
  (* The delta heuristic must never prune a real occurrence. *)
  Test_util.qtest ~count:200 "delta pruning sound" gen_planted
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      Test_util.run_hits idx ~engine:Kmismatch.S_tree ~pattern ~k
      = Test_util.run_hits idx ~engine:Kmismatch.S_tree_no_delta ~pattern ~k)

let test_delta_heuristic_paper_example () =
  (* §IV.A: r = tcaca over s = acagaca: delta(1) = 2 (t absent; cac
     absent), delta(3) = 0 (every substring of aca occurs). *)
  let idx = Kmismatch.build_index "acagaca" in
  let delta = S_tree.delta_heuristic (Kmismatch.fm_rev idx) ~pattern:"tcaca" in
  check int "delta(1)" 2 delta.(1);
  check int "delta(3)" 0 delta.(3)

(* ------------------------------------------------------------------ *)
(* Amir specifics                                                      *)

let test_amir_blocks () =
  let bs = Amir.blocks ~pattern:"acgtacgtacgtacgt" ~k:2 in
  check int "2k blocks" 4 (List.length bs);
  List.iter (fun (_, b) -> check int "block length" 4 (String.length b)) bs;
  check (Alcotest.list int) "offsets" [ 0; 4; 8; 12 ] (List.map fst bs);
  (* Too short for useful blocks: fall back. *)
  check int "fallback" 0 (List.length (Amir.blocks ~pattern:"acg" ~k:2))

(* ------------------------------------------------------------------ *)
(* Read-mapping integration                                            *)

let test_read_mapping_end_to_end () =
  (* Simulate reads; every read with <= k errors must be recovered at its
     origin by every engine. *)
  let genome =
    Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 4000; seed = 77 }
  in
  let idx = Kmismatch.of_sequence genome in
  let reads =
    Dna.Read_sim.simulate
      { Dna.Read_sim.default with count = 40; len = 60; error_rate = 0.03; seed = 8 }
      genome
  in
  let k = 4 in
  List.iter
    (fun r ->
      if r.Dna.Read_sim.errors <= k then begin
        let pattern = Dna.Sequence.to_string (Dna.Read_sim.forward_pattern r) in
        List.iter
          (fun engine ->
            let found = Test_util.run_hits idx ~engine ~pattern ~k in
            check bool
              (Printf.sprintf "read %d found by %s" r.Dna.Read_sim.id
                 (Kmismatch.engine_name engine))
              true
              (List.mem_assoc r.Dna.Read_sim.origin found
              && List.assoc r.Dna.Read_sim.origin found = r.Dna.Read_sim.errors))
          [ Kmismatch.M_tree; Kmismatch.S_tree; Kmismatch.Cole; Kmismatch.Amir ]
      end)
    reads

let () =
  Alcotest.run "core"
    [
      ( "mismatch_array",
        [
          Alcotest.test_case "paper R tables" `Quick test_r_tables_paper_example;
          Alcotest.test_case "table limits" `Quick test_r_tables_limit;
          Alcotest.test_case "merge paper example" `Quick test_merge_paper_example;
          Alcotest.test_case "merge cancellation" `Quick test_merge_cancellation;
          Alcotest.test_case "validation" `Quick test_mismatch_array_validation;
          prop_r_tables;
          prop_merge;
          prop_derive_rij;
        ] );
      ( "paper_examples",
        [
          Alcotest.test_case "running example (tcaca)" `Quick test_paper_running_example;
          Alcotest.test_case "intro example" `Quick test_intro_example;
          Alcotest.test_case "delta heuristic" `Quick test_delta_heuristic_paper_example;
        ] );
      ("agreement_random", agreement_case ~count:150 ~tlo:0 ~thi:200 ~plo:1 ~phi:12 ~kmax:4 "random");
      ("agreement_planted", planted_agreement);
      ("agreement_repetitive", repetitive_agreement);
      ( "edge_cases",
        [
          Alcotest.test_case "edges" `Quick test_edge_cases;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "case normalization" `Quick test_pattern_case_normalized;
        ] );
      ( "m_tree",
        [
          test_m_tree_chain_skip_equivalence;
          Alcotest.test_case "derivations fire" `Quick test_m_tree_derivations_fire;
          Alcotest.test_case "fewer rank calls" `Quick test_m_tree_cheaper_than_s_tree;
          test_s_tree_delta_soundness;
        ] );
      ("amir", [ Alcotest.test_case "blocks" `Quick test_amir_blocks ]);
      ( "integration",
        [ Alcotest.test_case "read mapping end to end" `Quick test_read_mapping_end_to_end ] );
    ]
