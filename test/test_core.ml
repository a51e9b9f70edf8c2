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
     R_4 = t vs g = {1}.  R_i is R_0i. *)
  let r i = Mismatch_array.rij "tcacg" ~i:0 ~j:i ~limit:5 in
  check (Alcotest.array int) "R1" [| 1; 2; 3; 4 |] (r 1);
  check (Alcotest.array int) "R2" [| 1; 3 |] (r 2);
  check (Alcotest.array int) "R3" [| 1; 2 |] (r 3);
  check (Alcotest.array int) "R4" [| 1 |] (r 4);
  check (Alcotest.array int) "R0 empty" [||] (r 0)

let test_r_tables_limit () =
  (* An array holds at most [limit] entries. *)
  check (Alcotest.array int) "periodic: none" [||]
    (Mismatch_array.rij "tttttttttt" ~i:0 ~j:1 ~limit:3);
  check int "capped at the limit" 3
    (Array.length (Mismatch_array.rij "tgtgtgtgtg" ~i:0 ~j:1 ~limit:3))

let naive_shift r i ~limit =
  let m = String.length r in
  Mismatch_array.naive_pairwise (String.sub r 0 (m - i)) (String.sub r i (m - i)) ~limit

let prop_r_tables =
  Test_util.qtest ~count:300 "R_i = naive shift mismatches"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:2 ~hi:80 ()) (int_range 0 5))
    (fun (r, k) ->
      let ok = ref true in
      for i = 1 to String.length r - 1 do
        if Mismatch_array.rij r ~i:0 ~j:i ~limit:(k + 2) <> naive_shift r i ~limit:(k + 2)
        then ok := false
      done;
      !ok)

let test_mismatch_array_validation () =
  match Mismatch_array.rij "acg" ~i:0 ~j:5 ~limit:1 with
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
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let search chain_skip =
        M_tree.search ~config:{ M_tree.default_config with chain_skip } fm ~pattern ~k
      in
      search true = search false)

let test_m_tree_derivations_fire () =
  (* On a repetitive genome the hash table must hit: derivations > 0. *)
  let text = String.concat "" (List.init 60 (fun _ -> "acgtagct")) in
  let idx = Kmismatch.build_index text in
  let obs = Obs.create () in
  ignore
    (Kmismatch.run idx
       (Kmismatch.Query.make ~obs ~engine:Kmismatch.M_tree ~pattern:"acgtagctacgt" ~k:2 ()));
  check bool "derivations fired" true (Obs.counter_value obs "engine.derivations" > 0)

let test_m_tree_cheaper_than_s_tree () =
  (* The headline claim: Algorithm A spends fewer rank operations than the
     plain BWT search on repetitive texts. *)
  let text =
    String.concat "" (List.init 100 (fun i -> if i mod 7 = 0 then "acgtacct" else "acgtagct"))
  in
  let idx = Kmismatch.build_index text in
  let pattern = "acgtagctacgtagct" in
  let query engine =
    let obs = Obs.create () in
    let r = Kmismatch.run idx (Kmismatch.Query.make ~obs ~engine ~pattern ~k:3 ()) in
    (r.hits, Obs.counter_value obs "engine.rank_calls")
  in
  let s_hits, s_ranks = query Kmismatch.S_tree_no_delta
  and m_hits, m_ranks = query Kmismatch.M_tree in
  check hits "same results" s_hits m_hits;
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
     absent), delta(3) = 0 (every substring of aca occurs).  The array is
     capped at k+1: k = 0 already reads delta(1) as 1, k >= m as 2. *)
  let idx = Kmismatch.build_index "acagaca" in
  let delta k = M_tree.delta_heuristic (Kmismatch.fm_rev idx) ~pattern:"tcaca" ~k in
  List.iter
    (fun k ->
      let d = delta k in
      check int (Printf.sprintf "delta(1) at k=%d" k) (min 2 (k + 1)) d.(1);
      check int (Printf.sprintf "delta(3) at k=%d" k) 0 d.(3))
    [ 0; 1; 2; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Amir specifics                                                      *)

let test_amir_blocks () =
  let bs = Amir.blocks ~pattern:"acgtacgtacgtacgt" ~k:2 in
  check int "2k blocks" 4 (List.length bs);
  List.iter (fun (_, b) -> check int "block length" 4 (String.length b)) bs;
  check (Alcotest.list int) "offsets" [ 0; 4; 8; 12 ] (List.map fst bs);
  (* Too short for useful blocks: fall back. *)
  check int "fallback" 0 (List.length (Amir.blocks ~pattern:"acg" ~k:2))

(* A pattern too short for 2k blocks (m < 4k) verifies every window in
   place: the search's garbage is its hit list and O(m) set-up, so it
   grows with the hits, not with the n windows scanned.  Clock-free:
   [Gc.minor_words] counts allocation exactly. *)
let test_amir_short_pattern_garbage () =
  let text = Test_util.random_dna (Random.State.make [| 5 |]) 1_000_000 in
  let ptext = Fmindex.Packed_text.of_string text in
  let pattern = "acgtacgtacgt" and k = 4 in
  check int "no blocks" 0 (List.length (Amir.blocks ~pattern ~k));
  let w0 = Gc.minor_words () in
  let found = Amir.search ~ptext ~pattern ~k in
  let words = Gc.minor_words () -. w0 in
  let nhits = List.length found in
  check bool "some hits" true (nhits > 0);
  check hits "hits = naive" (Stringmatch.Hamming.search ~pattern ~text ~k) found;
  (* a hit is one pair and one cons cell: 6 words *)
  let bound = float_of_int ((6 * nhits) + 4096) in
  if words > bound then
    Alcotest.failf "%.0f minor words for %d hits over %d windows (bound %.0f)"
      words nhits (String.length text - String.length pattern + 1) bound

(* A text of [n] bases with repeats: random runs, near-copies of
   earlier stretches (a substitution per ~50 bases) and short tandem
   runs, so blocks occur many times and windows collect several marks. *)
let repeat_text st n =
  let b = Buffer.create n in
  let base () = "acgt".[Random.State.int st 4] in
  while Buffer.length b < n do
    let len = min (n - Buffer.length b) (1 + Random.State.int st 200) in
    let have = Buffer.length b in
    match Random.State.int st 3 with
    | 0 when have > 0 ->
        let src = Random.State.int st have in
        for i = 0 to len - 1 do
          let c = Buffer.nth b (src + (i mod (have - src))) in
          Buffer.add_char b (if Random.State.int st 50 = 0 then base () else c)
        done
    | 1 ->
        let unit = String.init (1 + Random.State.int st 4) (fun _ -> base ()) in
        for i = 0 to len - 1 do
          Buffer.add_char b unit.[i mod String.length unit]
        done
    | _ -> for _ = 1 to len do Buffer.add_char b (base ()) done
  done;
  Buffer.contents b

(* [Amir.search] answers exactly as the naive scan, on every path: the
   block filter (k = 0 included), the scan-all fallback of patterns too
   short for blocks (m < 4k), k >= m, m = n, and windows at 0 and
   n - m.  Patterns are cut from the text with up to k + 1 planted
   substitutions. *)
let prop_amir_equals_hamming =
  Test_util.qtest ~count:300 "search = hamming"
    QCheck2.Gen.(
      tup4 (int_range 1 3000) (int_range 0 4) (int_range 0 4) (int_bound 1_000_000))
    (fun (n, k, where, seed) ->
      let st = Random.State.make [| seed |] in
      let text = repeat_text st n in
      let m =
        match where with
        | 2 -> n
        | _ when Random.State.bool st -> 1 + Random.State.int st (min n 12)
        | _ -> 1 + Random.State.int st (min n 120)
      in
      let start =
        match where with
        | 0 | 2 -> 0
        | 1 -> n - m
        | _ -> Random.State.int st (n - m + 1)
      in
      let pattern = Bytes.of_string (String.sub text start m) in
      for _ = 1 to Random.State.int st (k + 2) do
        Bytes.set pattern (Random.State.int st m) "acgt".[Random.State.int st 4]
      done;
      let pattern = Bytes.to_string pattern in
      Amir.search ~ptext:(Fmindex.Packed_text.of_string text) ~pattern ~k
      = Stringmatch.Hamming.search ~pattern ~text ~k)

(* Words allocated so far, minor and direct major alike: minor + major
   - promoted.  The minor part is [Gc.minor_words], which is exact;
   [Gc.counters]' own minor field misses the live minor heap on
   OCaml 5. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The block filter's allocation is its automaton, its ring of window
   counts and the packed pattern (linear in m) plus the hit list, not
   the text: an n-slot mark array would be 1M words here. *)
let test_amir_filter_allocation () =
  let n = 1_000_000 in
  let st = Random.State.make [| 9 |] in
  let text = Bytes.of_string (Test_util.random_dna st n) in
  let ptext_of pattern =
    (* three planted copies, so the hit list is not empty *)
    List.iter
      (fun pos -> Bytes.blit_string pattern 0 text pos (String.length pattern))
      [ 1_000; 500_000; n - String.length pattern ];
    Fmindex.Packed_text.of_string (Bytes.to_string text)
  in
  List.iter
    (fun (m, k) ->
      let pattern = Test_util.random_dna st m in
      let ptext = ptext_of pattern in
      check bool "filtered" true (Amir.blocks ~pattern ~k <> []);
      let w0 = allocated_words () in
      let found = Amir.search ~ptext ~pattern ~k in
      let words = allocated_words () -. w0 in
      let nhits = List.length found in
      check bool "planted copies found" true (nhits >= 3);
      (* a hit is one pair and one cons cell, twice over for the
         ascending list: 9 words *)
      let bound = float_of_int ((32 * m) + (9 * nhits) + 1024) in
      if words > bound then
        Alcotest.failf "m = %d, k = %d: %.0f words for %d hits (bound %.0f)" m k
          words nhits bound)
    [ (40, 0); (40, 2); (100, 2); (100, 4); (1000, 3) ]

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
          Alcotest.test_case "validation" `Quick test_mismatch_array_validation;
          prop_r_tables;
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
      ( "amir",
        [
          Alcotest.test_case "blocks" `Quick test_amir_blocks;
          Alcotest.test_case "short-pattern garbage grows with hits" `Quick
            test_amir_short_pattern_garbage;
          prop_amir_equals_hamming;
          Alcotest.test_case "filter allocation is O(m + hits)" `Quick
            test_amir_filter_allocation;
        ] );
      ( "integration",
        [ Alcotest.test_case "read mapping end to end" `Quick test_read_mapping_end_to_end ] );
    ]
