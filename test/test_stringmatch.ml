open Stringmatch

let check = Alcotest.check
let int = Alcotest.int
let int_list = Alcotest.(list int)
let bool = Alcotest.bool

let gen_text_pattern =
  QCheck2.Gen.(pair (Test_util.dna_gen ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:8 ()))

(* Sometimes plant the pattern so matches are likely. *)
let gen_planted =
  QCheck2.Gen.(
    pair (Test_util.dna_gen ~lo:20 ~hi:300 ()) (pair (Test_util.dna_gen ~lo:1 ~hi:8 ()) small_nat)
    >|= fun (text, (pat, pos)) ->
    let pos = pos mod max 1 (String.length text - String.length pat + 1) in
    let planted =
      String.sub text 0 pos ^ pat
      ^ String.sub text (pos + String.length pat)
          (String.length text - pos - String.length pat)
    in
    (planted, pat))

(* ------------------------------------------------------------------ *)
(* Exact matchers against the naive oracle                             *)

let agree_with_naive name finder =
  [
    Test_util.qtest ~count:300 (name ^ " = naive (random)") gen_text_pattern
      (fun (text, pattern) ->
        finder ~pattern ~text = Naive.find_all ~pattern ~text);
    Test_util.qtest ~count:300 (name ^ " = naive (planted)") gen_planted
      (fun (text, pattern) ->
        finder ~pattern ~text = Naive.find_all ~pattern ~text);
  ]

let test_kmp_basics () =
  check int_list "overlapping" [ 0; 1; 2 ] (Kmp.find_all ~pattern:"aa" ~text:"aaaa");
  check int_list "none" [] (Kmp.find_all ~pattern:"gg" ~text:"acacac");
  check int_list "at ends" [ 0; 4 ] (Kmp.find_all ~pattern:"ac" ~text:"acgtac")

let test_kmp_failure () =
  check (Alcotest.array int) "border table" [| 0; 0; 1; 2 |] (Kmp.failure "acac")

(* ------------------------------------------------------------------ *)
(* Aho-Corasick                                                        *)

let test_ac_multi () =
  let t = Aho_corasick.build [| "ac"; "ca"; "acg" |] in
  let hits = List.sort compare (Aho_corasick.find_all t "acacg") in
  check
    (Alcotest.list (Alcotest.pair int int))
    "all patterns found"
    [ (0, 0); (0, 2); (1, 1); (2, 2) ]
    hits

let test_ac_overlapping_outputs () =
  (* A pattern that is a suffix of another must be reported too. *)
  let t = Aho_corasick.build [| "aca"; "ca" |] in
  let hits = List.sort compare (Aho_corasick.find_all t "aca") in
  check (Alcotest.list (Alcotest.pair int int)) "suffix pattern" [ (0, 0); (1, 1) ] hits

let test_ac_empty_pattern_rejected () =
  match Aho_corasick.build [| "ac"; "" |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let prop_ac_equals_naive =
  Test_util.qtest ~count:200 "AC = per-pattern naive"
    QCheck2.Gen.(
      pair (Test_util.dna_gen ~hi:200 ())
        (array_size (int_range 1 5) (Test_util.dna_gen ~lo:1 ~hi:5 ())))
    (fun (text, patterns) ->
      let t = Aho_corasick.build patterns in
      let got = List.sort compare (Aho_corasick.find_all t text) in
      let expect =
        List.sort compare
          (List.concat
             (List.mapi
                (fun idx pattern ->
                  List.map (fun p -> (idx, p)) (Naive.find_all ~pattern ~text))
                (Array.to_list patterns)))
      in
      got = expect)

(* ------------------------------------------------------------------ *)
(* k-mismatch: naive Hamming and kangaroo                              *)

let naive_pairs ~pattern ~text ~k = Hamming.search ~pattern ~text ~k

let test_hamming_paper_example () =
  (* Paper §I: r = aaaaacaaac occurs at (1-based) position 3 of
     s = ccacacagaagcc with 4 mismatches. *)
  let text = "ccacacagaagcc" and pattern = "aaaaacaaac" in
  let hits = Hamming.search ~pattern ~text ~k:4 in
  check bool "position 2 (0-based) present" true (List.mem_assoc 2 hits);
  check int "with 4 mismatches" 4 (List.assoc 2 hits);
  let strict = Hamming.search ~pattern ~text ~k:3 in
  check bool "not within 3" false (List.mem_assoc 2 strict)

let test_hamming_k0_is_exact () =
  let text = "acgtacgt" and pattern = "acg" in
  check int_list "k=0" (Naive.find_all ~pattern ~text)
    (Hamming.positions ~pattern ~text ~k:0)

let test_hamming_k_ge_m_matches_everywhere () =
  let text = "acgtacgt" and pattern = "ttt" in
  check int "k >= m" 6 (List.length (Hamming.positions ~pattern ~text ~k:3))

let test_kangaroo_mismatch_positions () =
  let t = Kangaroo.make ~pattern:"aaca" ~text:"atcaaaca" in
  check int_list "offsets at 0" [ 1 ] (Kangaroo.mismatches_at t ~pos:0 ~limit:10);
  check int_list "offsets at 4" [] (Kangaroo.mismatches_at t ~pos:4 ~limit:10);
  check int_list "offsets at 1" [ 0; 1; 2 ] (Kangaroo.mismatches_at t ~pos:1 ~limit:10);
  check int_list "limit respected" [ 0; 1 ] (Kangaroo.mismatches_at t ~pos:1 ~limit:2)

let prop_kangaroo_equals_hamming =
  Test_util.qtest ~count:300 "kangaroo = naive hamming"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:1 ~hi:250 ()) (Test_util.dna_gen ~lo:1 ~hi:12 ())
        (int_range 0 6))
    (fun (text, pattern, k) ->
      String.length pattern > String.length text
      || Kangaroo.search ~pattern ~k text = naive_pairs ~pattern ~text ~k)

let test_kangaroo_bounds () =
  let t = Kangaroo.make ~pattern:"acg" ~text:"acgtacgt" in
  match Kangaroo.mismatches_at t ~pos:6 ~limit:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_negative_k_rejected () =
  (match Hamming.search ~pattern:"a" ~text:"aa" ~k:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hamming should reject");
  match Kangaroo.search ~pattern:"a" ~k:(-1) "aa" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kangaroo should reject"

let () =
  Alcotest.run "stringmatch"
    ([
       ( "kmp",
         [
           Alcotest.test_case "basics" `Quick test_kmp_basics;
           Alcotest.test_case "failure table" `Quick test_kmp_failure;
         ]
         @ agree_with_naive "kmp" Kmp.find_all );
       ( "aho_corasick",
         [
           Alcotest.test_case "multi pattern" `Quick test_ac_multi;
           Alcotest.test_case "overlapping outputs" `Quick test_ac_overlapping_outputs;
           Alcotest.test_case "empty pattern rejected" `Quick test_ac_empty_pattern_rejected;
           prop_ac_equals_naive;
         ] );
       ( "hamming",
         [
           Alcotest.test_case "paper example" `Quick test_hamming_paper_example;
           Alcotest.test_case "k=0 is exact" `Quick test_hamming_k0_is_exact;
           Alcotest.test_case "k >= m" `Quick test_hamming_k_ge_m_matches_everywhere;
         ] );
       ( "kangaroo",
         [
           Alcotest.test_case "mismatch positions" `Quick test_kangaroo_mismatch_positions;
           Alcotest.test_case "window bounds" `Quick test_kangaroo_bounds;
           Alcotest.test_case "negative k" `Quick test_negative_k_rejected;
           prop_kangaroo_equals_hamming;
         ] );
     ])
