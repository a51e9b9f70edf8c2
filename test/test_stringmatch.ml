open Stringmatch

let check = Alcotest.check
let int = Alcotest.int
let int_list = Alcotest.(list int)
let bool = Alcotest.bool

(* Every [(pattern, pos)] occurrence [Aho_corasick.scan] reports over
   [text], sorted. *)
let ac_hits t text =
  let acc = ref [] in
  Aho_corasick.scan t (Fmindex.Packed_text.of_string text) ~f:(fun ~pattern ~pos ->
      acc := (pattern, pos) :: !acc);
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Aho-Corasick                                                        *)

let test_ac_multi () =
  let t = Aho_corasick.build [| "ac"; "ca"; "acg" |] in
  let hits = ac_hits t "acacg" in
  check
    (Alcotest.list (Alcotest.pair int int))
    "all patterns found"
    [ (0, 0); (0, 2); (1, 1); (2, 2) ]
    hits

let test_ac_overlapping_outputs () =
  (* A pattern that is a suffix of another must be reported too. *)
  let t = Aho_corasick.build [| "aca"; "ca" |] in
  let hits = ac_hits t "aca" in
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
      let got = ac_hits t text in
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
(* k-mismatch: naive Hamming                                           *)

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

let test_hamming_negative_k_rejected () =
  match Hamming.search ~pattern:"a" ~text:"aa" ~k:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hamming should reject"

let () =
  Alcotest.run "stringmatch"
    ([
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
           Alcotest.test_case "negative k" `Quick test_hamming_negative_k_rejected;
         ] );
     ])
