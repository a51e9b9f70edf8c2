open Fmindex

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool
let int_list = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* BWT                                                                 *)

let test_bwt_paper_example () =
  (* Paper §III.A: s = acagaca, BWT(s) = acg$caaa. *)
  check string "acagaca" "acg$caaa" (Bwt.of_text "acagaca")

let test_bwt_empty () = check string "empty" "$" (Bwt.of_text "")

let test_bwt_inverse_paper () =
  check string "inverse of paper example" "acagaca" (Bwt.inverse "acg$caaa")

let prop_bwt_roundtrip =
  Test_util.qtest ~count:300 "inverse . of_text = id" (Test_util.dna_gen ~hi:300 ())
    (fun s -> Bwt.inverse (Bwt.of_text s) = s)

let test_bwt_inverse_rejects () =
  let expect_invalid l =
    match Bwt.inverse l with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid "acgt";
  expect_invalid "a$c$"

let test_bwt_is_permutation () =
  let s = "gattacagattaca" in
  let l = Bwt.of_text s in
  let sorted x = List.sort compare (List.init (String.length x) (String.get x)) in
  check bool "permutation of s$" true (sorted l = sorted (s ^ "$"))

(* ------------------------------------------------------------------ *)
(* Packed BWT builder (the DNA SA-IS entry point)                      *)

(* [Bwt.of_packed_text] against an independent oracle: BWT(s$) through
   prefix doubling, the sentinel cut out of the lanes, and the
   row-indexed SA as the sentinel row followed by SA(s). *)
let packed_bwt_agrees s =
  let packed, row, sa = Bwt.of_packed_text (Packed_text.of_string s) in
  let sa_ref = Suffix.Suffix_array.build_doubling s in
  let l = Bwt.of_suffix_array s sa_ref in
  let srow = String.index l '$' in
  Packed_text.to_string packed
  = String.sub l 0 srow ^ String.sub l (srow + 1) (String.length s - srow)
  && row = srow
  && sa = Array.append [| String.length s |] sa_ref

let prop_packed_bwt =
  Test_util.qtest ~count:300 "packed BWT = doubling oracle"
    (Test_util.dna_gen ~hi:300 ()) packed_bwt_agrees

let test_packed_bwt_small_lengths () =
  (* Every n mod 4 (partial last byte), including n = 0 and n = 1. *)
  let st = Random.State.make [| 41 |] in
  for n = 0 to 17 do
    for _ = 1 to 8 do
      let s = Test_util.random_dna st n in
      if not (packed_bwt_agrees s) then Alcotest.failf "packed BWT wrong for %S" s
    done
  done

let reps p k = String.concat "" (List.init k (fun _ -> p))

let rec fibonacci_word a b n = if n = 0 then a else fibonacci_word b (b ^ a) (n - 1)

let test_packed_bwt_recursion () =
  (* Homopolymers have no LMS suffix but the sentinel; tandem repeats
     recurse once; nested repeats and the Fibonacci word recurse two to
     five levels deep. *)
  List.iter
    (fun s ->
      if not (packed_bwt_agrees s) then
        Alcotest.failf "packed BWT wrong for %S" (String.sub s 0 (min 24 (String.length s))))
    [
      String.make 1000 'a';
      String.make 999 't';
      String.make 500 'c' ^ "a";
      reps "ac" 500;
      reps "acg" 333 ^ "a";
      reps "ttga" 250;
      reps (reps "acg" 5 ^ "t") 40;
      reps (reps (reps "ac" 3 ^ "g") 3 ^ "t") 30;
      fibonacci_word "a" "ac" 15;
    ]

(* O(n) check that [sa] is the row-indexed suffix array of [s ^ "$"]: a
   permutation of 0..n with the sentinel first, and every adjacent pair
   ordered by its first character, then by the rank of the suffixes one
   position on. *)
let is_row_sa s sa =
  let n = String.length s in
  Array.length sa = n + 1
  && sa.(0) = n
  &&
  let rank = Array.make (n + 1) (-1) in
  Array.for_all Fun.id
    (Array.mapi
       (fun r p ->
         p >= 0 && p <= n && rank.(p) < 0
         &&
         (rank.(p) <- r;
          true))
       sa)
  &&
  let ok = ref true in
  for r = 1 to n - 1 do
    let p = sa.(r) and q = sa.(r + 1) in
    if not (s.[p] < s.[q] || (s.[p] = s.[q] && rank.(p + 1) < rank.(q + 1))) then
      ok := false
  done;
  !ok

let genome ~size ~seed =
  Dna.Sequence.to_string
    (Dna.Genome_gen.generate { Dna.Genome_gen.default with size; seed })

let bwt_string packed row =
  let l = Packed_text.to_string packed in
  String.sub l 0 row ^ "$" ^ String.sub l row (String.length l - row)

let test_packed_bwt_genome () =
  (* 200 kbp with 30% diverged repeats: at least two recursion levels. *)
  let s = genome ~size:200_000 ~seed:5 in
  let packed, row, sa = Bwt.of_packed_text (Packed_text.of_string s) in
  check bool "row-indexed SA" true (is_row_sa s sa);
  check bool "sentinel row" true (sa.(row) = 0);
  check string "BWT inverts to the text" s (Bwt.inverse (bwt_string packed row))

(* Digests captured from the previous SA-IS implementation: the index
   file bytes, and the forward BWT the bidirectional index ranks over,
   must not change with the builder. *)
let test_golden_index_bytes () =
  let s = genome ~size:300_000 ~seed:2017 in
  check string "serialized index digest" "d9005b7a4a6e0057c9d6de3dbe446cb7"
    (Digest.to_hex (Digest.string (Fm_index.serialize (Fm_index.build s))));
  let packed, row, _ = Bwt.of_packed_text (Packed_text.of_string s) in
  check string "forward BWT digest" "3b7f6d592dce4f17bb36f8e119b64013"
    (Digest.to_hex (Digest.string (bwt_string packed row)))

(* ------------------------------------------------------------------ *)
(* Occ / rankall                                                       *)

let naive_rank l c i =
  let count = ref 0 in
  for j = 0 to i - 1 do
    if Dna.Alphabet.code l.[j] = c then incr count
  done;
  !count

let test_occ_matches_naive () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun rate ->
      let s = Test_util.random_dna st 500 in
      let l = Bwt.of_text s in
      let occ = Occ.make ~rate l in
      for i = 0 to String.length l do
        for c = 0 to Dna.Alphabet.sigma - 1 do
          check int
            (Printf.sprintf "rank rate=%d c=%d i=%d" rate c i)
            (naive_rank l c i) (Occ.rank occ c i)
        done
      done)
    [ 1; 3; 16; 64; 128; 1000 ]

let test_occ_word_boundaries () =
  (* Indices straddling 2-bit lane words, block edges and the 65536-lane
     superblock edge, on a text long enough to have two superblocks. *)
  let st = Random.State.make [| 29 |] in
  let s = Test_util.random_dna st 66_000 in
  let l = Bwt.of_text s in
  let occ = Occ.make ~rate:32 l in
  let len = String.length l in
  let probes =
    List.concat_map
      (fun base -> [ base - 1; base; base + 1 ])
      [ 1; 31; 32; 64; 4096; 65504; 65536; 65568; len - 31; len ]
  in
  List.iter
    (fun i ->
      if i >= 0 && i <= len then
        for c = 0 to Dna.Alphabet.sigma - 1 do
          check int
            (Printf.sprintf "boundary rank c=%d i=%d" c i)
            (naive_rank l c i) (Occ.rank occ c i)
        done)
    probes

let prop_occ_matches_reference =
  (* The packed kernel against the seed's byte-scan implementation, kept
     as [Occ.Reference]: every rank at every index must agree. *)
  Test_util.qtest ~count:60 "packed rank = Reference rank"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:260 ()) (int_range 1 80))
    (fun (s, rate) ->
      let l = Bwt.of_text s in
      let packed = Occ.make ~rate l in
      let reference = Occ.Reference.make ~rate l in
      let ok = ref true in
      for i = 0 to String.length l do
        for c = 0 to Dna.Alphabet.sigma - 1 do
          if Occ.rank packed c i <> Occ.Reference.rank reference c i then ok := false
        done
      done;
      !ok)

let test_occ_rank_all_pair () =
  let st = Random.State.make [| 31 |] in
  let s = Test_util.random_dna st 700 in
  let l = Bwt.of_text s in
  let occ = Occ.make ~rate:64 l in
  let len = String.length l in
  let sigma = Dna.Alphabet.sigma in
  let los = Array.make sigma 0 and his = Array.make sigma 0 in
  for _ = 1 to 500 do
    let lo = Random.State.int st (len + 1) in
    let hi = lo + Random.State.int st (len + 1 - lo) in
    Occ.rank_all_pair occ lo hi los his;
    for c = 0 to sigma - 1 do
      check int (Printf.sprintf "pair lo c=%d lo=%d" c lo) (Occ.rank occ c lo) los.(c);
      check int (Printf.sprintf "pair hi c=%d hi=%d" c hi) (Occ.rank occ c hi) his.(c)
    done
  done

(* [Occ.lf] against the definition, LF(row) = C[x] + rank(x, row) for
   x the row's code, at both block geometries and with no, one and
   several sentinel rows. *)
let test_occ_get_lf () =
  let st = Random.State.make [| 37 |] in
  let with_sentinels l rows =
    let b = Bytes.of_string l in
    List.iter (fun r -> Bytes.set b r '$') rows;
    Bytes.to_string b
  in
  let s = Test_util.random_dna st 400 in
  let l = Bwt.of_text s in
  let cases =
    [
      ("bwt", l);
      ("no sentinel", s);
      ("three sentinels", with_sentinels s [ 0; 57; 399 ]);
    ]
  in
  List.iter
    (fun (name, l) ->
      List.iter
        (fun rate ->
          let occ = Occ.make ~rate l in
          let c = Array.make Dna.Alphabet.sigma 0 in
          String.iter
            (fun ch ->
              for x = Dna.Alphabet.code ch + 1 to Dna.Alphabet.sigma - 1 do
                c.(x) <- c.(x) + 1
              done)
            l;
          for row = 0 to String.length l - 1 do
            let x = Dna.Alphabet.code l.[row] in
            check int (Printf.sprintf "%s rate=%d get row=%d" name rate row) x (Occ.get occ row);
            check int
              (Printf.sprintf "%s rate=%d lf row=%d" name rate row)
              (c.(x) + naive_rank l x row) (Occ.lf occ c row)
          done;
          List.iter
            (fun row ->
              Alcotest.check_raises (Printf.sprintf "lf row=%d" row)
                (Invalid_argument "Occ.lf: index out of range")
                (fun () -> ignore (Occ.lf occ c row)))
            [ -1; String.length l ])
        [ 32; 128 ])
    cases

let test_occ_validation () =
  let l = Bwt.of_text "acgt" in
  (match Occ.make ~rate:0 l with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  let occ = Occ.make l in
  (match Occ.rank occ 9 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad code");
  match Occ.rank occ 1 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad index"

(* ------------------------------------------------------------------ *)
(* FM-index                                                            *)

let test_fm_paper_search () =
  (* Paper §III.A: searching aca in acagaca$ yields two occurrences. *)
  let fm = Fm_index.build "acagaca" in
  check int "count aca" 2 (Fm_index.count fm "aca");
  check int_list "positions" [ 0; 4 ] (Fm_index.find_all fm "aca")

let test_fm_empty_pattern () =
  let fm = Fm_index.build "acgt" in
  check int "empty pattern counts all rows" 5 (Fm_index.count fm "")

let test_fm_absent () =
  let fm = Fm_index.build "aaaa" in
  check int "absent" 0 (Fm_index.count fm "c");
  check int_list "absent positions" [] (Fm_index.find_all fm "ct")

let test_fm_longer_than_text () =
  let fm = Fm_index.build "acg" in
  check int "too long" 0 (Fm_index.count fm "acgt")

let prop_fm_equals_naive =
  Test_util.qtest ~count:300 "find_all = naive"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:250 ()) (Test_util.dna_gen ~lo:1 ~hi:8 ()))
    (fun (text, pattern) ->
      let fm = Fm_index.build text in
      Fm_index.find_all fm pattern = Stringmatch.Naive.find_all ~pattern ~text)

let prop_fm_sampling_rates =
  Test_util.qtest ~count:100 "locate independent of sa_rate"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:4 ~hi:150 ()) (Test_util.dna_gen ~lo:1 ~hi:4 ()))
    (fun (text, pattern) ->
      let a = Fm_index.build ~sa_rate:1 text in
      let b = Fm_index.build ~sa_rate:7 text in
      let c = Fm_index.build ~sa_rate:1000 text in
      Fm_index.find_all a pattern = Fm_index.find_all b pattern
      && Fm_index.find_all b pattern = Fm_index.find_all c pattern)

let test_fm_extend_steps_follow_paper () =
  (* Reproduce the three-step example of §III.A for r = aca over
     s = acagaca: the interval sizes are 4, 2, 2. *)
  let fm = Fm_index.build "acagaca" in
  let iv0 = Option.get (Fm_index.interval_of_char fm (Dna.Alphabet.code 'a')) in
  check int "F_a size" 4 (snd iv0 - fst iv0);
  let iv1 = Option.get (Fm_index.extend fm (Dna.Alphabet.code 'c') iv0) in
  check int "c-extension size" 2 (snd iv1 - fst iv1);
  let iv2 = Option.get (Fm_index.extend fm (Dna.Alphabet.code 'a') iv1) in
  check int "a-extension size" 2 (snd iv2 - fst iv2)

let test_fm_empty_text () =
  let fm = Fm_index.build "" in
  check int "length" 0 (Fm_index.length fm);
  check string "bwt" "$" (Fm_index.bwt fm);
  check int "no occurrences" 0 (Fm_index.count fm "a");
  check int_list "empty pattern row" [ 0 ] (Fm_index.locate fm (Fm_index.whole fm))

let test_fm_rejects_bad_text () =
  match Fm_index.build "acgn" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_fm_occ_rates_agree () =
  let st = Random.State.make [| 13 |] in
  let text = Test_util.random_dna st 400 in
  let pattern = String.sub text 100 5 in
  let a = Fm_index.build ~occ_rate:1 text in
  let b = Fm_index.build ~occ_rate:200 text in
  check int_list "occ rate does not change answers" (Fm_index.find_all a pattern)
    (Fm_index.find_all b pattern)

let test_fm_space_report () =
  let n = 1000 in
  let fm = Fm_index.build (Test_util.random_dna (Random.State.make [| 1 |]) n) in
  let report = Fm_index.space_report fm in
  List.iter (fun (_, v) -> check bool "positive" true (v > 0)) report;
  (* Exact accounting of the packed layout, from first principles.  At
     occ_rate 32 the 1000 payload bases (sentinel held out-of-band) pack
     into ceil(1000/32) = 32 interleaved blocks of 8 count bytes +
     32/4 payload bytes; one superblock of 4 counters, 1 sentinel row and
     sigma totals round out the rank structure. *)
  let occ_bytes = (32 * (8 + (32 / 4))) + (8 * (4 + 1 + 5)) in
  check int "packed rank structure" occ_bytes (List.assoc "packed bwt + rank blocks" report);
  (* Mark bitvector: one bit per BWT row, plus a rank-directory entry per
     64-row chunk. *)
  let marks_bytes = ((n + 8) / 8) + (8 * ((n + 1 + 63) / 64)) in
  check int "sa marks" marks_bytes (List.assoc "sa marks (bitvector + rank dir)" report);
  (* Samples: text positions divisible by 16 (63 of them) plus row 0. *)
  check int "sa samples" (8 * 64) (List.assoc "sa samples" report);
  check int "c array" (8 * Dna.Alphabet.sigma) (List.assoc "c array" report);
  check int "packed text" ((n + 3) / 4) (List.assoc "packed text (2 bit/base)" report);
  (* The packed index beats the seed's byte-per-char BWT + codes table by
     construction: the whole rank structure fits in well under n bytes. *)
  check bool "rank structure under 1 byte/base" true (occ_bytes < n);
  (* No double counting: the report's sum is exactly the component sum. *)
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 report in
  check int "entries sum" (occ_bytes + marks_bytes + (8 * 64) + 40 + ((n + 3) / 4)) total

let test_fm_pattern_validation () =
  (* Satellite: searching uppercase or non-ACGT patterns must not raise.
     Case folds to the lowercase alphabet; anything else simply does not
     occur in an acgt text. *)
  let fm = Fm_index.build "acagaca" in
  check int "uppercase folds" 2 (Fm_index.count fm "ACA");
  check int_list "uppercase find_all" [ 0; 4 ] (Fm_index.find_all fm "AcA");
  check int "n never matches" 0 (Fm_index.count fm "acn");
  check int "sentinel char" 0 (Fm_index.count fm "$");
  check bool "search invalid is None" true (Fm_index.search fm "ac!g" = None);
  check int_list "find_all invalid" [] (Fm_index.find_all fm "nnn");
  check int_list "find_all space" [] (Fm_index.find_all fm "a a")

let test_fm_locate_into () =
  let st = Random.State.make [| 43 |] in
  let text = Test_util.random_dna st 300 in
  let fm = Fm_index.build ~sa_rate:8 text in
  (match Fm_index.search fm (String.sub text 50 3) with
  | None -> Alcotest.fail "substring not found"
  | Some (lo, hi) ->
      let buf = Array.make (hi - lo) (-1) in
      Fm_index.locate_into fm (lo, hi) buf;
      Array.sort Int.compare buf;
      check int_list "locate_into = locate" (Fm_index.locate fm (lo, hi)) (Array.to_list buf));
  (match Fm_index.locate_into fm (0, 2) [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short buffer accepted");
  match Fm_index.locate_into fm (-1, 2) (Array.make 4 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad interval accepted"

let () =
  Alcotest.run "fmindex"
    [
      ( "bwt",
        [
          Alcotest.test_case "paper example" `Quick test_bwt_paper_example;
          Alcotest.test_case "empty" `Quick test_bwt_empty;
          Alcotest.test_case "inverse paper" `Quick test_bwt_inverse_paper;
          Alcotest.test_case "inverse rejects" `Quick test_bwt_inverse_rejects;
          Alcotest.test_case "is permutation" `Quick test_bwt_is_permutation;
          prop_bwt_roundtrip;
        ] );
      ( "bwt_pack",
        [
          prop_packed_bwt;
          Alcotest.test_case "every length mod 4" `Quick test_packed_bwt_small_lengths;
          Alcotest.test_case "recursion-forcing inputs" `Quick test_packed_bwt_recursion;
          Alcotest.test_case "200 kbp genome" `Quick test_packed_bwt_genome;
          Alcotest.test_case "golden index bytes" `Quick test_golden_index_bytes;
        ] );
      ( "occ",
        [
          Alcotest.test_case "matches naive at all rates" `Quick test_occ_matches_naive;
          Alcotest.test_case "word and superblock boundaries" `Quick test_occ_word_boundaries;
          Alcotest.test_case "rank_all_pair = two ranks" `Quick test_occ_rank_all_pair;
          Alcotest.test_case "get / lf kernel" `Quick test_occ_get_lf;
          Alcotest.test_case "validation" `Quick test_occ_validation;
          prop_occ_matches_reference;
        ] );
      ( "fm_index",
        [
          Alcotest.test_case "paper search" `Quick test_fm_paper_search;
          Alcotest.test_case "empty pattern" `Quick test_fm_empty_pattern;
          Alcotest.test_case "absent pattern" `Quick test_fm_absent;
          Alcotest.test_case "pattern longer than text" `Quick test_fm_longer_than_text;
          Alcotest.test_case "paper extend steps" `Quick test_fm_extend_steps_follow_paper;
          Alcotest.test_case "rejects bad text" `Quick test_fm_rejects_bad_text;
          Alcotest.test_case "empty text" `Quick test_fm_empty_text;
          Alcotest.test_case "occ rates agree" `Quick test_fm_occ_rates_agree;
          Alcotest.test_case "space report" `Quick test_fm_space_report;
          Alcotest.test_case "pattern validation" `Quick test_fm_pattern_validation;
          Alcotest.test_case "locate_into" `Quick test_fm_locate_into;
          Alcotest.test_case "bench parity smoke (packed vs seed model)" `Quick (fun () ->
              Rank_locate.parity_smoke ());
          prop_fm_equals_naive;
          prop_fm_sampling_rates;
        ] );
    ]
