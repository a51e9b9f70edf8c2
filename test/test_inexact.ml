(* Tests for the bit-parallel Shift-Or / Shift-Add matchers, the online
   Shift-Add subject of the fuzz oracle. *)

open Stringmatch

let check = Alcotest.check
let bool = Alcotest.bool
let int_list = Alcotest.(list int)
let hits = Alcotest.(list (pair int int))

let gen_text_pattern =
  QCheck2.Gen.(pair (Test_util.dna_gen ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:8 ()))

(* ------------------------------------------------------------------ *)
(* Shift-Or                                                            *)

let test_shift_or_basics () =
  check int_list "overlapping" [ 0; 1; 2 ] (Shift_or.find_all ~pattern:"aa" ~text:"aaaa");
  check int_list "none" [] (Shift_or.find_all ~pattern:"gg" ~text:"acacac")

let test_shift_or_limits () =
  (match Shift_or.find_all ~pattern:"" ~text:"acgt" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pattern");
  match Shift_or.find_all ~pattern:(String.make 64 'a') ~text:"acgt" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlong pattern"

let prop_shift_or_exact =
  Test_util.qtest ~count:300 "shift-or = naive" gen_text_pattern (fun (text, pattern) ->
      Shift_or.find_all ~pattern ~text = Naive.find_all ~pattern ~text)

let prop_shift_add_kmismatch =
  Test_util.qtest ~count:300 "shift-add = hamming"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~hi:200 ()) (Test_util.dna_gen ~lo:1 ~hi:12 ()) (int_range 0 4))
    (fun (text, pattern, k) ->
      (not (Shift_or.fits ~m:(String.length pattern) ~k))
      || Shift_or.search ~pattern ~text ~k = Hamming.search ~pattern ~text ~k)

let test_shift_add_fits () =
  check bool "12/4 fits" true (Shift_or.fits ~m:12 ~k:4);
  check bool "63/0 does not (needs 2 bits)" false (Shift_or.fits ~m:63 ~k:0);
  check bool "31/0 fits" true (Shift_or.fits ~m:31 ~k:0);
  check bool "negative k" false (Shift_or.fits ~m:5 ~k:(-1))

let test_shift_or_word_boundary () =
  (* m = 63 is the widest exact pattern (one bit per position; the test
     bit is bit 62).  Exercise it against the naive matcher with a hit
     flush at position 0, one mid-text, and a truncated suffix at the
     end, plus a homopolymer where every window is a hit. *)
  let p = String.init 63 (fun i -> "acgt".[i mod 4]) in
  let planted = p ^ "tt" ^ p ^ String.sub p 0 40 in
  check int_list "m=63 planted = naive"
    (Naive.find_all ~pattern:p ~text:planted)
    (Shift_or.find_all ~pattern:p ~text:planted);
  check bool "m=63 hit at position 0" true
    (List.mem 0 (Shift_or.find_all ~pattern:p ~text:planted));
  let homo = String.make 63 'a' in
  List.iter
    (fun text ->
      check int_list "m=63 homopolymer = naive"
        (Naive.find_all ~pattern:homo ~text)
        (Shift_or.find_all ~pattern:homo ~text))
    [ String.make 100 'a'; homo; String.make 62 'a'; "" ]

let test_shift_add_fits_boundaries () =
  (* [fits ~m ~k] holds iff field_bits(k) * m <= 63.  Walk the exact
     frontier for several field widths. *)
  check bool "31/0 fits (2-bit fields)" true (Shift_or.fits ~m:31 ~k:0);
  check bool "32/0 does not" false (Shift_or.fits ~m:32 ~k:0);
  check bool "21/2 fits (3-bit fields)" true (Shift_or.fits ~m:21 ~k:2);
  check bool "22/2 does not" false (Shift_or.fits ~m:22 ~k:2);
  check bool "9/62 fits exactly (7-bit fields, m*b = 63)" true
    (Shift_or.fits ~m:9 ~k:62);
  check bool "10/62 does not" false (Shift_or.fits ~m:10 ~k:62);
  (* Overflow-hostile budgets must terminate and be rejected — the old
     field_bits looped forever (or accepted) once k+1 wrapped. *)
  check bool "max_int budget rejected" false (Shift_or.fits ~m:3 ~k:max_int);
  check bool "m=1 max_int rejected" false (Shift_or.fits ~m:1 ~k:max_int);
  check bool "2^61-1 budget rejected" false
    (Shift_or.fits ~m:2 ~k:2305843009213693951);
  (* The one shape where a gigantic budget legitimately fits: m = 1 with
     k below the 62-bit counter ceiling. *)
  check bool "m=1 k=2^60 fits" true (Shift_or.fits ~m:1 ~k:(1 lsl 60));
  check hits "m=1 k=2^60 = hamming"
    (Hamming.search ~pattern:"a" ~text:"acgt" ~k:(1 lsl 60))
    (Shift_or.search ~pattern:"a" ~text:"acgt" ~k:(1 lsl 60))

let test_shift_add_saturation () =
  (* Windows far above the budget must not wrap around into false
     positives, even over long runs. *)
  let text = String.make 200 'a' in
  let pattern = "tttttt" in
  check hits "no wraparound" [] (Shift_or.search ~pattern ~text ~k:2)

let () =
  Alcotest.run "inexact"
    [
      ( "shift_or",
        [
          Alcotest.test_case "basics" `Quick test_shift_or_basics;
          Alcotest.test_case "limits" `Quick test_shift_or_limits;
          Alcotest.test_case "fits" `Quick test_shift_add_fits;
          Alcotest.test_case "fits boundaries" `Quick test_shift_add_fits_boundaries;
          Alcotest.test_case "word boundary m=63" `Quick test_shift_or_word_boundary;
          Alcotest.test_case "saturation" `Quick test_shift_add_saturation;
          prop_shift_or_exact;
          prop_shift_add_kmismatch;
        ] );
    ]
