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

let ints_of_cells (sa : Suffix.Suffix_array.cells) =
  Array.init (Bigarray.Array1.dim sa) (fun i -> Int32.to_int sa.{i})

(* [Bwt.of_packed_text] against an independent oracle: BWT(s$) through
   prefix doubling, the sentinel cut out of the lanes, and the
   row-indexed SA as the sentinel row followed by SA(s). *)
let packed_bwt_agrees s =
  let packed, row, sa = Bwt.of_packed_text (Packed_text.of_string s) in
  let sa = ints_of_cells sa in
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
  let sa = ints_of_cells sa in
  check bool "row-indexed SA" true (is_row_sa s sa);
  check bool "sentinel row" true (sa.(row) = 0);
  check string "BWT inverts to the text" s (Bwt.inverse (bwt_string packed row))

(* Digests of the index file bytes (recorded when format v5 replaced
   v4) and of the forward BWT the bidirectional index ranks over (from
   the previous SA-IS implementation) must not change with the
   builder. *)
let test_golden_index_bytes () =
  let s = genome ~size:300_000 ~seed:2017 in
  check string "serialized index digest" "a4b1796ee58183b7b43adf504ceb630f"
    (Digest.to_hex (Digest.string (Fm_index.serialize (Fm_index.build s))));
  let packed, row, _ = Bwt.of_packed_text (Packed_text.of_string s) in
  check string "forward BWT digest" "3b7f6d592dce4f17bb36f8e119b64013"
    (Digest.to_hex (Digest.string (bwt_string packed row)))

(* The forward side an index carries is exactly the rate-128 Occ over
   BWT(rev text) — built at index time, adopted as is by both loaders. *)
let same_occ (a : Occ.t) (b : Occ.t) =
  Occ.rate a = Occ.rate b
  && Occ.length a = Occ.length b
  && Occ.counts a = Occ.counts b
  && Occ.raw_blocks a = Occ.raw_blocks b
  && Occ.raw_super a = Occ.raw_super b
  && List.for_all (fun row -> Occ.get a row = Occ.get b row) (List.init (Occ.length a) Fun.id)

let test_forward_side_equals_rebuild () =
  let st = Random.State.make [| 23 |] in
  let texts =
    List.map (Test_util.random_dna st) [ 0; 1; 127; 128; 129; 256 ]
    @ [ Test_util.random_dna st 5_000; String.make 300 'a'; String.make 129 't' ]
  in
  List.iter
    (fun text ->
      let n = String.length text in
      let rev = String.init n (fun i -> text.[n - 1 - i]) in
      let packed, row, _ = Bwt.of_packed_text (Packed_text.of_string rev) in
      let expected = Occ.of_packed ~rate:128 ~sentinel:row packed in
      let fm = Fm_index.build text in
      check bool (Printf.sprintf "built, n = %d" n) true (same_occ expected (Fm_index.forward_occ fm));
      let image = Fm_index.serialize fm in
      (match Fm_index.try_of_string image with
      | Ok copy ->
          check bool (Printf.sprintf "copy-loaded, n = %d" n) true
            (same_occ expected (Fm_index.forward_occ copy))
      | Error e -> Alcotest.failf "copy load, n = %d: %s" n (Kmm_error.to_string e));
      let path = Filename.temp_file "kmm" ".fmi" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc image);
          check bool (Printf.sprintf "mmap-loaded, n = %d" n) true
            (same_occ expected (Fm_index.forward_occ (Test_util.load_fm ~mode:Fm_index.Mmap path)))))
    texts

(* A text of at least 64 Ki bases, so the build puts the forward pass
   on a second domain: both sides against BWTs built on their own, the
   located side of the text and the forward side of its reversal. *)
let test_long_build_sides () =
  let s = genome ~size:70_000 ~seed:11 in
  let n = String.length s in
  let fm = Fm_index.build s in
  check string "located side = BWT(s)" (Bwt.of_text s) (Fm_index.bwt fm);
  let fwd = Fm_index.forward_occ fm in
  check string "forward side = BWT(rev s)"
    (Bwt.of_text (String.init n (fun i -> s.[n - 1 - i])))
    (String.init (Occ.length fwd) (fun row -> Dna.Alphabet.of_code (Occ.get fwd row)))

(* The suffix sorts run in 32-bit cells outside the OCaml heap, so a
   build allocates there only its code strings, type bytes and rank
   tables: 11.5 bytes per base at 1 Mbp, 14.7 at 65 kbp where fixed-size
   tables weigh more.  An [int array] suffix array would add 8 bytes per
   base for each of the two sorts.  The text stays under the 64 Ki bases
   from which the forward pass runs on a second domain, whose
   allocations this domain's [Gc] counters do not see. *)
let build_heap_bound = 16.

let test_build_heap_bytes () =
  let n = 65_000 in
  let s = Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 3 |]) n) in
  let before = Gc.allocated_bytes () in
  let fm = Fm_index.build s in
  let per_base = (Gc.allocated_bytes () -. before) /. float n in
  check int "length" n (Fm_index.length fm);
  if per_base > build_heap_bound then
    Alcotest.failf "build allocated %.2f B/base on the heap (bound %.0f)" per_base
      build_heap_bound

(* [Occ.of_packed] copies and counts each block's payload in place: at
   1 Mbp its minor garbage is a few small arrays, not a proxy pair per
   block (about 2 B/base). *)
let test_occ_of_packed_garbage () =
  let s = Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 4 |]) 1_000_000) in
  let pt = Packed_text.of_string s in
  let before = Gc.minor_words () in
  let occ = Occ.of_packed ~rate:32 ~sentinel:17 pt in
  let words = Gc.minor_words () -. before in
  check int "length" 1_000_001 (Occ.length occ);
  if words > 4096. then Alcotest.failf "of_packed made %.0f minor words" words

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

(* The unchecked pair kernel against [Occ.rank] at each end, every
   code, offset by a base per code. *)
let test_occ_pair_kernels () =
  let st = Random.State.make [| 31 |] in
  let s = Test_util.random_dna st 700 in
  let l = Bwt.of_text s in
  let occ = Occ.make ~rate:64 l in
  let len = String.length l in
  let sigma = Dna.Alphabet.sigma in
  let los = Array.make sigma 0 and his = Array.make sigma 0 in
  let base = Array.init sigma (fun c -> 1000 * c) in
  for _ = 1 to 500 do
    let lo = Random.State.int st (len + 1) in
    let hi = lo + Random.State.int st (len + 1 - lo) in
    Occ.rank_all_pair_unsafe occ base lo hi los his;
    for c = 0 to sigma - 1 do
      check int (Printf.sprintf "pair lo c=%d lo=%d" c lo) (base.(c) + Occ.rank occ c lo) los.(c);
      check int (Printf.sprintf "pair hi c=%d hi=%d" c hi) (base.(c) + Occ.rank occ c hi) his.(c)
    done
  done

(* [Occ.lf] against the definition, LF(row) = C[x] + rank(x, row) for
   x the row's code, at both block geometries. *)
let test_occ_get_lf () =
  let st = Random.State.make [| 37 |] in
  let l = Bwt.of_text (Test_util.random_dna st 400) in
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
        check int (Printf.sprintf "bwt rate=%d get row=%d" rate row) x (Occ.get occ row);
        check int
          (Printf.sprintf "bwt rate=%d lf row=%d" rate row)
          (c.(x) + naive_rank l x row) (Occ.lf occ c row)
      done;
      List.iter
        (fun row ->
          Alcotest.check_raises (Printf.sprintf "lf row=%d" row)
            (Invalid_argument "Occ.lf: index out of range")
            (fun () -> ignore (Occ.lf occ c row)))
        [ -1; String.length l ])
    [ 32; 128 ]

(* At rate 65536 a block holds 65536 lanes, so one code filling a
   block counts 65536, one past a 16-bit field of the packed table
   sum: the block-count loop counts it in pieces. *)
let test_occ_full_block_of_one_code () =
  List.iter
    (fun base ->
      let text = String.make 70_000 base in
      let fm = Fm_index.build ~occ_rate:65536 text in
      check int (Printf.sprintf "count %c" base) 70_000 (Fm_index.count fm (String.make 1 base));
      match Fm_index.try_of_string (Fm_index.serialize fm) with
      | Ok fm' ->
          check int (Printf.sprintf "reloaded count %c" base) 70_000
            (Fm_index.count fm' (String.make 1 base))
      | Error e -> Alcotest.failf "reload of %c^70000: %s" base (Kmm_error.to_string e))
    [ 'a'; 'c'; 'g'; 't' ]

let test_occ_validation () =
  let l = Bwt.of_text "acgt" in
  (match Occ.make ~rate:0 l with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* An Occ holds exactly one sentinel row. *)
  List.iter
    (fun s ->
      match Occ.make s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%S accepted" s)
    [ "acgt"; "a$c$"; "" ];
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
      let naive = Stringmatch.Naive.find_all ~pattern ~text in
      Fm_index.find_all fm pattern = naive
      && Fm_index.count fm pattern = List.length naive)

(* [count], the width of [search]'s interval and the naive count agree,
   for patterns that are windows of the text, random, case folded or
   carrying a character outside ACGT; and armed taps see the same rank
   steps from both. *)
let prop_count_search_taps =
  let fm_counts f =
    let r, obs = Test_util.tapped f in
    (r, (Obs.counter_value obs "fm.rank_ops", Obs.counter_value obs "fm.block_decodes"))
  in
  Test_util.qtest ~count:300 "count = search width = naive, same taps"
    QCheck2.Gen.(
      pair (Test_util.dna_gen ~lo:1 ~hi:250 ()) (Test_util.dna_gen ~lo:0 ~hi:10 ())
      >>= fun (text, random) ->
      triple (int_range 0 3) (int_bound 1_000) (oneofl [ 'n'; '$'; '!' ]) >|= fun (how, at, bad) ->
      let n = String.length text in
      let window () = String.sub text (at mod n) (min (String.length random) (n - (at mod n))) in
      let pattern =
        match how with
        | 0 -> random
        | 1 -> window ()
        | 2 -> String.uppercase_ascii (window ())
        | _ ->
            let w = Bytes.of_string (window () ^ "a") in
            Bytes.set w (at mod Bytes.length w) bad;
            Bytes.to_string w
      in
      (text, pattern))
    (fun (text, pattern) ->
      let fm = Fm_index.build text in
      let naive =
        if pattern = "" then String.length text + 1
        else List.length (Stringmatch.Naive.find_all ~pattern:(String.lowercase_ascii pattern) ~text)
      in
      let counted, count_taps = fm_counts (fun () -> Fm_index.count fm pattern) in
      let width, search_taps =
        fm_counts (fun () ->
            match Fm_index.search fm pattern with None -> 0 | Some (lo, hi) -> hi - lo)
      in
      counted = naive && width = naive && count_taps = search_taps)

(* [extend_all] against an independent rank: C.(c) + the seed byte-scan
   rank at both ends, for every code, both taken from an independently
   built BWT.  [extend_all_agrees] probes, per [lo], each branch of the
   pair kernel: an empty interval, a width-1 interval, one ending at the
   last row, and an arbitrary one. *)
let extend_all_agrees ~st text fm =
  let l = Bwt.of_text text in
  let len = String.length l in
  let sigma = Dna.Alphabet.sigma in
  let reference = Occ.Reference.make l in
  let c_array = Array.make sigma 0 in
  String.iter
    (fun ch ->
      for c = Dna.Alphabet.code ch + 1 to sigma - 1 do
        c_array.(c) <- c_array.(c) + 1
      done)
    l;
  let los = Array.make sigma 0 and his = Array.make sigma 0 in
  let agrees lo hi =
    Fm_index.extend_all fm ~lo ~hi ~los ~his;
    List.for_all
      (fun c ->
        los.(c) = c_array.(c) + Occ.Reference.rank reference c lo
        && his.(c) = c_array.(c) + Occ.Reference.rank reference c hi)
      (List.init sigma Fun.id)
  in
  fun lo ->
    List.for_all
      (fun hi -> hi > len || agrees lo hi)
      [ lo; lo + 1; len; lo + Random.State.int st (len - lo + 1) ]

let prop_extend_all_matches_reference =
  Test_util.qtest ~count:150 "extend_all = C + Reference rank"
    QCheck2.Gen.(triple (Test_util.dna_gen ~hi:300 ()) (int_range 1 200) int)
    (fun (text, occ_rate, seed) ->
      let fm = Fm_index.build ~occ_rate text in
      let agrees = extend_all_agrees ~st:(Random.State.make [| seed |]) text fm in
      List.for_all agrees (List.init (String.length text + 2) Fun.id))

(* The same check past the first superblock (65536 rows), where the
   block counts are relative to a second absolute counter. *)
let test_extend_all_superblocks () =
  let st = Random.State.make [| 47 |] in
  let text = Test_util.random_dna st 70_000 in
  let agrees = extend_all_agrees ~st text (Fm_index.build text) in
  for lo = 65_400 to 65_700 do
    if not (agrees lo) then Alcotest.failf "extend_all diverges at lo=%d" lo
  done;
  for _ = 1 to 2_000 do
    let lo = Random.State.int st 70_002 in
    if not (agrees lo) then Alcotest.failf "extend_all diverges at lo=%d" lo
  done

(* [extend_row] is the width-1 [extend_all] at every row, the
   sentinel's included: the one nonempty child by a code in 1..4 packed
   as [(lo lsl 3) lor c], or -1 when there is none, for one rank and
   one block decode.  The texts are short units pasted between random
   runs, so many rows share long contexts; the checkpoint rate varies
   so rows fall at every block offset. *)
let prop_extend_row_matches_extend_all =
  Test_util.qtest ~count:150 "extend_row = extend_all's only child"
    QCheck2.Gen.(
      quad (Test_util.dna_gen ~lo:1 ~hi:8 ()) (int_range 1 30)
        (Test_util.dna_gen ~hi:40 ()) (oneofl [ 32; 64; 128 ]))
    (fun (unit_, copies, noise, occ_rate) ->
      let text =
        String.concat ""
          (List.init copies (fun i -> if i mod 4 = 3 then noise else unit_))
      in
      let fm = Fm_index.build ~occ_rate text in
      let sigma = Dna.Alphabet.sigma in
      let los = Array.make sigma 0 and his = Array.make sigma 0 in
      List.for_all
        (fun row ->
          Fm_index.extend_all fm ~lo:row ~hi:(row + 1) ~los ~his;
          let children = List.filter (fun c -> los.(c) < his.(c)) [ 1; 2; 3; 4 ] in
          let expected =
            match children with
            | [] -> -1
            | [ c ] when his.(c) = los.(c) + 1 -> (los.(c) lsl 3) lor c
            | _ -> -2
          in
          let got, obs = Test_util.tapped (fun () -> Fm_index.extend_row fm row) in
          (got = expected
          && Obs.counter_value obs "fm.rank_ops" = 1
          && Obs.counter_value obs "fm.block_decodes" = 1)
          || QCheck2.Test.fail_reportf "row %d of %S: extend_row %d, extend_all %d" row text got
               expected)
        (List.init (String.length text + 1) Fun.id)
      && List.for_all
           (fun row ->
             match Fm_index.extend_row fm row with
             | exception Invalid_argument _ -> true
             | _ -> false)
           [ -1; String.length text + 1 ])

(* Every row, the sentinel's included, resolves alone (a one-row
   [locate_into]) to its suffix-array entry, whatever the sampling
   rate. *)
let prop_locate_row_matches_sa =
  Test_util.qtest ~count:150 "locate_row = suffix array"
    QCheck2.Gen.(pair (Test_util.dna_gen ~hi:300 ()) (int_range 1 40))
    (fun (text, sa_rate) ->
      let fm = Fm_index.build ~sa_rate text in
      let sa =
        Array.append [| String.length text |] (Suffix.Suffix_array.build_doubling text)
      in
      let one = Array.make 1 0 in
      List.for_all
        (fun row ->
          Fm_index.locate_into fm (row, row + 1) one;
          one.(0) = sa.(row))
        (List.init (Array.length sa) Fun.id))

(* The lockstep walk resolves every row of an arbitrary row set, row 0,
   the [$] row and repeated rows included, to its suffix-array entry;
   [locate_into] over an interval stays that walk over the interval's
   rows.  Sets of 0, 1 and up to 3(n + 1) rows, at a dense
   and a sparse sampling rate. *)
let prop_locate_rows_lockstep =
  Test_util.qtest ~count:200 "locate_rows = locate_row"
    QCheck2.Gen.(
      triple (Test_util.dna_gen ~lo:1 ~hi:300 ()) (oneofl [ 3; 32 ]) (pair (int_bound 2) int))
    (fun (text, sa_rate, (size, seed)) ->
      let fm = Fm_index.build ~sa_rate text in
      let rows = String.length text + 1 in
      let st = Random.State.make [| seed |] in
      let sa =
        Array.append [| String.length text |] (Suffix.Suffix_array.build_doubling text)
      in
      let dollar = ref 0 in
      Array.iteri (fun row p -> if p = 0 then dollar := row) sa;
      let len = match size with 0 -> 0 | 1 -> 1 | _ -> 2 + Random.State.int st (3 * rows) in
      let set =
        Array.init len (fun i ->
            match i with
            | 0 when size = 1 -> Random.State.int st rows
            | 0 -> 0
            | 1 -> !dollar
            | _ when i mod 5 = 0 -> 0
            | _ -> Random.State.int st rows)
      in
      let want = Array.map (fun row -> sa.(row)) set in
      (* Slack past [len] must stay untouched. *)
      let got = Array.append set [| -7 |] in
      Fm_index.locate_rows fm got ~len;
      let lo = Random.State.int st rows in
      let hi = lo + Random.State.int st (rows - lo + 1) in
      let buf = Array.make (hi - lo) (-1) in
      Fm_index.locate_into fm (lo, hi) buf;
      Array.sub got 0 len = want
      && got.(len) = -7
      && Array.for_all2 ( = ) buf (Array.init (hi - lo) (fun i -> sa.(lo + i))))

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
  let los = Array.make Dna.Alphabet.sigma 0 and his = Array.make Dna.Alphabet.sigma 0 in
  let step ch (lo, hi) =
    let c = Dna.Alphabet.code ch in
    Fm_index.extend_all fm ~lo ~hi ~los ~his;
    (los.(c), his.(c))
  in
  let iv0 = step 'a' (Fm_index.whole fm) in
  check int "F_a size" 4 (snd iv0 - fst iv0);
  let iv1 = step 'c' iv0 in
  check int "c-extension size" 2 (snd iv1 - fst iv1);
  let iv2 = step 'a' iv1 in
  check int "a-extension size" 2 (snd iv2 - fst iv2)

let test_fm_empty_text () =
  let fm = Fm_index.build "" in
  check int "length" 0 (Fm_index.length fm);
  check string "bwt" "$" (Fm_index.bwt fm);
  check int "no occurrences" 0 (Fm_index.count fm "a");
  check int_list "empty pattern row" [ 0 ] (Test_util.locate fm (Fm_index.whole fm))

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
  (* The forward side at rate 128: ceil(1000/128) = 8 blocks of 8 + 32
     bytes, and the same superblock, sentinel and totals. *)
  let fwd_bytes = (8 * (8 + (128 / 4))) + (8 * (4 + 1 + 5)) in
  check int "forward rank structure" fwd_bytes (List.assoc "forward bwt + rank blocks" report);
  (* Mark bitvector: one bit per BWT row, plus a rank-directory entry per
     64-row chunk. *)
  let marks_bytes = ((n + 8) / 8) + (8 * ((n + 1 + 63) / 64)) in
  check int "sa marks" marks_bytes (List.assoc "sa marks (bitvector + rank dir)" report);
  (* Samples: the 62 text positions 16..992 divisible by 16 and position
     0, at 6 bits each (1000 / 16 = 62 < 2^6); row 0 (position n) is not
     stored.  63 * 6 bits round up to 6 words. *)
  let samples_bytes = 8 * 6 in
  check int "sa samples" samples_bytes (List.assoc "sa samples (bit-packed)" report);
  check int "c array" (8 * Dna.Alphabet.sigma) (List.assoc "c array" report);
  check int "packed text" ((n + 3) / 4) (List.assoc "packed text (2 bit/base)" report);
  (* The packed index beats the seed's byte-per-char BWT + codes table by
     construction: the whole rank structure fits in well under n bytes. *)
  check bool "rank structure under 1 byte/base" true (occ_bytes < n);
  (* No double counting: the report's sum is exactly the component sum. *)
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 report in
  check int "entries sum"
    (occ_bytes + fwd_bytes + marks_bytes + samples_bytes + 40 + ((n + 3) / 4))
    total

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
  let sa = Array.append [| String.length text |] (Suffix.Suffix_array.build_doubling text) in
  (match Fm_index.search fm (String.sub text 50 3) with
  | None -> Alcotest.fail "substring not found"
  | Some (lo, hi) ->
      let buf = Array.make (hi - lo) (-1) in
      Fm_index.locate_into fm (lo, hi) buf;
      check int_list "locate_into = suffix array"
        (Array.to_list (Array.sub sa lo (hi - lo)))
        (Array.to_list buf));
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
          Alcotest.test_case "forward side = rate-128 rebuild" `Quick
            test_forward_side_equals_rebuild;
          Alcotest.test_case "two-domain build = reference BWTs" `Quick test_long_build_sides;
          Alcotest.test_case "build heap bytes per base" `Quick test_build_heap_bytes;
          Alcotest.test_case "of_packed minor words" `Quick test_occ_of_packed_garbage;
        ] );
      ( "occ",
        [
          Alcotest.test_case "matches naive at all rates" `Quick test_occ_matches_naive;
          Alcotest.test_case "word and superblock boundaries" `Quick test_occ_word_boundaries;
          Alcotest.test_case "pair kernels = two ranks" `Quick test_occ_pair_kernels;
          Alcotest.test_case "get / lf kernel" `Quick test_occ_get_lf;
          Alcotest.test_case "validation" `Quick test_occ_validation;
          Alcotest.test_case "rate 65536 block of one code" `Quick test_occ_full_block_of_one_code;
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
          Alcotest.test_case "extend_all across superblocks" `Quick
            test_extend_all_superblocks;
          prop_fm_equals_naive;
          prop_count_search_taps;
          prop_extend_all_matches_reference;
          prop_locate_row_matches_sa;
          prop_locate_rows_lockstep;
          prop_fm_sampling_rates;
          prop_extend_row_matches_extend_all;
        ] );
    ]
