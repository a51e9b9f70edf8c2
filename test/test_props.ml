(* Cross-cutting property tests and invariants that go beyond the
   per-module suites: the Int_table substrate, the rank-correspondence
   property the paper's equation (1) relies on, locate completeness, the
   delta heuristic's definition, and engine counter accounting. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Int_table vs Hashtbl                                                 *)

let prop_int_table =
  Test_util.qtest ~count:300 "int_table = hashtbl"
    QCheck2.Gen.(list (pair (int_range 0 500) small_nat))
    (fun ops ->
      let t = Int_table.create 8 in
      let h = Hashtbl.create 8 in
      List.iter
        (fun (key, v) ->
          Int_table.replace t key v;
          Hashtbl.replace h key v)
        ops;
      Hashtbl.fold (fun key v ok -> ok && Int_table.find t key = v) h true
      && Int_table.length t = Hashtbl.length h
      && Int_table.find t 99_999 = -1
      &&
      (* A cleared table is empty, and refills like a fresh one. *)
      (Int_table.clear t;
       Hashtbl.fold (fun key _ ok -> ok && Int_table.find t key = -1) h true
       && Int_table.length t = 0
       && (List.iter (fun (key, v) -> Int_table.replace t key (v + 1)) ops;
           Hashtbl.fold (fun key v ok -> ok && Int_table.find t key = v + 1) h true
           && Int_table.length t = Hashtbl.length h)))

let test_int_table_growth () =
  let t = Int_table.create 8 in
  for i = 0 to 10_000 do
    Int_table.replace t i (3 * i)
  done;
  check int "length" 10_001 (Int_table.length t);
  for i = 0 to 10_000 do
    check int "value" (3 * i) (Int_table.find t i)
  done

let test_int_table_overwrite () =
  let t = Int_table.create 8 in
  Int_table.replace t 7 1;
  Int_table.replace t 7 2;
  check int "overwritten" 2 (Int_table.find t 7);
  check int "size stays 1" 1 (Int_table.length t)

let test_int_table_negative () =
  let t = Int_table.create 8 in
  (match Int_table.find t (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative find accepted");
  match Int_table.replace t (-3) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative replace accepted"

(* ------------------------------------------------------------------ *)
(* Rank correspondence (paper eq. 1) and locate completeness            *)

let prop_rank_correspondence =
  (* For every character, its i-th occurrence in F corresponds to its i-th
     occurrence in L: LF-walking the whole BWT visits every row exactly
     once (this is what Bwt.inverse exploits; here we check the cycle
     property directly). *)
  Test_util.qtest ~count:200 "LF mapping is a full cycle"
    (Test_util.dna_gen ~lo:1 ~hi:200 ())
    (fun s ->
      let l = Fmindex.Bwt.of_text s in
      let n = String.length l in
      let counts = Array.make Dna.Alphabet.sigma 0 in
      String.iter
        (fun c -> counts.(Dna.Alphabet.code c) <- counts.(Dna.Alphabet.code c) + 1)
        l;
      let c_array = Array.make Dna.Alphabet.sigma 0 in
      let sum = ref 0 in
      for c = 0 to Dna.Alphabet.sigma - 1 do
        c_array.(c) <- !sum;
        sum := !sum + counts.(c)
      done;
      let occ = Fmindex.Occ.make l in
      let lf row =
        let c = Dna.Alphabet.code l.[row] in
        c_array.(c) + Fmindex.Occ.rank occ c row
      in
      let visited = Array.make n false in
      let rec walk row steps =
        if steps = n then true
        else if visited.(row) then false
        else begin
          visited.(row) <- true;
          walk (lf row) (steps + 1)
        end
      in
      walk 0 0)

let prop_locate_whole =
  Test_util.qtest ~count:200 "locate(whole) enumerates all positions"
    (Test_util.dna_gen ~lo:1 ~hi:150 ())
    (fun s ->
      let fm = Fmindex.Fm_index.build s in
      Fmindex.Fm_index.locate fm (Fmindex.Fm_index.whole fm)
      = List.init (String.length s + 1) (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Delta heuristic definition                                           *)

let naive_delta text pattern =
  (* Greedy count of consecutive disjoint substrings of pattern[i..] that
     do not occur in text (1-based positions, delta.(m+1) = 0). *)
  let m = String.length pattern in
  let occurs sub = Stringmatch.Naive.find_all ~pattern:sub ~text <> [] in
  let delta = Array.make (m + 2) 0 in
  for i = m downto 1 do
    let rec smallest_absent j =
      if j > m then None
      else if not (occurs (String.sub pattern (i - 1) (j - i + 1))) then Some j
      else smallest_absent (j + 1)
    in
    delta.(i) <-
      (match smallest_absent i with None -> 0 | Some j -> 1 + delta.(j + 1))
  done;
  delta

let prop_delta =
  (* The capped array for every budget from 0 to past m (where the cap no
     longer binds). *)
  Test_util.qtest ~count:150 "delta heuristic = naive definition"
    QCheck2.Gen.(
      pair (Test_util.dna_gen ~lo:1 ~hi:120 ()) (Test_util.dna_gen ~lo:1 ~hi:20 ())
      >>= fun (text, pattern) ->
      int_range 0 (String.length pattern + 1) >|= fun k -> (text, pattern, k))
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      M_tree.delta_heuristic (Kmismatch.fm_rev idx) ~pattern ~k
      = Array.map (fun d -> min d (k + 1)) (naive_delta text pattern))

(* ------------------------------------------------------------------ *)
(* Mismatch arrays: R_i tables vs the pairwise definition               *)

let prop_shift_table_naive =
  (* R_i is defined as the first k+2 positions where r[1 .. m-i] and
     r[i+1 .. m] disagree (paper SS:IV.B); check every shift of every
     generated pattern against the naive pairwise scan.  Note that
     [build] clamps k to m internally, but the overlap at shift i has
     length m-i <= m-1 < m+2, so the clamp can never truncate a table
     that the unclamped limit would have kept. *)
  Test_util.qtest ~count:300 "shift_table = naive_pairwise"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:60 ()) (int_range 0 6))
    (fun (r, k) ->
      let t = Mismatch_array.build r ~k in
      let m = String.length r in
      Mismatch_array.shift_table t 0 = [||]
      && List.for_all
           (fun i ->
             Mismatch_array.shift_table t i
             = Mismatch_array.naive_pairwise
                 (String.sub r 0 (m - i))
                 (String.sub r i (m - i))
                 ~limit:(k + 2))
           (List.init (m - 1) (fun i -> i + 1)))

let prop_shift_table_periodic =
  (* Highly periodic patterns are where R_i tables saturate their k+2
     limit; stress those shapes specifically. *)
  Test_util.qtest ~count:200 "shift_table = naive_pairwise (periodic)"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:1 ~hi:4 ()) (int_range 2 20) (int_range 0 4))
    (fun (unit_str, reps, k) ->
      let r = String.concat "" (List.init reps (fun _ -> unit_str)) in
      let t = Mismatch_array.build r ~k in
      let m = String.length r in
      List.for_all
        (fun i ->
          Mismatch_array.shift_table t i
          = Mismatch_array.naive_pairwise
              (String.sub r 0 (m - i))
              (String.sub r i (m - i))
              ~limit:(k + 2))
        (List.init (m - 1) (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Engine counters                                                      *)

(* The six engine.* counters one query adds to a fresh sink. *)
let engine_counts idx engine ~pattern ~k =
  let obs = Obs.create () in
  ignore (Kmismatch.run idx (Kmismatch.Query.make ~obs ~engine ~pattern ~k ()));
  Test_util.engine_counters obs

(* Engines that reuse per-domain scratch start every search's counts
   from zero: a query counts the same after a larger one on the same
   domain as on its own. *)
let test_counts_start_at_zero () =
  let idx = Kmismatch.build_index "acgtacgtacgtacgtacgtggggacgtagct" in
  List.iter
    (fun engine ->
      let alone = engine_counts idx engine ~pattern:"acgta" ~k:1 in
      ignore (engine_counts idx engine ~pattern:"acgtacgtacg" ~k:3);
      check bool
        (Kmismatch.engine_name engine ^ " counts start from zero")
        true
        (engine_counts idx engine ~pattern:"acgta" ~k:1 = alone))
    [ Kmismatch.M_tree; Kmismatch.S_tree; Kmismatch.Bidir; Kmismatch.Cole ]

let test_engines_count_work () =
  let idx = Kmismatch.build_index "acgtacgtacgtacgtacgtgggg" in
  List.iter
    (fun engine ->
      let counts = engine_counts idx engine ~pattern:"acgta" ~k:1 in
      check bool
        (Kmismatch.engine_name engine ^ " counts work")
        true
        (List.exists (fun (_, v) -> v > 0) counts))
    [ Kmismatch.M_tree; Kmismatch.S_tree; Kmismatch.Bidir; Kmismatch.Cole ]

(* ------------------------------------------------------------------ *)
(* M-tree configuration space                                           *)

let config_gen =
  QCheck2.Gen.(
    tup3 bool bool (int_range 1 8) >|= fun (chain_skip, use_delta, store_width) ->
    { M_tree.chain_skip; use_delta; store_width })

let prop_m_tree_all_configs =
  Test_util.qtest ~count:300 "m-tree: every config = oracle"
    QCheck2.Gen.(
      tup4
        (Test_util.dna_gen ~lo:10 ~hi:200 ())
        (Test_util.dna_gen ~lo:1 ~hi:15 ())
        (int_range 0 4) config_gen)
    (fun (text, pattern, k, config) ->
      M_tree.search ~config (Kmismatch.fm_rev (Kmismatch.build_index text)) ~pattern ~k
      = Stringmatch.Hamming.search ~pattern ~text ~k)

let prop_m_tree_repetitive_configs =
  Test_util.qtest ~count:300 "m-tree: every config = oracle (repetitive)"
    QCheck2.Gen.(
      tup4
        (Test_util.dna_gen ~lo:2 ~hi:5 ())
        (pair (int_range 10 60) (Test_util.dna_gen ~lo:4 ~hi:14 ()))
        (int_range 0 4) config_gen)
    (fun (unit_str, (reps, pattern), k, config) ->
      let text = String.concat "" (List.init reps (fun _ -> unit_str)) in
      M_tree.search ~config (Kmismatch.fm_rev (Kmismatch.build_index text)) ~pattern ~k
      = Stringmatch.Hamming.search ~pattern ~text ~k)

(* ------------------------------------------------------------------ *)
(* The literal mismatching tree (paper Fig. 3 / Fig. 7)                 *)

let paper_tree () =
  let idx = Kmismatch.build_index "acagaca" in
  Mismatch_tree.build (Kmismatch.fm_rev idx) ~pattern:"tcaca" ~k:2

let test_mtree_paper_paths () =
  (* SS:IV.A: B1 = [1, 4], B2 = [1, 2], B3 = B4 = [1, 2, 3]. *)
  let t = paper_tree () in
  let complete =
    List.filter_map
      (fun p -> if p.Mismatch_tree.complete then Some p.Mismatch_tree.mismatches else None)
      t.Mismatch_tree.paths
  in
  let dead =
    List.filter_map
      (fun p -> if p.Mismatch_tree.complete then None else Some p.Mismatch_tree.mismatches)
      t.Mismatch_tree.paths
  in
  check
    Alcotest.(list (list int))
    "complete B arrays"
    [ [ 1; 2 ]; [ 1; 4 ] ]
    (List.sort compare complete);
  check
    Alcotest.(list (list int))
    "dead B arrays"
    [ [ 1; 2; 3 ]; [ 1; 2; 3 ] ]
    (List.sort compare dead);
  check int "n' = 4 leaves" 4 (Mismatch_tree.leaves t)

let test_mtree_paper_occurrences () =
  let t = paper_tree () in
  let occ =
    List.concat_map (fun p -> p.Mismatch_tree.occurrences) t.Mismatch_tree.paths
  in
  check Alcotest.(list int) "occurrences 0 and 2" [ 0; 2 ] (List.sort compare occ)

let rec mtree_no_match_match parent node =
  (* Definition 4 invariant: a <-, 0> node is never the child of another
     <-, 0> node (maximal match runs are collapsed). *)
  (match (parent, node.Mismatch_tree.label) with
  | Some `Match, `Match -> false
  | _ ->
      List.for_all
        (mtree_no_match_match (Some node.Mismatch_tree.label))
        node.Mismatch_tree.children)

let prop_mtree_invariants =
  Test_util.qtest ~count:200 "mismatch tree invariants"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:5 ~hi:150 ()) (Test_util.dna_gen ~lo:1 ~hi:12 ())
        (int_range 0 3))
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      let t = Mismatch_tree.build (Kmismatch.fm_rev idx) ~pattern ~k in
      (* 1. no adjacent collapsed match nodes *)
      mtree_no_match_match None t.Mismatch_tree.root
      (* 2. complete paths carry <= k mismatches, dead ones <= k+1 *)
      && List.for_all
           (fun p ->
             List.length p.Mismatch_tree.mismatches
             <= (if p.Mismatch_tree.complete then k else k + 1)
             (* mismatch positions strictly increasing, in [1, m] *)
             && List.sort_uniq compare p.Mismatch_tree.mismatches
                = p.Mismatch_tree.mismatches
             && List.for_all
                  (fun x -> 1 <= x && x <= String.length pattern)
                  p.Mismatch_tree.mismatches)
           t.Mismatch_tree.paths)

let prop_mtree_occurrences_match_engines =
  Test_util.qtest ~count:200 "mismatch tree occurrences = engine results"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:5 ~hi:150 ()) (Test_util.dna_gen ~lo:1 ~hi:12 ())
        (int_range 0 3))
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      let t = Mismatch_tree.build (Kmismatch.fm_rev idx) ~pattern ~k in
      let occ =
        List.concat_map
          (fun p ->
            List.map
              (fun pos -> (pos, List.length p.Mismatch_tree.mismatches))
              p.Mismatch_tree.occurrences)
          (List.filter (fun p -> p.Mismatch_tree.complete) t.Mismatch_tree.paths)
      in
      List.sort compare occ = Stringmatch.Hamming.search ~pattern ~text ~k)

let () =
  Alcotest.run "props"
    [
      ( "int_table",
        [
          prop_int_table;
          Alcotest.test_case "growth" `Quick test_int_table_growth;
          Alcotest.test_case "overwrite" `Quick test_int_table_overwrite;
          Alcotest.test_case "negative keys" `Quick test_int_table_negative;
        ] );
      ("bwt_invariants", [ prop_rank_correspondence; prop_locate_whole ]);
      ("delta", [ prop_delta ]);
      ("mismatch_array", [ prop_shift_table_naive; prop_shift_table_periodic ]);
      ( "engine_counts",
        [
          Alcotest.test_case "each query counts from zero" `Quick test_counts_start_at_zero;
          Alcotest.test_case "every engine counts its work" `Quick test_engines_count_work;
        ] );
      ( "m_tree_configs",
        [ prop_m_tree_all_configs; prop_m_tree_repetitive_configs ] );
      ( "mismatch_tree",
        [
          Alcotest.test_case "paper B arrays" `Quick test_mtree_paper_paths;
          Alcotest.test_case "paper occurrences" `Quick test_mtree_paper_occurrences;
          prop_mtree_invariants;
          prop_mtree_occurrences_match_engines;
        ] );
    ]

