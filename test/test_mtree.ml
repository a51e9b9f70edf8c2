(* What Algorithm A explores, pinned.

   [golden_cases] is a fixed, seeded set of [M_tree.search] calls: random
   texts with planted patterns, repetitive texts where derivations fire,
   a repeat-rich genome with 100 bp reads, and k >= m clamp cases, each
   under the default configuration and the store_width = 1 /
   chain_skip = false / use_delta = false variants.  For every call the
   six [engine.*] counters the search adds to a fresh sink, the hit
   count and a digest of the hit list must
   equal the line recorded in [fixtures/mtree_golden.txt], so a change to
   how the M-tree is stored cannot change what it explores or finds.
   [fixtures/stree_golden.txt] pins the BWT baseline engines (s-tree and
   s-tree-nodelta, through [Kmismatch.run]) on the same queries, and
   [fixtures/bidir_golden.txt] the bidir engine ([Oss.search]): its
   extensions, verifications and located rows, the LF steps locating
   them took, and its hits.

   The generator is self-contained (no [Random]), so the recorded lines
   depend only on the engine. *)

open Core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Golden exploration                                                   *)

(* A 63-bit LCG; [below r n] takes the high bits. *)
type rng = { mutable s : int }

let below r n =
  r.s <- ((r.s * 2862933555777941757) + 3037000493) land max_int;
  (r.s lsr 20) mod n

let between r lo hi = lo + below r (hi - lo + 1)
let dna r n = String.init n (fun _ -> "acgt".[below r 4])

(* A window of [text] with up to [k] substitutions. *)
let planted r text ~len ~k =
  let p = Bytes.of_string (String.sub text (below r (String.length text - len + 1)) len) in
  for _ = 1 to below r (k + 1) do
    Bytes.set p (below r len) "acgt".[below r 4]
  done;
  Bytes.to_string p

(* Random base layer with mutated copies of earlier segments pasted in. *)
let repeat_rich r ~size ~unit =
  let b = Bytes.of_string (dna r size) in
  for _ = 1 to size / (3 * unit) do
    let src = below r (size - unit) and dst = below r (size - unit) in
    Bytes.blit b src b dst unit;
    for _ = 1 to unit / 50 do
      Bytes.set b (dst + below r unit) "acgt".[below r 4]
    done
  done;
  Bytes.to_string b

let configs =
  let d = M_tree.default_config in
  [
    ("default", d);
    ("width1", { d with M_tree.store_width = 1 });
    ("nochain", { d with M_tree.chain_skip = false });
    ("nodelta", { d with M_tree.use_delta = false });
    ("pure", { M_tree.store_width = 1; chain_skip = false; use_delta = false });
  ]

(* [(family, text, [(pattern, k)])]: each query runs under every config. *)
let golden_cases () =
  let r = { s = 20170419 } in
  let random =
    List.init 8 (fun _ ->
        let text = dna r (between r 200 2000) in
        let qs =
          List.init 3 (fun _ ->
              let k = below r 5 in
              (planted r text ~len:(between r 8 40) ~k, k))
        in
        ("random", text, qs))
  in
  let repetitive =
    List.init 24 (fun _ ->
        let unit = dna r (between r 2 6) in
        let text = String.concat "" (List.init (between r 5 40) (fun _ -> unit)) in
        ("repetitive", text, [ (dna r (between r 3 12), below r 5) ]))
  in
  let fixed =
    [
      ( "repetitive",
        String.concat "" (List.init 60 (fun _ -> "acgtagct")),
        [ ("acgtagctacgt", 2); ("acgtagctacgtagct", 3) ] );
      ( "repetitive",
        String.concat ""
          (List.init 100 (fun i -> if i mod 7 = 0 then "acgtacct" else "acgtagct")),
        [ ("acgtagctacgtagct", 3); ("acgtagctacgtagctacgt", 4) ] );
    ]
  in
  let genome =
    let text = repeat_rich r ~size:30_000 ~unit:300 in
    let qs = List.init 8 (fun i -> let k = 2 + (i mod 2) in (planted r text ~len:100 ~k, k)) in
    ("genome", text, qs)
  in
  let clamp =
    [
      ("clamp", "acgtacgt", [ ("ttt", 3); ("ttt", 7); ("acgt", 100) ]);
      ("clamp", String.concat "" (List.init 12 (fun _ -> "aac")), [ ("aacaac", 9) ]);
    ]
  in
  random @ repetitive @ fixed @ [ genome ] @ clamp

(* One golden line per query of every case under every variant:
   [variants] are [(name, search)] pairs, [search idx obs ~pattern ~k]
   counting into the sink [obs]; [counts obs] renders the counters a
   line pins. *)
let observe ~counts variants =
  List.concat_map
    (fun (family, text, qs) ->
      let idx = Kmismatch.build_index text in
      List.concat_map
        (fun (pattern, k) ->
          List.map
            (fun (vname, search) ->
              let obs = Obs.create () in
              let hits = search idx obs ~pattern ~k in
              let flat = String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d,%d" p d) hits) in
              Printf.sprintf "%s/%s n=%d m=%d k=%d %s hits=%d %s" family vname (String.length text)
                (String.length pattern) k (counts obs) (List.length hits)
                (Digest.to_hex (Digest.string flat)))
            variants)
        qs)
    (golden_cases ())

(* [name=value] fields for the named counters of a sink. *)
let fields names obs =
  String.concat " "
    (List.map
       (fun (field, counter) -> Printf.sprintf "%s=%d" field (Obs.counter_value obs counter))
       names)

(* The six [engine.*] counters of the tree engines. *)
let engine_fields =
  fields
    (List.map
       (fun f -> (f, "engine." ^ f))
       [ "nodes"; "leaves"; "rank_calls"; "derivations"; "derived_leaves"; "resumes" ])

(* [M_tree.search] under each config. *)
let mtree_variants =
  List.map
    (fun (cname, config) ->
      ( cname,
        fun idx obs ~pattern ~k -> M_tree.search ~config ~obs (Kmismatch.fm_rev idx) ~pattern ~k ))
    configs

(* The BWT baseline engines through [Kmismatch.run]. *)
let stree_variants =
  List.map
    (fun engine ->
      ( Kmismatch.engine_name engine,
        fun idx obs ~pattern ~k ->
          (Kmismatch.run idx (Kmismatch.Query.make ~obs ~engine ~pattern ~k ())).hits ))
    Kmismatch.[ S_tree; S_tree_no_delta ]

(* [Oss.search] with the taps armed: where it leaves the index (its
   extensions and verifications) and what the hand-off costs the
   locate walk. *)
let bidir_fields =
  fields
    [
      ("extends", "bidir.extends");
      ("verifications", "bidir.verifications");
      ("locate_walks", "fm.locate_walks");
      ("locate_steps", "fm.locate_steps");
    ]

let bidir_variants =
  [
    ( "bidir",
      fun idx obs ~pattern ~k ->
        Test_util.tapped_into obs (fun () -> Oss.search ~obs (Kmismatch.bidir idx) ~pattern ~k) );
  ]

(* The observed lines must equal [fixtures/<file>].  With
   KMM_RECORD_GOLDEN set to a directory, they are written to <dir>/<file>
   instead: how a fixture is recorded. *)
let golden file ~counts variants () =
  let got = observe ~counts variants in
  match Sys.getenv_opt "KMM_RECORD_GOLDEN" with
  | Some dir ->
      Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) got)
  | None ->
      let expected = In_channel.with_open_bin ("fixtures/" ^ file) In_channel.input_lines in
      check Alcotest.int "case count" (List.length expected) (List.length got);
      List.iteri (fun i (e, g) -> check Alcotest.string (Printf.sprintf "case %d" i) e g)
        (List.combine expected got)

(* The golden set must exercise the derivation machinery, not just the
   plain exploration. *)
let test_golden_covers_derivations () =
  let field name line =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ key; v ] when key = name -> Some (int_of_string v)
        | _ -> None)
      (String.split_on_char ' ' line)
    |> Option.get
  in
  let lines = In_channel.with_open_bin "fixtures/mtree_golden.txt" In_channel.input_lines in
  let total name = List.fold_left (fun acc l -> acc + field name l) 0 lines in
  List.iter
    (fun name -> check Alcotest.bool (name ^ " > 0") true (total name > 0))
    [ "derivations"; "derived_leaves"; "resumes" ]

(* ------------------------------------------------------------------ *)
(* The per-domain arena                                                 *)

let genome =
  lazy
    (let r = { s = 7 } in
     let text = repeat_rich r ~size:30_000 ~unit:300 in
     let pats = Array.init 64 (fun i -> planted r text ~len:100 ~k:(i mod 3)) in
     (Kmismatch.build_index text, pats))

(* The hits of one search and the engine.* counters it added to a fresh
   sink. *)
let run_one fm ?config pattern k =
  let obs = Obs.create () in
  let hits = M_tree.search ?config ~obs fm ~pattern ~k in
  (hits, Test_util.engine_counters obs)

(* Steady-state searches reuse the domain's arena: they must not force a
   minor collection each (a fresh 4096-slot table per search did), nor
   come anywhere near one per search.  The BWT baseline engines run the
   same explorer, so they are held to the same bounds, and all three to
   a minor-heap budget per search that per-pattern arrays, closures and
   hit cells fit but anything allocated per node does not: the explorer
   spends at most 650 words a search here, while two rank rows and an
   interval pair per node come to about 10,000. *)
let test_steady_state_minor_gcs () =
  let idx, pats = Lazy.force genome in
  List.iter
    (fun engine ->
      let e = Option.get (Kmismatch.Engine_registry.find engine) in
      let hits = ref 0 in
      let search i =
        let pattern = pats.(i mod Array.length pats) in
        hits := !hits + List.length (e.run idx { pattern; k = 2; obs = Obs.noop })
      in
      for i = 0 to 99 do
        search i
      done;
      hits := 0;
      let before = (Gc.quick_stat ()).Gc.minor_collections and w0 = Gc.minor_words () in
      for i = 0 to 499 do
        search i
      done;
      let words = Gc.minor_words () -. w0 in
      let gcs = (Gc.quick_stat ()).Gc.minor_collections - before in
      check Alcotest.bool
        (Printf.sprintf "%s: %d minor collections over 500 searches (< 50)" e.name gcs)
        true (gcs < 50);
      let bound = 500. *. 900. +. (32. *. float_of_int !hits) in
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f minor words over 500 searches, %d hits (<= %.0f)" e.name
           words !hits bound)
        true (words <= bound))
    Kmismatch.[ M_tree; S_tree; S_tree_no_delta ]

(* A search cut short by its deadline, and one large enough to be
   replaced by a fresh arena, leave nothing behind: the next search sees
   the same tree as before them. *)
let test_arena_reset () =
  let idx, pats = Lazy.force genome in
  let fm = Kmismatch.fm_rev idx in
  let probe () = List.map (fun p -> run_one fm p 3) [ pats.(0); pats.(1); pats.(2) ] in
  let before = probe () in
  (match
     Deadline.with_ambient (Deadline.after 0.) (fun () ->
         M_tree.search fm ~pattern:pats.(3) ~k:6)
   with
  | exception Deadline.Expired -> ()
  | _ -> Alcotest.fail "an expired deadline did not cut the search");
  check Alcotest.bool "same after a timeout" true (probe () = before);
  let _, big = run_one fm ~config:{ M_tree.default_config with store_width = 1 } pats.(4) 5 in
  let nodes = List.assoc "engine.nodes" big in
  check Alcotest.bool
    (Printf.sprintf "outlier stored %d nodes" nodes)
    true (nodes > 16_384);
  check Alcotest.bool "same after an outlier" true (probe () = before)

(* ------------------------------------------------------------------ *)
(* Single-row paths                                                     *)

(* The s-tree stores nothing, so every width-1 interval it meets takes
   the single-row step and, past the switch point, the text walk.  An
   m-tree with store_width = 1 stores every node and never takes either,
   and [reference_stree] is the S-tree by its definition, one
   [extend_all] per node.  All three must explore the same tree. *)
let stree_config use_delta = { M_tree.default_config with store_width = max_int; use_delta }
let width1_config use_delta = { M_tree.default_config with store_width = 1; use_delta }

(* The S-tree of ref. [34] with one [extend_all] per extended node (two
   rank calls), every child that the budget and delta leave alive
   counted as a node, and a node at depth m, or one with no child
   alive, as a leaf; a root with no child alive is not one.  Its hits
   are [(position, distance)] from the located rows at depth m. *)
let reference_stree fm ~pattern ~k ~use_delta =
  let module Fm = Fmindex.Fm_index in
  let m = String.length pattern and n = Fm.length fm in
  let k = min k m in
  let delta =
    if use_delta then M_tree.delta_heuristic fm ~pattern ~k else Array.make (m + 2) 0
  in
  let nodes = ref 0 and leaves = ref 0 and rank_calls = ref 0 and hits = ref [] in
  let rec node lo hi j q =
    if j = m then begin
      incr leaves;
      List.iter (fun p -> hits := (n - p - m, q) :: !hits) (Fm.locate fm (lo, hi))
    end
    else begin
      let los = Array.make 5 0 and his = Array.make 5 0 in
      rank_calls := !rank_calls + 2;
      Fm.extend_all fm ~lo ~hi ~los ~his;
      let alive = ref false in
      for c = 1 to 4 do
        if los.(c) < his.(c) then begin
          let q' = if c = Dna.Alphabet.code pattern.[j] then q else q + 1 in
          if q' <= k && k - q' >= delta.(j + 2) then begin
            alive := true;
            incr nodes;
            node los.(c) his.(c) (j + 1) q'
          end
        end
      done;
      if j > 0 && not !alive then incr leaves
    end
  in
  if m <= n then begin
    let lo, hi = Fm.whole fm in
    node lo hi 0 0
  end;
  ( List.sort compare !hits,
    [
      ("engine.leaves", !leaves);
      ("engine.nodes", !nodes);
      ("engine.rank_calls", !rank_calls);
    ] )

(* A search's hits and its nodes, leaves, rank calls and derivations,
   with the taps armed so [fm.locate_walks] shows whether it located a
   row. *)
let explore fm config ~pattern ~k =
  let obs = Obs.create () in
  let hits = Test_util.tapped_into obs (fun () -> M_tree.search ~config ~obs fm ~pattern ~k) in
  let c name = Obs.counter_value obs name in
  ( hits,
    List.map (fun name -> (name, c name)) [ "engine.leaves"; "engine.nodes"; "engine.rank_calls" ],
    c "engine.derivations",
    c "fm.locate_walks" )

let show_counts counts =
  String.concat " " (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) counts)

(* One case: the s-tree's hits and counts equal the reference's and
   the naive scan's, and the width-1 m-tree's too when it derived
   nothing.  Returns whether the m-tree was compared and the s-tree's
   located rows. *)
let agree ~what text ~pattern ~k ~use_delta =
  let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
  let naive = Stringmatch.Hamming.search ~pattern ~text ~k in
  let ref_hits, ref_counts = reference_stree fm ~pattern ~k ~use_delta in
  let s_hits, s_counts, s_derivations, s_walks = explore fm (stree_config use_delta) ~pattern ~k in
  let m_hits, m_counts, m_derivations, _ = explore fm (width1_config use_delta) ~pattern ~k in
  let fail fmt = Alcotest.failf ("%s (m=%d k=%d delta=%b): " ^^ fmt) what (String.length pattern) k use_delta in
  if ref_hits <> naive then fail "reference explorer hits differ from the naive scan";
  if s_hits <> naive then fail "s-tree hits differ from the naive scan";
  if m_hits <> naive then fail "width-1 m-tree hits differ from the naive scan";
  if s_derivations <> 0 then fail "the s-tree derived";
  if s_counts <> ref_counts then
    fail "s-tree %s, reference %s" (show_counts s_counts) (show_counts ref_counts);
  if m_derivations = 0 && m_counts <> s_counts then
    fail "width-1 m-tree %s, s-tree %s" (show_counts m_counts) (show_counts s_counts);
  (m_derivations = 0, s_walks)

(* Random and repeat-rich texts, planted and random patterns long enough
   to pass the switch point, budgets 0 to 5, delta on and off. *)
let test_single_row_random () =
  let r = { s = 36 } in
  let compared = ref 0 and cases = 300 in
  for i = 1 to cases do
    let size = between r 100 3000 in
    let text = if i mod 2 = 0 then dna r size else repeat_rich r ~size ~unit:(between r 20 200) in
    let k = below r 6 in
    let len = min size (between r 1 120) in
    let pattern = if below r 4 = 0 then dna r len else planted r text ~len ~k:(k + 1) in
    let compared_m, _ = agree ~what:(Printf.sprintf "case %d" i) text ~pattern ~k ~use_delta:(i mod 3 <> 0) in
    if compared_m then incr compared
  done;
  check Alcotest.bool
    (Printf.sprintf "width-1 m-tree compared on %d of %d cases (>= 100)" !compared cases)
    true (!compared >= 100)

(* The text walk's edges: a path that runs off the start of the
   reversed text, a hit that ends at the last base of s, and k >= m,
   where every window matches and every path survives. *)
let test_single_row_edges () =
  let r = { s = 361 } in
  let text = dna r 2_000 in
  let n = String.length text in
  (* The pattern overhangs the end of s: its first 40 bases are the
     text's last 40, so its path is unique long before it runs out of
     text, and nothing is found.  Delta would prune the path at the root
     (the random tail is absent from s), so it is off; with delta a
     two-base tail still explores. *)
  let tail = String.sub text (n - 40) 40 in
  let compared = ref 0 in
  List.iter
    (fun (pattern, k, use_delta) ->
      let m_compared, walks = agree ~what:"overhang" text ~pattern ~k ~use_delta in
      if m_compared then incr compared;
      if not use_delta then
        check Alcotest.bool "overhang: the s-tree located a row" true (walks > 0))
    [ (tail ^ dna r 20, 0, false); (tail ^ dna r 20, 2, false); (tail ^ dna r 2, 2, true) ];
  (* A hit ending at the last base of s, exact and with substitutions. *)
  let last = String.sub text (n - 60) 60 in
  let last' = String.mapi (fun i c -> if i = 30 then (if c = 'a' then 'c' else 'a') else c) last in
  List.iter
    (fun (pattern, k) ->
      let m_compared, walks = agree ~what:"last base" text ~pattern ~k ~use_delta:true in
      if m_compared then incr compared;
      check Alcotest.bool "last base: the s-tree located a row" true (walks > 0);
      check Alcotest.bool "last base: hit at n - m" true
        (List.mem_assoc (n - 60) (Stringmatch.Hamming.search ~pattern ~text ~k)))
    [ (last, 0); (last', 1); (last', 3) ];
  (* Where the m-tree derived, the reference explorer was the oracle. *)
  check Alcotest.bool (Printf.sprintf "width-1 m-tree compared on %d of 6" !compared) true
    (!compared >= 2);
  (* k >= m on a short text: the width-1 m-tree derives here, so the
     reference explorer is the oracle. *)
  let short = dna r 150 in
  List.iter
    (fun (len, k) ->
      ignore (agree ~what:"k >= m" short ~pattern:(planted r short ~len ~k:2) ~k ~use_delta:true);
      ignore (agree ~what:"k >= m" short ~pattern:(dna r len) ~k ~use_delta:false))
    [ (40, 40); (40, 100); (30, 31) ]

(* A unique 5 kbp pattern: once one poll has spent its clock read on an
   expired deadline, the next read is [Deadline.poll_stride] polls
   later.  The s-tree takes about a dozen nodes to narrow to the row and
   a few more row steps before the walk, so that read falls inside the
   text walk, which must raise. *)
let test_text_walk_polls () =
  let r = { s = 5_000 } in
  let text = dna r 20_000 in
  let pattern = String.sub text 7_000 5_000 in
  let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
  let config = stree_config true in
  check Alcotest.(list (pair int int)) "found" [ (7_000, 0) ]
    (M_tree.search ~config fm ~pattern ~k:0);
  match
    Deadline.with_ambient (Deadline.after 0.) (fun () ->
        (try Deadline.poll () with Deadline.Expired -> ());
        M_tree.search ~config fm ~pattern ~k:0)
  with
  | exception Deadline.Expired -> ()
  | _ -> Alcotest.fail "an expired deadline did not cut the text walk"

(* ------------------------------------------------------------------ *)
(* The delta kernel                                                     *)

(* [f ()] and the [fm.*] counts it spent. *)
let measure f =
  let r, obs = Test_util.tapped f in
  (r, List.filter (fun (name, _) -> String.starts_with ~prefix:"fm." name) (Obs.counters obs))

(* One [Fm.extend_all] per step along [codes] from [pos], until the
   interval empties or [stop] is reached: a window's longest present
   prefix, through the located side. *)
let extend_run fm codes ~pos ~stop =
  let los = Array.make Dna.Alphabet.sigma 0 and his = Array.make Dna.Alphabet.sigma 0 in
  let rec go j (lo, hi) =
    if j >= stop then j
    else begin
      Fmindex.Fm_index.extend_all fm ~lo ~hi ~los ~his;
      let c = codes.(j) in
      if los.(c) < his.(c) then go (j + 1) (los.(c), his.(c)) else j
    end
  in
  go pos (Fmindex.Fm_index.whole fm) - pos

(* The uncapped definition: one extension run from every start. *)
let naive_delta fm pattern =
  let m = String.length pattern in
  let codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
  let delta = Array.make (m + 2) 0 in
  for i = m downto 1 do
    let l = extend_run fm codes ~pos:(i - 1) ~stop:m in
    delta.(i) <- (if i + l > m then 0 else 1 + delta.(i + l + 1))
  done;
  delta

(* Half the patterns are mutated windows of the text, so long present
   windows and large delta values both occur. *)
let gen_text_pattern =
  QCheck2.Gen.(
    pair (Test_util.dna_gen ~lo:1 ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:60 ())
    >>= fun (text, random) ->
    triple bool (int_bound 1_000_000) (int_range 0 3) >|= fun (planted, at, errors) ->
    if not planted then (text, random)
    else begin
      let n = String.length text in
      let len = min n (String.length random) in
      let pat = Bytes.of_string (String.sub text (at mod (n - len + 1)) len) in
      for e = 1 to errors do
        Bytes.set pat ((at / e) mod len) random.[e mod String.length random]
      done;
      (text, Bytes.to_string pat)
    end)

let gen_delta_case =
  QCheck2.Gen.(
    gen_text_pattern >>= fun (text, pattern) ->
    int_range 0 (String.length pattern + 1) >|= fun k -> (text, pattern, k))

(* The capped array for every budget from 0 to past m. *)
let prop_delta_kernel =
  Test_util.qtest ~count:300 "delta kernel = per-start extend" gen_delta_case
    (fun (text, pattern, k) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      M_tree.delta_heuristic fm ~pattern ~k
      = Array.map (fun d -> min d (k + 1)) (naive_delta fm pattern))

(* The scan prepends each pattern character at most once. *)
let prop_delta_cost =
  Test_util.qtest ~count:300 "delta spends at most m rank ops" gen_delta_case
    (fun (text, pattern, k) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let _, counts = measure (fun () -> M_tree.delta_heuristic fm ~pattern ~k) in
      let m = String.length pattern in
      List.assoc "fm.rank_ops" counts <= m && List.assoc "fm.block_decodes" counts <= 2 * m)

(* Backward search on the forward side, two [Occ.rank]s per step,
   prepending [codes.(stop - 1)], [codes.(stop - 2)], ...: the length it
   keeps live and the [fm.*] counts the unrolled scan must report. *)
let left_run fm codes ~stop =
  let occ = Fmindex.Fm_index.forward_occ fm in
  let counts = Fmindex.Occ.counts occ in
  let cnt = Array.init 5 (fun c -> Array.fold_left ( + ) 0 (Array.sub counts 0 c)) in
  let ops = ref 0 and decodes = ref 0 in
  let rec go j lo hi =
    let c = if j > 0 then codes.(j - 1) else 0 in
    if c < 1 || c > 4 then j
    else begin
      incr ops;
      decodes := !decodes + if hi = lo + 1 then 1 else 2;
      let r_lo = Fmindex.Occ.rank occ c lo and r_hi = Fmindex.Occ.rank occ c hi in
      let lo = cnt.(c) + r_lo and hi = cnt.(c) + r_hi in
      if lo < hi then go (j - 1) lo hi else j
    end
  in
  let j = go stop 0 (Fmindex.Occ.length occ) in
  (stop - j, [ ("fm.block_decodes", !decodes); ("fm.rank_ops", !ops) ])

(* Half the cases carry a code outside 1..4 (0 is the sentinel's, 5 is
   past the alphabet), which ends the scan like an absent window. *)
let prop_longest_left_extension =
  Test_util.qtest ~count:300 "longest_left_extension = extend loop"
    QCheck2.Gen.(
      gen_text_pattern >>= fun (text, pattern) ->
      let m = String.length pattern in
      triple (oneof [ pure m; int_range 0 m ]) (int_range 0 (2 * m)) (oneofl [ 0; 5 ])
      >|= fun (stop, bad_at, bad) ->
      let codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
      if bad_at < m then codes.(bad_at) <- bad;
      (text, codes, stop))
    (fun (text, codes, stop) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let l, counts = measure (fun () -> Fmindex.Fm_index.longest_left_extension fm codes ~stop) in
      let l', counts' = left_run fm codes ~stop in
      (* On the index of rev text: the longest suffix of codes.(0 .. stop-1)
         that occurs in text. *)
      let occurs i =
        let w = String.init (stop - i) (fun j -> "$acgt?".[codes.(i + j)]) in
        let lw = String.length w in
        let rec at p = p + lw <= String.length text && (String.sub text p lw = w || at (p + 1)) in
        at 0
      in
      l = l'
      && List.for_all (fun (name, v) -> List.assoc name counts = v) counts'
      && occurs (stop - l)
      && (l = stop || not (occurs (stop - l - 1)))
      || QCheck2.Test.fail_reportf "stop %d: scan %d, loop %d" stop l l')

(* A saved index answers delta from its adopted forward side, in either
   load mode, exactly as the index it was built as. *)
let test_delta_reloaded () =
  let r = { s = 27 } in
  let text = dna r 20_000 in
  let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
  let path = Filename.temp_file "kmm-delta" ".fmi" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fmindex.Fm_index.save ~fsync:false fm path;
      let cases =
        List.init 40 (fun i ->
            let pattern =
              if i mod 2 = 0 then planted r text ~len:(between r 20 120) ~k:(i mod 7)
              else dna r (between r 1 60)
            in
            (pattern, below r 8))
      in
      let deltas fm = List.map (fun (pattern, k) -> M_tree.delta_heuristic fm ~pattern ~k) cases in
      let built = deltas fm in
      List.iter
        (fun (name, mode) ->
          let loaded = Test_util.load_fm ~mode path in
          check Alcotest.bool (name ^ " load = built") true (deltas loaded = built))
        [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ])

(* Delta's scan allocates nothing: a few thousand calls over live and
   absent windows make no minor word beyond the measurement's own. *)
let test_delta_no_garbage () =
  let r = { s = 31 } in
  let text = dna r 20_000 in
  let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
  let cases =
    Array.init 64 (fun i ->
        let p = if i mod 2 = 0 then planted r text ~len:(between r 20 100) ~k:(i mod 4) else dna r 60 in
        Array.init (String.length p) (fun j -> Dna.Alphabet.code p.[j]))
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = words (fun () -> ()) in
  let spent =
    words (fun () ->
        for i = 0 to 4095 do
          let codes = cases.(i land 63) in
          ignore
            (Sys.opaque_identity
               (Fmindex.Fm_index.longest_left_extension fm codes ~stop:(Array.length codes)))
        done)
  in
  check (Alcotest.float 0.) "minor words" idle spent

(* A pattern character outside acgt: '$' has code 0, absent from every
   window, so it costs one absent window and no rank step. *)
let test_delta_non_acgt () =
  let fm = Kmismatch.fm_rev (Kmismatch.build_index "acagaca") in
  let d, counts = measure (fun () -> M_tree.delta_heuristic fm ~pattern:"ac$ca" ~k:5) in
  check Alcotest.(array int) "delta" [| 0; 1; 1; 1; 0; 0; 0 |] d;
  check Alcotest.int "rank ops" 4 (List.assoc "fm.rank_ops" counts)

let () =
  Alcotest.run "m_tree"
    [
      ( "golden",
        [
          Alcotest.test_case "stats and hits match the recorded exploration" `Quick
            (golden "mtree_golden.txt" ~counts:engine_fields mtree_variants);
          Alcotest.test_case "s-tree stats and hits match the recorded exploration" `Quick
            (golden "stree_golden.txt" ~counts:engine_fields stree_variants);
          Alcotest.test_case "bidir counts and hits match the recorded hand-offs" `Quick
            (golden "bidir_golden.txt" ~counts:bidir_fields bidir_variants);
          Alcotest.test_case "golden set fires derivations" `Quick
            test_golden_covers_derivations;
        ] );
      ( "arena",
        [
          Alcotest.test_case "steady state forces no minor GCs" `Quick
            test_steady_state_minor_gcs;
          Alcotest.test_case "timeouts and outliers leave no trace" `Quick test_arena_reset;
        ] );
      (* Single-row paths.  Group names stay short: Alcotest sizes its name
         column by the longest one and truncates the test names after it. *)
      ( "rows",
        [
          Alcotest.test_case "s-tree = width-1 m-tree = reference, random" `Quick
            test_single_row_random;
          Alcotest.test_case "overhang, last base, k >= m" `Quick test_single_row_edges;
          Alcotest.test_case "text walk polls the deadline" `Quick test_text_walk_polls;
        ] );
      ( "delta",
        [
          prop_delta_kernel;
          prop_delta_cost;
          prop_longest_left_extension;
          Alcotest.test_case "reloaded index (copy, mmap) = built" `Quick test_delta_reloaded;
          Alcotest.test_case "non-acgt pattern character" `Quick test_delta_non_acgt;
          Alcotest.test_case "scan allocates nothing" `Quick test_delta_no_garbage;
        ] );
    ]
