(* What Algorithm A explores, pinned.

   [golden_cases] is a fixed, seeded set of [M_tree.search] calls: random
   texts with planted patterns, repetitive texts where derivations fire,
   a repeat-rich genome with 100 bp reads, and k >= m clamp cases, each
   under the default configuration and the store_width = 1 /
   chain_skip = false / use_delta = false variants.  For every call the
   six [Stats.t] fields, the hit count and a digest of the hit list must
   equal the line recorded in [fixtures/mtree_golden.txt], so a change to
   how the M-tree is stored cannot change what it explores or finds.
   [fixtures/stree_golden.txt] pins the BWT baseline engines (s-tree and
   s-tree-nodelta, through [Kmismatch.run]) on the same queries.

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
   [variants] are [(name, search)] pairs, [search idx s ~pattern ~k]
   counting into [s]. *)
let observe variants =
  List.concat_map
    (fun (family, text, qs) ->
      let idx = Kmismatch.build_index text in
      List.concat_map
        (fun (pattern, k) ->
          List.map
            (fun (vname, search) ->
              let s = Stats.create () in
              let hits = search idx s ~pattern ~k in
              let flat = String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d,%d" p d) hits) in
              Printf.sprintf "%s/%s n=%d m=%d k=%d nodes=%d leaves=%d rank_calls=%d derivations=%d derived_leaves=%d resumes=%d hits=%d %s"
                family vname (String.length text) (String.length pattern) k s.nodes s.leaves
                s.rank_calls s.derivations s.derived_leaves s.resumes (List.length hits)
                (Digest.to_hex (Digest.string flat)))
            variants)
        qs)
    (golden_cases ())

(* [M_tree.search] under each config. *)
let mtree_variants =
  List.map
    (fun (cname, config) ->
      ( cname,
        fun idx stats ~pattern ~k ->
          M_tree.search ~config ~stats (Kmismatch.fm_rev idx) ~pattern ~k ))
    configs

(* The BWT baseline engines through [Kmismatch.run]. *)
let stree_variants =
  List.map
    (fun engine ->
      ( Kmismatch.engine_name engine,
        fun idx stats ~pattern ~k ->
          let r = Kmismatch.run idx (Kmismatch.Query.make ~engine ~pattern ~k ()) in
          Stats.merge ~into:stats r.stats;
          r.hits ))
    Kmismatch.[ S_tree; S_tree_no_delta ]

(* The observed lines must equal [fixtures/<file>].  With
   KMM_RECORD_GOLDEN set to a directory, they are written to <dir>/<file>
   instead: how a fixture is recorded. *)
let golden file variants () =
  let got = observe variants in
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

let run_one fm ?config pattern k =
  let s = Stats.create () in
  let hits = M_tree.search ?config ~stats:s fm ~pattern ~k in
  (hits, s)

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
      let stats = Stats.create () and hits = ref 0 in
      let search i =
        let pattern = pats.(i mod Array.length pats) in
        hits := !hits + List.length (e.run idx { pattern; k = 2; stats; obs = Obs.noop })
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
  check Alcotest.bool
    (Printf.sprintf "outlier stored %d nodes" big.nodes)
    true (big.nodes > 16_384);
  check Alcotest.bool "same after an outlier" true (probe () = before)

(* ------------------------------------------------------------------ *)
(* The delta kernel                                                     *)

(* [f ()] and the [fm.*] counts it spent. *)
let measure f =
  let r, obs = Test_util.tapped f in
  (r, List.filter (fun (name, _) -> String.starts_with ~prefix:"fm." name) (Obs.counters obs))

(* One [Fm.extend] per step along [codes] from [pos], until the interval
   empties or [stop] is reached: the steps [longest_extension] unrolls. *)
let extend_run fm codes ~pos ~stop =
  let rec go j iv =
    if j >= stop then j
    else
      match Fmindex.Fm_index.extend fm codes.(j) iv with
      | None -> j
      | Some iv' -> go (j + 1) iv'
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

(* The capped array never costs more than the runs from every start. *)
let prop_delta_cost =
  Test_util.qtest ~count:300 "capped delta spends no more than per-start runs"
    gen_delta_case
    (fun (text, pattern, k) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let _, capped = measure (fun () -> M_tree.delta_heuristic fm ~pattern ~k) in
      let _, full = measure (fun () -> naive_delta fm pattern) in
      let le name = List.assoc name capped <= List.assoc name full in
      le "fm.rank_ops" && le "fm.block_decodes")

(* Same length, and the same rank/block counts, as the extend loop,
   stopped inside the pattern or at its end. *)
let prop_longest_extension =
  Test_util.qtest ~count:300 "longest_extension = extend loop"
    QCheck2.Gen.(
      gen_text_pattern >>= fun (text, pattern) ->
      let m = String.length pattern in
      pair (int_range 0 m) (oneof [ pure m; int_range 0 m ]) >|= fun (a, stop) ->
      (text, pattern, min a stop, stop))
    (fun (text, pattern, pos, stop) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let codes = Array.init (String.length pattern) (fun i -> Dna.Alphabet.code pattern.[i]) in
      measure (fun () -> Fmindex.Fm_index.longest_extension fm codes ~pos ~stop)
      = measure (fun () -> extend_run fm codes ~pos ~stop))

let () =
  Alcotest.run "m_tree"
    [
      ( "golden",
        [
          Alcotest.test_case "stats and hits match the recorded exploration" `Quick
            (golden "mtree_golden.txt" mtree_variants);
          Alcotest.test_case "s-tree stats and hits match the recorded exploration" `Quick
            (golden "stree_golden.txt" stree_variants);
          Alcotest.test_case "golden set fires derivations" `Quick
            test_golden_covers_derivations;
        ] );
      ( "arena",
        [
          Alcotest.test_case "steady state forces no minor GCs" `Quick
            test_steady_state_minor_gcs;
          Alcotest.test_case "timeouts and outliers leave no trace" `Quick test_arena_reset;
        ] );
      ("delta", [ prop_delta_kernel; prop_delta_cost; prop_longest_extension ]);
    ]
