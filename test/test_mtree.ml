(* What Algorithm A explores, pinned.

   [golden_cases] is a fixed, seeded set of [M_tree.search] calls: random
   texts with planted patterns, repetitive texts where derivations fire,
   a repeat-rich genome with 100 bp reads, and k >= m clamp cases, each
   under the default configuration and the store_width = 1 /
   chain_skip = false / use_delta = false variants.  For every call the
   six [Stats.t] fields, the hit count and a digest of the hit list must
   equal the line recorded in [fixtures/mtree_golden.txt], so a change to
   how the M-tree is stored cannot change what it explores or finds.

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

let observe () =
  List.concat_map
    (fun (family, text, qs) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      List.concat_map
        (fun (pattern, k) ->
          List.map
            (fun (cname, config) ->
              let s = Stats.create () in
              let hits = M_tree.search ~config ~stats:s fm ~pattern ~k in
              let flat = String.concat ";" (List.map (fun (p, d) -> Printf.sprintf "%d,%d" p d) hits) in
              Printf.sprintf "%s/%s n=%d m=%d k=%d nodes=%d leaves=%d rank_calls=%d derivations=%d derived_leaves=%d resumes=%d hits=%d %s"
                family cname (String.length text) (String.length pattern) k s.nodes s.leaves
                s.rank_calls s.derivations s.derived_leaves s.resumes (List.length hits)
                (Digest.to_hex (Digest.string flat)))
            configs)
        qs)
    (golden_cases ())

let test_golden () =
  let expected = In_channel.with_open_bin "fixtures/mtree_golden.txt" In_channel.input_lines in
  let got = observe () in
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

let genome_fm =
  lazy
    (let r = { s = 7 } in
     let text = repeat_rich r ~size:30_000 ~unit:300 in
     let pats = Array.init 64 (fun i -> planted r text ~len:100 ~k:(i mod 3)) in
     (Kmismatch.fm_rev (Kmismatch.build_index text), pats))

let run_one fm ?config pattern k =
  let s = Stats.create () in
  let hits = M_tree.search ?config ~stats:s fm ~pattern ~k in
  (hits, s)

(* Steady-state searches reuse the domain's arena: they must not force a
   minor collection each (a fresh 4096-slot table per search did), nor
   come anywhere near one per search. *)
let test_steady_state_minor_gcs () =
  let fm, pats = Lazy.force genome_fm in
  let search i = ignore (M_tree.search fm ~pattern:pats.(i mod Array.length pats) ~k:2) in
  for i = 0 to 99 do
    search i
  done;
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 0 to 499 do
    search i
  done;
  let gcs = (Gc.quick_stat ()).Gc.minor_collections - before in
  check Alcotest.bool
    (Printf.sprintf "%d minor collections over 500 searches (< 50)" gcs)
    true (gcs < 50)

(* A search cut short by its deadline, and one large enough to be
   replaced by a fresh arena, leave nothing behind: the next search sees
   the same tree as before them. *)
let test_arena_reset () =
  let fm, pats = Lazy.force genome_fm in
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

(* The definition the kernel replaces: one [Fm.extend] per step from
   every start, stopping at the first empty interval. *)
let naive_delta fm pattern =
  let m = String.length pattern in
  let delta = Array.make (m + 2) 0 in
  for i = m downto 1 do
    let rec extend j iv =
      if j > m then 0
      else
        match Fmindex.Fm_index.extend fm (Dna.Alphabet.code pattern.[j - 1]) iv with
        | None -> j
        | Some iv' -> extend (j + 1) iv'
    in
    let j = extend i (Fmindex.Fm_index.whole fm) in
    delta.(i) <- (if j = 0 then 0 else 1 + delta.(j + 1))
  done;
  delta

(* Same array, and the same rank/block telemetry, as the naive loop. *)
let prop_delta_kernel =
  let module T = Fmindex.Fm_index.Telemetry in
  Test_util.qtest ~count:300 "delta kernel = per-start extend"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:60 ()))
    (fun (text, pattern) ->
      let fm = Kmismatch.fm_rev (Kmismatch.build_index text) in
      let was = T.is_enabled () in
      T.set_enabled true;
      let measure f =
        let t0 = T.snapshot () in
        let d = f () in
        (d, T.diff ~since:t0 (T.snapshot ()))
      in
      let want, want_t = measure (fun () -> naive_delta fm pattern) in
      let got, got_t = measure (fun () -> S_tree.delta_heuristic fm ~pattern) in
      T.set_enabled was;
      got = want && got_t = want_t)

let () =
  Alcotest.run "m_tree"
    [
      ( "golden",
        [
          Alcotest.test_case "stats and hits match the recorded exploration" `Quick test_golden;
          Alcotest.test_case "golden set fires derivations" `Quick
            test_golden_covers_derivations;
        ] );
      ( "arena",
        [
          Alcotest.test_case "steady state forces no minor GCs" `Quick
            test_steady_state_minor_gcs;
          Alcotest.test_case "timeouts and outliers leave no trace" `Quick test_arena_reset;
        ] );
      ("delta", [ prop_delta_kernel ]);
    ]
