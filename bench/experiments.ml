(* One experiment per table/figure of the paper's evaluation (§V).  Every
   experiment prints the same rows/series the paper reports, on the
   laptop-scaled synthetic stand-ins documented in DESIGN.md.  Where an
   experiment runs several engines or M-tree configurations over the
   same reads, their hit lists are cross-checked and a divergence fails
   the run. *)

open Bench_util

(* One formatted average-time cell per paper engine over [rs], in
   [paper_engines] order; an engine that [skip]s its label prints
   "(skipped)".  The engines that ran are cross-checked. *)
let paper_cells ?(skip = fun _ -> false) ~what idx ~reads:rs ~k () =
  let runs =
    List.map
      (fun (label, engine) ->
        (engine, if skip label then None else Some (avg_search_time idx engine ~reads:rs ~k)))
      paper_engines
  in
  cross_check ~what ~reads:rs
    (List.filter_map
       (fun (engine, run) ->
         Option.map (fun (_, hits) -> (Core.Kmismatch.engine_name engine, hits)) run)
       runs);
  List.map
    (function _, Some (dt, _) -> fmt_time dt | _, None -> "(skipped)")
    runs

(* --- Table 1: characteristics of genomes -------------------------------- *)

let table1 () =
  section "Table 1: characteristics of genomes (synthetic stand-ins, ~1/1000 scale)";
  let rows =
    List.map
      (fun (name, profile) ->
        let g, dt = time (fun () -> genome name) in
        ignore profile;
        [ name; string_of_int (Dna.Sequence.length g); fmt_time dt ])
      Dna.Genome_gen.paper_table1
  in
  table ~header:[ "Genome"; "Genome size (bp)"; "gen time" ] rows;
  note "paper sizes: 2,909,701,677 / 1,464,443,456 / 290,094,217 / 103,022,290 / 16,728,967";
  note "ours are scaled by ~1/1000 with the same ordering and ratios"

(* --- index size (paper SS:II claims: BWT 0.5-2 B/char, suffix tree 12-17) *)

let index_size () =
  section "Index sizes: BWT (three rankall compression rates) vs suffix tree";
  note "packed-equivalent accounting as in the paper: 2-bit characters,";
  note "32-bit rankall checkpoints and SA samples, 20 B per suffix-tree node";
  let rows =
    List.map
      (fun (name, _) ->
        let g = genome name in
        let text = Dna.Sequence.to_string g in
        let n = String.length text in
        (* BWT index, packed: 2 bits/char for L, sigma-1 32-bit counters
           every [rate] positions, one 32-bit SA sample every 16 rows. *)
        let bwt_bytes rate =
          let l = n / 4 in
          let rankall = 4 * 4 * (n / rate) in
          let samples = 4 * (n / 16) in
          float_of_int (l + rankall + samples) /. float_of_int n
        in
        (* Suffix tree, packed: measured node count (built on the smaller
           genomes, extrapolated as 1.7 n nodes otherwise) at 20 B/node
           (start, end, child, sibling, suffix link as 32-bit fields). *)
        let st_nodes =
          if n <= 300_000 then
            float_of_int (Suffix.Suffix_tree.count_nodes (Suffix.Suffix_tree.build text))
          else 1.7 *. float_of_int n
        in
        let st_cell =
          Printf.sprintf "%.1f B/char%s"
            (st_nodes *. 20.0 /. float_of_int n)
            (if n <= 300_000 then "" else " (extrapolated)")
        in
        [
          name;
          string_of_int n;
          Printf.sprintf "%.2f B/char" (bwt_bytes 4);
          Printf.sprintf "%.2f B/char" (bwt_bytes 16);
          Printf.sprintf "%.2f B/char" (bwt_bytes 128);
          st_cell;
        ])
      Dna.Genome_gen.paper_table1
  in
  table
    ~header:[ "Genome"; "bp"; "BWT rate=4"; "BWT rate=16"; "BWT rate=128"; "suffix tree" ]
    rows;
  note "paper SS:II: suffix trees 12-17 bytes/char, BWT 0.5-2 bytes/char";
  note "expected shape: BWT an order of magnitude smaller, shrinking with";
  note "sparser rankalls (our OCaml runtime representations are fatter; the";
  note "packed numbers above are what the stored structures would occupy)"

(* --- Table 2: number of leaf nodes of the trees produced by A() --------- *)

let table2 () =
  section "Table 2: leaf nodes of trees created during search (M-tree vs S-tree)";
  let name = "C. elegans (WBcel235)" in
  let idx = index name in
  note "target: %s stand-in (%d bp), 10 reads per cell (paper: 500 on Rat, 2.9 Gbp)"
    name (Core.Kmismatch.length idx);
  let cells = [ (2, 50); (3, 100); (4, 150); (5, 200) ] in
  note "paper cells k/len = 5/50, 10/100, 20/150, 30/200; ours scale k to the";
  note "error rates reachable at 1/1000 genome scale, keeping the k-and-len growth";
  let rows =
    List.map
      (fun (k, len) ->
        let rs = reads ~name ~count:10 ~len ~seed:(100 + k) () in
        let m, m_hits = engine_counts idx Core.Kmismatch.M_tree ~reads:rs ~k in
        let s, s_hits = engine_counts idx Core.Kmismatch.S_tree ~reads:rs ~k in
        cross_check ~what:(Printf.sprintf "table2 %d/%d" k len) ~reads:rs
          [ ("m-tree", m_hits); ("s-tree", s_hits) ];
        [
          Printf.sprintf "%d/%d" k len;
          fmt_count (total_leaves m);
          fmt_count (Obs.counter_value m "engine.derivations");
          fmt_count (total_leaves s);
        ])
      cells
  in
  table
    ~header:[ "k/len"; "M-tree leaves (A())"; "derivations"; "S-tree leaves (BWT)" ]
    rows;
  note "paper Table 2 (S-trees): 12K / 1.7M / 6.5M / 1000M - growing with k and len";
  note "expected shape: leaf counts grow steeply with k and len.  The paper's";
  note "n' << n gap needs the 10^6-10^9-leaf trees of a Gbp-scale target; at";
  note "1/1000 scale the delta-pruned trees are small enough that pair";
  note "repetitions (hence M-tree collapses) are rare and the counts coincide"

(* --- Fig 11(a): average time vs k ---------------------------------------- *)

let fig11a () =
  section "Fig 11(a): average matching time vs k (reads of length 100)";
  let idx = index main_target in
  note "target: %s stand-in (%d bp); 15 reads/point (paper: 500 reads, 2.9 Gbp Rat)"
    main_target (Core.Kmismatch.length idx);
  let ks = [ 1; 2; 3; 4; 5 ] in
  let rs = reads ~count:15 ~len:100 ~seed:11 () in
  let rows =
    List.map
      (fun k ->
        string_of_int k
        :: paper_cells ~what:(Printf.sprintf "fig11a k=%d" k) idx ~reads:rs ~k ())
      ks
  in
  table ~header:("k" :: List.map fst paper_engines) rows;
  note "paper Fig 11a: A() fastest at every k; Amir's second; BWT and Cole's";
  note "comparable with a small-k/large-k crossover.  At 1/1000 scale the";
  note "delta-pruned trees are ~10^4 smaller and pair repetitions are rare, so";
  note "A() tracks BWT within a small constant instead of beating it; the";
  note "deriv-stress experiment isolates the regime where derivations do fire"

(* --- Fig 11(b): average time vs read length ------------------------------ *)

let fig11b () =
  section "Fig 11(b): average matching time vs read length (k = 5)";
  let idx = index main_target in
  let k = 5 in
  let lens = [ 100; 150; 200; 250; 300 ] in
  note "target: %s stand-in; 10 reads/point, k=%d; error rate scaled to 3/len"
    main_target k;
  note "so reads of every length carry ~3 expected errors (iso-difficulty;";
  note "at wgsim's fixed 2%% rate, 250+ bp reads would exceed the k budget)";
  let rows =
    List.map
      (fun len ->
        let rs = reads ~count:10 ~len ~error_rate:(3.0 /. float_of_int len)
                   ~seed:(200 + len) () in
        string_of_int len
        :: paper_cells ~what:(Printf.sprintf "fig11b len=%d" len) idx ~reads:rs ~k ())
      lens
  in
  table ~header:("read length" :: List.map fst paper_engines) rows;
  note "paper Fig 11b: only BWT and Cole's are sensitive to read length;";
  note "Amir's and A() stay nearly flat (ours: A() inherits BWT's mild growth";
  note "at this scale, Amir's per-read cost is dominated by the O(n) scan)"

(* --- Fig 12: total time vs number of reads ------------------------------- *)

let fig12 () =
  section "Fig 12: total matching time vs number of reads (len=100, k=5)";
  let idx = index main_target in
  let k = 5 in
  let counts = [ 10; 20; 30; 40; 50 ] in
  note "target: %s stand-in (paper sweeps 100..500 reads; scaled 1/10)" main_target;
  let all = reads ~count:50 ~len:100 ~seed:31 () in
  (* One untimed pass over the whole read set, so that no row is timed
     cold; its answers are the cross-check. *)
  cross_check ~what:"fig12" ~reads:all
    (List.map
       (fun (_, engine) ->
         (Core.Kmismatch.engine_name engine, List.map (search idx engine ~k) all))
       paper_engines);
  let rows =
    List.map
      (fun count ->
        let rs = List.filteri (fun i _ -> i < count) all in
        string_of_int count
        :: List.map
             (fun (_, engine) ->
               fmt_time
                 (time_unit (fun () -> List.iter (fun p -> ignore (search idx engine ~k p)) rs)))
             paper_engines)
      counts
  in
  table ~header:("reads" :: List.map fst paper_engines) rows;
  note "expected shape: linear growth for every method, same ordering as Fig 11(a)"

(* --- Fig 13: across genomes ---------------------------------------------- *)

let fig13 () =
  section "Fig 13: average matching time across genomes (len=100, k=5)";
  let k = 5 in
  note "10 reads per genome; suffix-tree (Cole's) skipped above 300 kbp for memory";
  let rows =
    List.map
      (fun (name, _) ->
        let idx = index name in
        let n = Core.Kmismatch.length idx in
        let rs = reads ~name ~count:10 ~len:(min 100 n) ~seed:41 () in
        [ name; fmt_count n ]
        @ paper_cells
            ~skip:(fun label -> label = "Cole's" && n > 300_000)
            ~what:("fig13 " ^ name) idx ~reads:rs ~k ())
      Dna.Genome_gen.paper_table1
  in
  table ~header:([ "Genome"; "bp" ] @ List.map fst paper_engines) rows;
  note "expected shape: times grow with genome size; A() fastest on each genome"

(* --- ablations ------------------------------------------------------------ *)

let ablation () =
  section "Ablations: the design choices called out in DESIGN.md";
  let idx = index main_target in
  let k = 5 in
  let rs = reads ~count:10 ~len:150 ~seed:51 () in

  (* 1. M-tree derivation machinery: chain skipping on/off, and the value
     of derivations at all.  Both S-tree rows run A()'s explorer with
     nothing stored, so nothing is derived: "S-tree + delta heuristic"
     differs from "A() full" by that alone, and "S-tree plain" also
     turns delta off (the paper's Algorithm A without its reuse). *)
  let m_skip, m_hits = avg_search_time idx Core.Kmismatch.M_tree ~reads:rs ~k in
  let m_noskip, noskip_hits =
    let fm = Core.Kmismatch.fm_rev idx in
    let config = { Core.M_tree.default_config with chain_skip = false } in
    let hits, total =
      time (fun () -> List.map (fun pattern -> Core.M_tree.search ~config fm ~pattern ~k) rs)
    in
    (total /. float_of_int (List.length rs), hits)
  in
  let s_plain, plain_hits = avg_search_time idx Core.Kmismatch.S_tree_no_delta ~reads:rs ~k in
  let s_delta, delta_hits = avg_search_time idx Core.Kmismatch.S_tree ~reads:rs ~k in
  cross_check ~what:"ablation" ~reads:rs
    [
      ("m-tree", m_hits);
      ("m-tree chain_skip=false", noskip_hits);
      ("s-tree", delta_hits);
      ("s-tree-nodelta", plain_hits);
    ];
  table
    ~header:[ "variant"; "avg time/read" ]
    [
      [ "A() full (R_ij chain skip)"; fmt_time m_skip ];
      [ "A() node-by-node derivation"; fmt_time m_noskip ];
      [ "S-tree + delta heuristic"; fmt_time s_delta ];
      [ "S-tree plain (no reuse at all)"; fmt_time s_plain ];
    ];

  (* 2. rankall compression rate: space/time trade-off of SS:III.A.
     The packed Occ rounds the rate up to a power of two in 32..65536
     (one interleaved block per checkpoint), so the sweep starts at the
     finest representable geometry instead of the old byte-scan's 4. *)
  let text = Dna.Sequence.to_string (genome main_target) in
  let rev_text = Dna.Sequence.to_string (Dna.Sequence.rev (genome main_target)) in
  let rs' = List.filteri (fun i _ -> i < 5) rs in
  let runs =
    List.map
      (fun rate ->
        let fm = Fmindex.Fm_index.build ~occ_rate:rate rev_text in
        let space =
          List.fold_left (fun a (_, b) -> a + b) 0 (Fmindex.Fm_index.space_report fm)
        in
        let hits, dt =
          time (fun () -> List.map (fun pattern -> Core.M_tree.search fm ~pattern ~k) rs')
        in
        ( (Printf.sprintf "m-tree occ rate %d" rate, hits),
          [
            string_of_int rate;
            Printf.sprintf "%.2f B/char" (float_of_int space /. float_of_int (String.length text));
            fmt_time (dt /. 5.0);
          ] ))
      [ 32; 64; 256; 1024 ]
  in
  cross_check ~what:"ablation rankall rate" ~reads:rs'
    (("m-tree", List.filteri (fun i _ -> i < 5) m_hits) :: List.map fst runs);
  let rows = List.map snd runs in
  section "Ablation: rankall checkpoint rate (space vs time)";
  table ~header:[ "occ rate"; "index size"; "avg time/read" ] rows


(* --- derivation stress: the regime the paper's mechanism targets -------- *)

let deriv_stress () =
  section "Derivation stress: reads spanning short tandem repeats";
  note "target: 100 kbp random + 40 kbp STR region (20 bp unit, 3%% divergence)";
  note "+ 100 kbp random; read of length 100 drawn inside the STR.  Here the";
  note "same <x, [lo, hi]> pairs recur at shifted pattern offsets, so Algorithm";
  note "A's hash table hits and subtrees are derived rather than re-searched.";
  let st = Random.State.make [| 5 |] in
  let rand len = String.init len (fun _ -> [| 'a'; 'c'; 'g'; 't' |].(Random.State.int st 4)) in
  let mutate rate str =
    String.map
      (fun c ->
        if Random.State.float st 1.0 < rate then
          [| 'a'; 'c'; 'g'; 't' |].(Random.State.int st 4)
        else c)
      str
  in
  let unit_str = rand 20 in
  let str_region = String.concat "" (List.init 2000 (fun _ -> mutate 0.03 unit_str)) in
  let genome = rand 100_000 ^ str_region ^ rand 100_000 in
  let idx = Core.Kmismatch.build_index genome in
  let fm = Core.Kmismatch.fm_rev idx in
  let pattern = String.sub genome 120_037 100 in
  let rows =
    List.concat_map
      (fun k ->
        (* [f obs] searches once: timed with no sink, then counted
           into a fresh one. *)
        let run name f =
          let hits, dt = time (fun () -> f Obs.noop) in
          let obs = Obs.create () in
          ignore (f obs);
          let c counter = Obs.counter_value obs counter in
          ( (name, [ hits ]),
            [
              string_of_int k;
              name;
              fmt_time dt;
              string_of_int (List.length hits);
              fmt_count (c "engine.rank_calls");
              fmt_count (c "engine.derivations");
              fmt_count (total_leaves obs);
            ] )
        in
        let runs =
          [
            run "BWT (S-tree)" (fun obs -> search ~obs idx Core.Kmismatch.S_tree ~k pattern);
            run "A() store_width=1" (fun obs ->
                Core.M_tree.search ~obs
                  ~config:{ Core.M_tree.default_config with store_width = 1 }
                  fm ~pattern ~k);
            run "A() default" (fun obs -> Core.M_tree.search ~obs fm ~pattern ~k);
          ]
        in
        cross_check ~what:(Printf.sprintf "deriv-stress k=%d" k) ~reads:[ pattern ]
          (List.map fst runs);
        List.map snd runs)
      [ 2; 4; 6 ]
  in
  table
    ~header:[ "k"; "method"; "time"; "hits"; "rank calls"; "derivations"; "leaves" ]
    rows;
  note "expected shape: with store_width=1, A()'s derivations fire by the";
  note "thousands and its rank-call count drops 10-20%% below BWT's - the";
  note "paper's O(kn'+n) operation-count advantage.  At this n, rank calls";
  note "are cache-resident and cheap while node materialization is not, so";
  note "the operation savings do not yet convert into wall-clock savings;";
  note "at the paper's 2.9 Gbp scale the balance tips the other way."
