(* mtree-alloc: what a read costs Algorithm A next to the BWT baseline,
   with and without delta, in CPU time and in garbage.

     kmm bench mtree-alloc

   The target is the map-mtree workload's genome (4 Mbp, 30% repeats,
   generated from the same seed as `perfbench --seed 1`) with 100 bp
   reads, 2% substitution errors, from both strands.  Each read is
   searched as given and reverse-complemented, as the mapper does, by
   the engines' registry entries directly (no mapper, one domain).
   Every row reports per read: process CPU time, minor-heap words
   allocated, words promoted to the major heap, minor collections, and
   the engine's node, rank-call and derivation counts, which a second,
   untimed pass over the same reads counts into an Obs sink.  Beside
   them sit the CPU time and rank operations of the delta heuristic
   that m-tree and s-tree compute first (s-tree-nodelta does not),
   measured in a separate pass: [engine.rank_calls] counts the engine's
   own extensions only.  A second table holds the bidir engine (optimum
   search schemes, [Oss.search]) at k = 4 over the same reads, with its
   extension, verification and located-row counts from the same
   counting pass.  CPU time is noisy on a shared host (the table's
   closing note says how much); the GC and operation counts are not.  The three engines' hits at each k, from
   their counting passes, are cross-checked. *)

open Bench_util

let genome_bp = 4_000_000
let reads_per_row = 1_000
let warmup = 50

let patterns () =
  let genome =
    Dna.Genome_gen.generate
      { Dna.Genome_gen.default with size = genome_bp; seed = Hashtbl.hash (1, "genome") }
  in
  let reads =
    Dna.Read_sim.simulate
      {
        Dna.Read_sim.count = reads_per_row + warmup;
        len = 100;
        error_rate = 0.02;
        both_strands = true;
        seed = Hashtbl.hash (1, "reads");
      }
      genome
  in
  (Dna.Sequence.to_string genome,
   Array.of_list
     (List.map
        (fun (r : Dna.Read_sim.read) ->
          (Dna.Sequence.to_string r.seq,
           Dna.Sequence.to_string (Dna.Sequence.revcomp r.seq)))
        reads))

let per x = x /. float_of_int reads_per_row
let iper x = per (float_of_int x)

(* Run [f] with the taps armed, counting into [obs]. *)
let tapped obs f =
  let was = Atomic.get Obs.taps in
  Obs.set_taps true;
  Fun.protect ~finally:(fun () -> Obs.set_taps was) (fun () -> Obs.with_ambient obs f)

(* The patterns of the measured reads, each read then its reverse
   complement: the order of a counting pass's hits. *)
let measured pats =
  List.concat_map
    (fun i -> let fwd, rc = pats.(i) in [ fwd; rc ])
    (List.init reads_per_row (fun i -> warmup + i))

(* Warm up, then time every read and its reverse complement through
   [search Obs.noop pattern]; then search them again into a fresh sink
   with the taps armed.  Returns the leading columns every row shares,
   that sink and the counting pass's hits, in [measured] order.  Minor
   words come from [Gc.minor_words], which counts to the word:
   [Gc.quick_stat] only adds a domain's minor heap to its total when the
   heap is collected, so its count moves in steps of the heap size (262
   words per read here). *)
let timed pats search ~k =
  let both obs (fwd, rc) =
    ignore (search obs fwd);
    ignore (search obs rc)
  in
  for i = 0 to warmup - 1 do
    both Obs.noop pats.(i)
  done;
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () and t0 = Sys.time () in
  for i = warmup to warmup + reads_per_row - 1 do
    both Obs.noop pats.(i)
  done;
  let t1 = Sys.time () and w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let obs = Obs.create () in
  let hits = ref [] in
  tapped obs (fun () ->
      for i = warmup to warmup + reads_per_row - 1 do
        let fwd, rc = pats.(i) in
        let h_fwd = search obs fwd in
        let h_rc = search obs rc in
        hits := h_rc :: h_fwd :: !hits
      done);
  ( [
      string_of_int k;
      Printf.sprintf "%.1f" (per ((t1 -. t0) *. 1e6));
      Printf.sprintf "%.0f" (per (w1 -. w0));
      Printf.sprintf "%.0f" (per (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      Printf.sprintf "%.3f" (iper (g1.Gc.minor_collections - g0.Gc.minor_collections));
      Printf.sprintf "%.0f" (iper (Obs.counter_value obs "engine.nodes"));
      Printf.sprintf "%.0f" (iper (Obs.counter_value obs "engine.rank_calls"));
    ],
    obs,
    List.rev !hits )

let row idx pats engine k =
  let e = Option.get (Core.Kmismatch.Engine_registry.find engine) in
  let search obs pattern = e.run idx { pattern; k; obs } in
  let shared, obs, hits = timed pats search ~k in
  let delta_columns =
    if engine == Core.Kmismatch.S_tree_no_delta then [ "-"; "-" ]
    else begin
      let fm = Core.Kmismatch.fm_rev idx in
      let delta_pass () =
        for i = warmup to warmup + reads_per_row - 1 do
          let fwd, rc = pats.(i) in
          ignore (Core.M_tree.delta_heuristic fm ~pattern:fwd ~k);
          ignore (Core.M_tree.delta_heuristic fm ~pattern:rc ~k)
        done
      in
      let d0 = Sys.time () in
      delta_pass ();
      let delta_cpu = Sys.time () -. d0 in
      let taps = Obs.create () in
      tapped taps delta_pass;
      [
        Printf.sprintf "%.1f" (per (delta_cpu *. 1e6));
        Printf.sprintf "%.0f" (iper (Obs.counter_value taps "fm.rank_ops"));
      ]
    end
  in
  ( (e.name :: shared)
    @ (Printf.sprintf "%.2f" (iper (Obs.counter_value obs "engine.derivations")) :: delta_columns),
    (e.name, hits) )

(* The bidir engine at k = 4: the shared columns, then its extensions,
   candidate verifications and located rows (LF walks) per read. *)
let bidir_row idx pats =
  let k = 4 in
  let bidir = Core.Kmismatch.bidir idx in
  let shared, obs, _ =
    timed pats (fun obs pattern -> Core.Oss.search ~obs bidir ~pattern ~k) ~k
  in
  ("bidir" :: shared)
  @ [
      Printf.sprintf "%.0f" (iper (Obs.counter_value obs "bidir.extends"));
      Printf.sprintf "%.1f" (iper (Obs.counter_value obs "bidir.verifications"));
      Printf.sprintf "%.1f" (iper (Obs.counter_value obs "fm.locate_walks"));
    ]

let run () =
  section
    "mtree-alloc: per-read CPU and GC cost of A() (m-tree) vs the BWT baseline (s-tree, s-tree-nodelta)";
  let text, pats = patterns () in
  let idx = Core.Kmismatch.build_index text in
  note "map-mtree genome: %d bp; %d reads of 100 bp per row, both strands, after %d warm-up reads"
    genome_bp reads_per_row warmup;
  let rows =
    List.concat_map
      (fun k ->
        let runs =
          List.map (fun e -> row idx pats e k) Core.Kmismatch.[ M_tree; S_tree; S_tree_no_delta ]
        in
        cross_check ~what:(Printf.sprintf "mtree-alloc k=%d" k) ~reads:(measured pats)
          (List.map snd runs);
        List.map fst runs)
      [ 2; 3 ]
  in
  table
    ~header:
      [ "engine"; "k"; "cpu us/read"; "minor words"; "promoted words"; "minor GCs";
        "nodes"; "rank calls"; "derivations"; "delta cpu us"; "delta rank ops" ]
    rows;
  table
    ~header:
      [ "engine"; "k"; "cpu us/read"; "minor words"; "promoted words"; "minor GCs";
        "nodes"; "rank calls"; "extends"; "verifications"; "located rows" ]
    [ bidir_row idx pats ];
  note "all columns but k are per read (two searches: the read and its reverse complement)";
  note "cpu columns: one row spans 93-129 us/read between runs of one build (shared 2-vCPU host),";
  note
    "so they cannot resolve a 15%% change; only the count and GC columns back a claim, unless a \
     control run sits beside the pairs"
