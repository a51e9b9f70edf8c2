(* mtree-alloc: what a read costs Algorithm A next to the BWT baseline,
   in CPU time and in garbage.

     dune exec bench/main.exe mtree-alloc

   The target is the map-mtree workload's genome (4 Mbp, 30% repeats,
   generated from the same seed as `perfbench --seed 1`) with 100 bp
   reads, 2% substitution errors, from both strands.  Each read is
   searched as given and reverse-complemented, as the mapper does, by
   the engines directly (no mapper, one domain).  Every row reports per
   read: process CPU time, minor-heap words allocated, words promoted to
   the major heap, minor collections, and the engine's node, rank-call
   and derivation counts.  Beside them sit the CPU time and rank
   operations of the delta heuristic both engines compute first, measured
   in a separate pass over the same reads: [Stats.rank_calls] counts the
   engine's own extensions only.  CPU time is noisy on a shared host; the
   GC and operation counts are not. *)

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

let row fm pats (name, search) k =
  let stats = Core.Stats.create () in
  let both ?stats (fwd, rc) =
    ignore (search ?stats fm ~pattern:fwd ~k);
    ignore (search ?stats fm ~pattern:rc ~k)
  in
  for i = 0 to warmup - 1 do
    both pats.(i)
  done;
  let g0 = Gc.quick_stat () and t0 = Sys.time () in
  for i = warmup to warmup + reads_per_row - 1 do
    both ~stats pats.(i)
  done;
  let t1 = Sys.time () and g1 = Gc.quick_stat () in
  let delta_pass () =
    for i = warmup to warmup + reads_per_row - 1 do
      let fwd, rc = pats.(i) in
      ignore (Core.S_tree.delta_heuristic fm ~pattern:fwd ~k);
      ignore (Core.S_tree.delta_heuristic fm ~pattern:rc ~k)
    done
  in
  let d0 = Sys.time () in
  delta_pass ();
  let delta_cpu = Sys.time () -. d0 in
  let module T = Fmindex.Fm_index.Telemetry in
  let was = T.is_enabled () in
  T.set_enabled true;
  let r0 = T.snapshot () in
  delta_pass ();
  let delta_ops = (T.diff ~since:r0 (T.snapshot ())).T.rank_ops in
  T.set_enabled was;
  let per x = x /. float_of_int reads_per_row in
  let iper x = per (float_of_int x) in
  [
    name;
    string_of_int k;
    Printf.sprintf "%.1f" (per ((t1 -. t0) *. 1e6));
    Printf.sprintf "%.0f" (per (g1.Gc.minor_words -. g0.Gc.minor_words));
    Printf.sprintf "%.0f" (per (g1.Gc.promoted_words -. g0.Gc.promoted_words));
    Printf.sprintf "%.3f" (iper (g1.Gc.minor_collections - g0.Gc.minor_collections));
    Printf.sprintf "%.0f" (iper stats.Core.Stats.nodes);
    Printf.sprintf "%.0f" (iper stats.Core.Stats.rank_calls);
    Printf.sprintf "%.2f" (iper stats.Core.Stats.derivations);
    Printf.sprintf "%.1f" (per (delta_cpu *. 1e6));
    Printf.sprintf "%.0f" (iper delta_ops);
  ]

let run () =
  section "mtree-alloc: per-read CPU and GC cost of A() (m-tree) vs the BWT baseline (s-tree)";
  let text, pats = patterns () in
  let fm = Core.Kmismatch.fm_rev (Core.Kmismatch.build_index text) in
  note "map-mtree genome: %d bp; %d reads of 100 bp per row, both strands, after %d warm-up reads"
    genome_bp reads_per_row warmup;
  let m_tree ?stats fm ~pattern ~k = Core.M_tree.search ?stats fm ~pattern ~k in
  let s_tree ?stats fm ~pattern ~k = Core.S_tree.search ?stats fm ~pattern ~k in
  let rows =
    List.concat_map
      (fun k -> List.map (fun e -> row fm pats e k) [ ("m-tree", m_tree); ("s-tree", s_tree) ])
      [ 2; 3 ]
  in
  table
    ~header:
      [ "engine"; "k"; "cpu us/read"; "minor words"; "promoted words"; "minor GCs";
        "nodes"; "rank calls"; "derivations"; "delta cpu us"; "delta rank ops" ]
    rows;
  note "all columns but k are per read (two searches: the read and its reverse complement)"
