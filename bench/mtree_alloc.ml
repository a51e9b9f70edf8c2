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
   engine's own extensions only.  A second table holds the bidir engine
   (optimum search schemes, [Oss.search]) at k = 4 over the same reads,
   with its extension, verification and located-row counts taken in a
   separate counting pass.  CPU time is noisy on a shared host; the GC
   and operation counts are not. *)

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

(* Warm up, then time every read and its reverse complement through
   [search stats pattern]: the leading columns every row shares, and the
   engine's Stats. *)
let timed pats search ~k =
  let stats = Core.Stats.create () in
  let both stats (fwd, rc) =
    ignore (search stats fwd);
    ignore (search stats rc)
  in
  for i = 0 to warmup - 1 do
    both None pats.(i)
  done;
  let g0 = Gc.quick_stat () and t0 = Sys.time () in
  for i = warmup to warmup + reads_per_row - 1 do
    both (Some stats) pats.(i)
  done;
  let t1 = Sys.time () and g1 = Gc.quick_stat () in
  ( [
      string_of_int k;
      Printf.sprintf "%.1f" (per ((t1 -. t0) *. 1e6));
      Printf.sprintf "%.0f" (per (g1.Gc.minor_words -. g0.Gc.minor_words));
      Printf.sprintf "%.0f" (per (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      Printf.sprintf "%.3f" (iper (g1.Gc.minor_collections - g0.Gc.minor_collections));
      Printf.sprintf "%.0f" (iper stats.Core.Stats.nodes);
      Printf.sprintf "%.0f" (iper stats.Core.Stats.rank_calls);
    ],
    stats )

let row fm pats (name, search) k =
  let shared, stats = timed pats (fun stats pattern -> search ?stats fm ~pattern ~k) ~k in
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
  (name :: shared)
  @ [
      Printf.sprintf "%.2f" (iper stats.Core.Stats.derivations);
      Printf.sprintf "%.1f" (per (delta_cpu *. 1e6));
      Printf.sprintf "%.0f" (iper delta_ops);
    ]

(* The bidir engine at k = 4: the timed columns, then its extensions,
   candidate verifications and located rows (LF walks) per read, counted
   in a second pass with an Obs sink and the FM telemetry armed. *)
let bidir_row idx pats =
  let k = 4 in
  let ptext = Core.Kmismatch.packed_text idx and bidir = Core.Kmismatch.bidir idx in
  let shared, _ =
    timed pats (fun stats pattern -> Core.Oss.search ?stats ~ptext bidir ~pattern ~k) ~k
  in
  let obs = Obs.create () in
  let module T = Fmindex.Fm_index.Telemetry in
  let was = T.is_enabled () in
  T.set_enabled true;
  let r0 = T.snapshot () in
  for i = warmup to warmup + reads_per_row - 1 do
    let fwd, rc = pats.(i) in
    ignore (Core.Oss.search ~obs ~ptext bidir ~pattern:fwd ~k);
    ignore (Core.Oss.search ~obs ~ptext bidir ~pattern:rc ~k)
  done;
  let located = (T.diff ~since:r0 (T.snapshot ())).T.locate_walks in
  T.set_enabled was;
  ("bidir" :: shared)
  @ [
      Printf.sprintf "%.0f" (iper (Obs.counter_value obs "bidir.extends"));
      Printf.sprintf "%.1f" (iper (Obs.counter_value obs "bidir.verifications"));
      Printf.sprintf "%.1f" (iper located);
    ]

let run () =
  section "mtree-alloc: per-read CPU and GC cost of A() (m-tree) vs the BWT baseline (s-tree)";
  let text, pats = patterns () in
  let idx = Core.Kmismatch.build_index text in
  let fm = Core.Kmismatch.fm_rev idx in
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
  table
    ~header:
      [ "engine"; "k"; "cpu us/read"; "minor words"; "promoted words"; "minor GCs";
        "nodes"; "rank calls"; "extends"; "verifications"; "located rows" ]
    [ bidir_row idx pats ];
  note "all columns but k are per read (two searches: the read and its reverse complement)"
