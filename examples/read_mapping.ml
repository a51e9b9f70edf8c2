(* Read mapping: the paper's motivating workload (§I) — locate short DNA
   reads in a genome despite polymorphisms and sequencing errors.

   We synthesize a repeat-bearing genome, persist its index to disk
   (index once, map many runs), simulate wgsim-style reads on both
   strands with 2% substitution errors, and map them with the batch
   mapper on top of Algorithm A.

     dune exec examples/read_mapping.exe                                 *)

let () =
  let genome =
    Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 200_000; seed = 2024 }
  in
  Printf.printf "genome: %d bp (synthetic, 30%% repeats)\n" (Dna.Sequence.length genome);

  (* Index once and persist; later runs can [Kmismatch.load_index]. *)
  let t0 = Unix.gettimeofday () in
  let index = Core.Kmismatch.of_sequence genome in
  let index_path = Filename.temp_file "kmm_example" ".fmi" in
  Core.Kmismatch.save_index index index_path;
  Printf.printf "index built in %.2fs, saved as %s (%d bytes ~ n/4)\n"
    (Unix.gettimeofday () -. t0)
    index_path
    (Unix.stat index_path).Unix.st_size;
  let index = Core.Kmismatch.load_index index_path in
  Sys.remove index_path;

  let reads =
    Dna.Read_sim.simulate
      { Dna.Read_sim.count = 200; len = 100; error_rate = 0.02;
        both_strands = true; seed = 5 }
      genome
  in
  Printf.printf "reads:  %d x 100 bp, 2%% error rate, both strands\n\n" (List.length reads);

  let k = 5 in
  let inputs =
    List.map (fun r -> (r.Dna.Read_sim.id, Dna.Sequence.to_string r.Dna.Read_sim.seq)) reads
  in
  let t0 = Unix.gettimeofday () in
  let hits, summary = Core.Mapper.run Core.Mapper.default index ~reads:inputs ~k in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "mapped %d/%d reads (%d unique, %d ambiguous) in %.2fs (k=%d)\n"
    summary.Core.Mapper.mapped summary.Core.Mapper.total summary.Core.Mapper.unique
    summary.Core.Mapper.ambiguous dt k;

  (* Accuracy against the simulator's ground truth. *)
  let at_origin =
    List.length
      (List.filter
         (fun r ->
           List.exists
             (fun h ->
               h.Core.Mapper.read_id = r.Dna.Read_sim.id
               && h.Core.Mapper.pos = r.Dna.Read_sim.origin)
             hits)
         reads)
  in
  let over_budget =
    List.length (List.filter (fun r -> r.Dna.Read_sim.errors > k) reads)
  in
  Printf.printf "reads recovered at their true origin: %d/%d\n" at_origin (List.length reads);
  Printf.printf "reads with more than %d injected errors (unmappable by design): %d\n" k
    over_budget;

  (* Best-hit selection for a quick look at the first few alignments. *)
  let best = Core.Mapper.best_hits hits in
  print_endline "\nfirst alignments (read, pos, strand, mismatches):";
  List.iteri
    (fun i h -> if i < 5 then print_string ("  " ^ Core.Mapper.to_tsv [ h ]))
    best
