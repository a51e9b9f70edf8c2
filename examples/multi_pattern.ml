(* Multi-pattern session: amortize one index over many queries, mixing
   exact search (plain FM backward search), k-mismatch search (Algorithm
   A), and multi-string exact search (Aho-Corasick) — the library's three
   query styles side by side.

     dune exec examples/multi_pattern.exe                                *)

let () =
  let genome =
    Dna.Genome_gen.generate
      { Dna.Genome_gen.default with size = 50_000; seed = 99; repeat_fraction = 0.4 }
  in
  let text = Dna.Sequence.to_string genome in
  let index = Core.Kmismatch.build_index text in

  (* 1. Exact queries, two index families side by side: FM-index
     backward search and suffix-tree walk. *)
  let fm = Fmindex.Fm_index.build text in
  let tree = Core.Kmismatch.suffix_tree index in
  let probes = [ String.sub text 1000 12; String.sub text 30_000 15; "acgtacgtacgtacg" ] in
  print_endline "exact (FM-index / suffix tree):";
  List.iter
    (fun p ->
      Printf.printf "  %-16s fm=%d tree=%b\n" p (Fmindex.Fm_index.count fm p)
        (Suffix.Suffix_tree.contains tree p))
    probes;

  (* 2. k-mismatch queries through Algorithm A, reusing one index. *)
  print_endline "\nk-mismatch (Algorithm A):";
  List.iter
    (fun (p, k) ->
      let q = Core.Kmismatch.Query.make ~engine:Core.Kmismatch.M_tree ~pattern:p ~k () in
      let r = Core.Kmismatch.run index q in
      Printf.printf "  %-20s k=%d  %d occurrence(s)\n" p k (List.length r.hits))
    [
      (String.sub text 1000 20, 2);
      (String.sub text 25_000 30, 3);
      ("acgtacgtacgtacgtacgt", 4);
    ];

  (* 3. Multi-string exact search in a single pass (Aho-Corasick). *)
  let motifs = [| "tataaa"; "caat"; "gggcgg" |] in
  let ac = Stringmatch.Aho_corasick.build motifs in
  let counts = Array.make (Array.length motifs) 0 in
  Stringmatch.Aho_corasick.scan ac (Core.Kmismatch.packed_text index)
    ~f:(fun ~pattern ~pos:_ ->
      counts.(pattern) <- counts.(pattern) + 1);
  print_endline "\nmotif counts (Aho-Corasick, one pass):";
  Array.iteri (fun i m -> Printf.printf "  %-8s %d\n" m counts.(i)) motifs
