(* Quickstart: index a small target and run a k-mismatch query with every
   engine, reproducing the paper's running example (§IV.A).

     dune exec examples/quickstart.exe                                   *)

let () =
  let target = "acagaca" in
  let pattern = "tcaca" in
  let k = 2 in
  Printf.printf "target  = %s\npattern = %s\nk       = %d\n\n" target pattern k;

  (* One index serves every engine. *)
  let index = Core.Kmismatch.build_index target in

  (* The BWT array the index is built on (the paper transforms the
     *reverse* of the target so the pattern can be matched left to
     right). *)
  Printf.printf "BWT(target$)     = %s\n" (Fmindex.Bwt.of_text target);
  Printf.printf "BWT(rev target$) = %s\n\n"
    (Fmindex.Fm_index.bwt (Core.Kmismatch.fm_rev index));

  let search engine =
    (Core.Kmismatch.run index (Core.Kmismatch.Query.make ~engine ~pattern ~k ())).hits
  in
  List.iter
    (fun engine ->
      Printf.printf "%-16s" (Core.Kmismatch.engine_name engine);
      List.iter
        (fun (pos, d) -> Printf.printf " (pos=%d, mismatches=%d)" pos d)
        (search engine);
      print_newline ())
    (Core.Kmismatch.all_engines ());

  (* The two occurrences cover s[0..4] = acaga and s[2..6] = agaca, each
     differing from tcaca in exactly two positions — the paper's P1/P2. *)
  print_newline ();
  List.iter
    (fun (pos, d) ->
      Printf.printf "window at %d: %s vs %s (%d mismatches)\n" pos
        (String.sub target pos (String.length pattern))
        pattern d)
    (search Core.Kmismatch.M_tree)

(* The paper's mismatching tree (Fig. 7) as the engine explores it: n'
   counts the tree's paths, the two occurrences plus the two paths cut
   on their third mismatch, whether explored or derived. *)
let () =
  let index = Core.Kmismatch.build_index "acagaca" in
  let obs = Obs.create () in
  ignore
    (Core.Kmismatch.run index
       (Core.Kmismatch.Query.make ~obs ~engine:Core.Kmismatch.M_tree ~pattern:"tcaca" ~k:2 ()));
  let count = Obs.counter_value obs in
  Printf.printf "\nm-tree: n' = %d paths, %d nodes, %d derivations\n"
    (count "engine.leaves" + count "engine.derived_leaves")
    (count "engine.nodes") (count "engine.derivations")
