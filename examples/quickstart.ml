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

(* The literal mismatching tree of the paper's Fig. 7: collapsed <-, 0>
   match runs with <char, position> mismatch nodes, and the per-path
   mismatch arrays B_l of Fig. 3. *)
let () =
  let index = Core.Kmismatch.build_index "acagaca" in
  let tree =
    Core.Mismatch_tree.build (Core.Kmismatch.fm_rev index) ~pattern:"tcaca" ~k:2
  in
  Format.printf "@.mismatching tree (paper Fig. 7):@.%a@." Core.Mismatch_tree.pp
    tree.Core.Mismatch_tree.root;
  List.iter
    (fun p ->
      Format.printf "B = [%s]%s@."
        (String.concat "; "
           (List.map string_of_int p.Core.Mismatch_tree.mismatches))
        (if p.Core.Mismatch_tree.complete then
           Printf.sprintf " -> occurrence(s) at %s"
             (String.concat ", "
                (List.map string_of_int p.Core.Mismatch_tree.occurrences))
         else " (dead path)"))
    tree.Core.Mismatch_tree.paths
