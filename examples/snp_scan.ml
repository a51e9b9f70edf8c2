(* SNP scanning: find where a probe sequence matches the reference with a
   small number of single-nucleotide differences, and report each
   difference — the "disease diagnosis" use case from the paper's
   introduction.

   Algorithm A locates the k-mismatch occurrences; each reported site's
   differences are then read off by comparing its window with the probe.

     dune exec examples/snp_scan.exe                                     *)

let () =
  (* A reference with a duplicated gene-like region. *)
  let gene = "acgtacgattacagattacagcatgcatgg" in
  let reference =
    let filler seed len =
      Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| seed |]) len)
    in
    filler 1 50 ^ gene ^ filler 2 40
    ^ (* paralog with two SNPs *)
    "acgtacgataacagattacagcgtgcatgg"
    ^ filler 3 50
  in
  let probe = gene in
  let k = 3 in

  Printf.printf "reference: %d bp, probe: %d bp, k = %d\n\n" (String.length reference)
    (String.length probe) k;

  let index = Core.Kmismatch.build_index reference in
  let sites =
    (Core.Kmismatch.run index
       (Core.Kmismatch.Query.make ~engine:Core.Kmismatch.M_tree ~pattern:probe ~k ()))
      .hits
  in

  List.iter
    (fun (pos, d) ->
      Printf.printf "site at %d: %d difference(s)\n" pos d;
      String.iteri
        (fun off c ->
          if c <> reference.[pos + off] then
            Printf.printf "  SNP at reference %d: %c -> %c\n" (pos + off) c
              reference.[pos + off])
        probe)
    sites;

  if sites = [] then print_endline "no sites found"
  else Printf.printf "\n%d site(s) found\n" (List.length sites)
