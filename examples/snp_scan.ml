(* SNP scanning: find where a probe sequence matches the reference with a
   small number of single-nucleotide differences, and report each
   difference — the "disease diagnosis" use case from the paper's
   introduction.

   The scan combines two parts of the library: Algorithm A to locate the
   k-mismatch occurrences, and the kangaroo LCE structure to pin down the
   exact mismatch offsets of every reported site in O(k) per site.

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

  let lce = Stringmatch.Kangaroo.make ~pattern:probe ~text:reference in
  List.iter
    (fun (pos, d) ->
      Printf.printf "site at %d: %d difference(s)\n" pos d;
      let offsets = Stringmatch.Kangaroo.mismatches_at lce ~pos ~limit:k in
      List.iter
        (fun off ->
          Printf.printf "  SNP at reference %d: %c -> %c\n" (pos + off)
            probe.[off] reference.[pos + off])
        offsets)
    sites;

  if sites = [] then print_endline "no sites found"
  else Printf.printf "\n%d site(s) found\n" (List.length sites)
