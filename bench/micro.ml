(* Bechamel micro-benchmarks of the core kernels: the BWT extension step,
   rank queries, R-table construction, the merge of mismatch arrays —
   the O(k) primitive Algorithm A leans on — and the SA-IS builds behind
   every index and the bidirectional index's cold start. *)

open Bechamel
open Toolkit

let make_tests () =
  let text =
    Dna.Sequence.to_string
      (Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 100_000; seed = 9 })
  in
  (* Repeat-bearing input for the suffix-array kernels: planted diverged
     repeats force SA-IS to recurse, as real genomes do. *)
  let small =
    Dna.Sequence.to_string
      (Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 20_000; seed = 9 })
  in
  let fm = Fmindex.Fm_index.build text in
  let pattern = String.sub text 5_000 100 in
  let k = 5 in
  let mi = Core.Mismatch_array.build pattern ~k in
  let a1 = Core.Mismatch_array.shift_table mi 3 in
  let a2 = Core.Mismatch_array.shift_table mi 7 in
  let beta x = pattern.[2 + x] and gamma x = pattern.[6 + x] in
  let los = Array.make 5 0 and his = Array.make 5 0 in
  let iv = (0, Fmindex.Fm_index.length fm + 1) in
  let random_iv =
    (* A realistic mid-search interval. *)
    match Fmindex.Fm_index.search fm (String.sub pattern 0 6) with
    | Some iv -> iv
    | None -> iv
  in
  let probe = String.sub text 42_000 12 in
  [
    Test.make ~name:"fm.extend_all (root interval)"
      (let lo, hi = iv in
       Staged.stage (fun () -> Fmindex.Fm_index.extend_all fm ~lo ~hi ~los ~his));
    Test.make ~name:"fm.extend_all (narrow interval)"
      (let lo, hi = random_iv in
       Staged.stage (fun () -> Fmindex.Fm_index.extend_all fm ~lo ~hi ~los ~his));
    Test.make ~name:"fm.count (12-mer)"
      (Staged.stage (fun () -> ignore (Fmindex.Fm_index.count fm probe)));
    Test.make ~name:"mismatch merge (paper SS:IV.B)"
      (Staged.stage (fun () ->
           ignore (Core.Mismatch_array.merge ~a1 ~a2 ~beta ~gamma ~limit:(k + 2))));
    Test.make ~name:"R_ij via table merge (derive)"
      (Staged.stage (fun () -> ignore (Core.Mismatch_array.derive mi ~i:3 ~j:7)));
    Test.make ~name:"R_ij via direct LCE"
      (Staged.stage (fun () ->
           ignore (Core.Mismatch_array.pairwise_lce mi ~i:3 ~j:7 ~limit:(k + 2))));
    Test.make ~name:"R tables build (m=100, k=5)"
      (Staged.stage (fun () ->
           (* the tables are built on first use *)
           ignore (Core.Mismatch_array.shift_table (Core.Mismatch_array.build pattern ~k) 1)));
    Test.make ~name:"suffix array (SA-IS, 20 kbp genome)"
      (Staged.stage (fun () -> ignore (Suffix.Suffix_array.build small)));
    Test.make ~name:"packed BWT (SA-IS on 2-bit, 20 kbp genome)"
      (Staged.stage
         (let pt = Fmindex.Packed_text.of_string small in
          fun () -> ignore (Fmindex.Bwt.of_packed_text pt)));
    Test.make ~name:"m-tree search (m=30, k=2)"
      (Staged.stage
         (let idx = Core.Kmismatch.build_index text in
          let p = String.sub text 77_000 30 in
          fun () ->
            ignore
              (Core.Kmismatch.run idx
                 (Core.Kmismatch.Query.make ~engine:Core.Kmismatch.M_tree
                    ~pattern:p ~k:2 ()))));
  ]

let run () =
  Bench_util.section "Micro-benchmarks (Bechamel)";
  let tests = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (make_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.iter
    (fun name ->
      let ols = Hashtbl.find results name in
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-42s %s/run\n" name (Bench_util.fmt_time (est *. 1e-9))
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare names)
