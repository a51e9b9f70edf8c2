(* Tests for the domain work pool and the parallel batch mapper.

   The contract under test: [Mapper.run] with [domains = n] returns hits
   and summary byte-identical to the sequential path ([domains = 1]) for
   every n and chunking, and merged per-domain stats equal sequential
   stats. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Work_pool                                                            *)

let test_pool_map_array () =
  Work_pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Work_pool.map_array pool ~f:(fun x -> x * x) input in
      check bool "squares in order" true
        (out = Array.init 100 (fun i -> i * i)));
  (* domains=1: inline sequential special case *)
  Work_pool.with_pool ~domains:1 (fun pool ->
      let out = Work_pool.map_array pool ~f:string_of_int [| 7; 8 |] in
      check bool "seq map" true (out = [| "7"; "8" |]))

let test_pool_empty_and_zero_tasks () =
  Work_pool.with_pool ~domains:3 (fun pool ->
      check bool "empty map_array" true (Work_pool.map_array pool ~f:succ [||] = [||]);
      Work_pool.run pool ~tasks:0 (fun ~worker:_ ~task:_ -> assert false))

let test_pool_worker_ids () =
  Work_pool.with_pool ~domains:3 (fun pool ->
      check int "domains" 3 (Work_pool.domains pool);
      let seen = Array.make 64 (-1) in
      Work_pool.run pool ~tasks:64 (fun ~worker ~task ->
          Domain.cpu_relax ();
          seen.(task) <- worker);
      Array.iter (fun w -> check bool "worker id in range" true (w >= 0 && w < 3)) seen)

let test_pool_exception_propagates () =
  Work_pool.with_pool ~domains:4 (fun pool ->
      match
        Work_pool.run pool ~tasks:32 (fun ~worker:_ ~task ->
            if task = 17 then failwith "boom")
      with
      | () -> Alcotest.fail "exception swallowed"
      | exception Work_pool.Task_failed { task; exn = Failure msg } ->
          check int "failing task id" 17 task;
          check Alcotest.string "message" "boom" msg
      | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e));
  (* the pool is still usable after a failed job *)
  Work_pool.with_pool ~domains:4 (fun pool ->
      (try Work_pool.run pool ~tasks:4 (fun ~worker:_ ~task:_ -> failwith "x")
       with Work_pool.Task_failed _ -> ());
      let out = Work_pool.map_array pool ~f:succ [| 1; 2; 3 |] in
      check bool "pool alive after error" true (out = [| 2; 3; 4 |]))

let test_pool_invalid_args () =
  (match Work_pool.create ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 accepted");
  match Work_pool.chunks ~total:10 ~chunk_size:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk_size=0 accepted"

let test_chunks () =
  check bool "exact" true (Work_pool.chunks ~total:6 ~chunk_size:3 = [| (0, 3); (3, 3) |]);
  check bool "ragged" true
    (Work_pool.chunks ~total:7 ~chunk_size:3 = [| (0, 3); (3, 3); (6, 1) |]);
  check bool "empty" true (Work_pool.chunks ~total:0 ~chunk_size:5 = [||]);
  (* every chunking covers [0, total) exactly once *)
  let covered = Array.make 29 0 in
  Array.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        covered.(i) <- covered.(i) + 1
      done)
    (Work_pool.chunks ~total:29 ~chunk_size:4);
  Array.iter (fun c -> check int "covered once" 1 c) covered

(* ------------------------------------------------------------------ *)
(* Mapper: sequential ≡ parallel                                        *)

let mk_genome ~size ~seed =
  Dna.Genome_gen.generate { Dna.Genome_gen.default with size; seed }

let mk_reads genome ~count ~len ~seed =
  List.map
    (fun r -> (r.Dna.Read_sim.id, Dna.Sequence.to_string r.Dna.Read_sim.seq))
    (Dna.Read_sim.simulate
       { Dna.Read_sim.default with count; len; seed; both_strands = true }
       genome)

let genome = lazy (mk_genome ~size:10_000 ~seed:33)
let index = lazy (Kmismatch.of_sequence (Lazy.force genome))

let map ?(engine = Kmismatch.M_tree) ?(chunk_size = Mapper.default_chunk_size)
    ~domains idx ~reads ~k =
  Mapper.run { Mapper.default with engine; domains; chunk_size } idx ~reads ~k

let run_map ~domains ?chunk_size reads k =
  map ~domains ?chunk_size (Lazy.force index) ~reads ~k

let assert_equivalent ?chunk_size ~domains reads k =
  let seq_hits, seq_summary = run_map ~domains:1 reads k in
  let par_hits, par_summary = run_map ~domains ?chunk_size reads k in
  check bool "hits identical" true (seq_hits = par_hits);
  (* wall-clock timings naturally differ between runs; everything else
     in the summary must be byte-identical *)
  check bool "summary identical" true
    (Mapper.deterministic_summary seq_summary
    = Mapper.deterministic_summary par_summary);
  check bool "merged stats identical" true
    (seq_summary.Mapper.stats = par_summary.Mapper.stats)

let test_equivalence_planted () =
  let reads = mk_reads (Lazy.force genome) ~count:40 ~len:60 ~seed:3 in
  assert_equivalent ~domains:4 reads 2

let test_equivalence_oversubscribed () =
  (* more chunks than domains: chunk_size 1 over 25 reads on 4 domains *)
  let reads = mk_reads (Lazy.force genome) ~count:25 ~len:50 ~seed:8 in
  assert_equivalent ~domains:4 ~chunk_size:1 reads 1;
  (* more domains than chunks: 3 reads, one big chunk *)
  let reads3 = mk_reads (Lazy.force genome) ~count:3 ~len:50 ~seed:12 in
  assert_equivalent ~domains:8 ~chunk_size:64 reads3 1

let test_equivalence_empty_and_single () =
  let hits, summary = run_map ~domains:4 [] 2 in
  check int "no hits" 0 (List.length hits);
  check int "total 0" 0 summary.Mapper.total;
  assert_equivalent ~domains:4 [] 2;
  let one = mk_reads (Lazy.force genome) ~count:1 ~len:50 ~seed:4 in
  assert_equivalent ~domains:4 one 2

let test_equivalence_other_engines () =
  let reads = mk_reads (Lazy.force genome) ~count:8 ~len:40 ~seed:5 in
  List.iter
    (fun engine ->
      let sh, ss = map ~engine ~domains:1 (Lazy.force index) ~reads ~k:1 in
      let ph, ps = map ~engine ~domains:4 (Lazy.force index) ~reads ~k:1 in
      check bool
        (Kmismatch.engine_name engine ^ " par = seq")
        true
        ((sh, Mapper.deterministic_summary ss)
        = (ph, Mapper.deterministic_summary ps)))
    [ Kmismatch.S_tree; Kmismatch.Kangaroo; Kmismatch.Cole ]

let test_invalid_args () =
  (match run_map ~domains:0 [] 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 accepted");
  match run_map ~domains:2 ~chunk_size:0 [] 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk_size=0 accepted"

(* Long patterns (pattern > text) used to crash the tree engines; the
   hoisted guard must make them a clean miss through the mapper too. *)
let test_pattern_longer_than_text () =
  let idx = Kmismatch.build_index "acgtac" in
  List.iter
    (fun engine ->
      check int
        (Kmismatch.engine_name engine ^ " long pattern -> no hits")
        0
        (List.length (Test_util.run_hits idx ~engine ~pattern:"acgtacgtacgt" ~k:2)))
    (Kmismatch.all_engines ());
  let hits, summary = map ~domains:2 idx ~reads:[ (0, "acgtacgtacgt") ] ~k:2 in
  check int "mapper long read no hits" 0 (List.length hits);
  check int "unmapped" 0 summary.Mapper.mapped

(* ------------------------------------------------------------------ *)
(* Property: sequential ≡ parallel on randomized genomes and reads      *)

let prop_seq_equals_par =
  Test_util.qtest ~count:40 "map_reads domains:1 = domains:4 (random)"
    QCheck2.Gen.(
      tup4
        (Test_util.dna_gen ~lo:30 ~hi:400 ())
        (list_size (int_range 0 12) (Test_util.dna_gen ~lo:1 ~hi:12 ()))
        (int_range 0 3) (int_range 1 5))
    (fun (text, read_seqs, k, chunk_size) ->
      let idx = Kmismatch.build_index text in
      (* mix random reads with substrings of the text so hits do occur *)
      let planted =
        let n = String.length text in
        List.init 4 (fun i ->
            let len = min n (8 + i) in
            let pos = (i * 7919) mod (n - len + 1) in
            String.sub text pos len)
      in
      let reads = List.mapi (fun i s -> (i, s)) (planted @ read_seqs) in
      let sh, ss = map ~domains:1 idx ~reads ~k in
      let ph, ps = map ~domains:4 ~chunk_size idx ~reads ~k in
      (sh, Mapper.deterministic_summary ss)
      = (ph, Mapper.deterministic_summary ps))

let prop_pool_map_order =
  Test_util.qtest ~count:50 "pool map_array preserves order"
    QCheck2.Gen.(pair (list_size (int_range 0 50) int) (int_range 1 6))
    (fun (xs, domains) ->
      let arr = Array.of_list xs in
      Work_pool.with_pool ~domains (fun pool ->
          Work_pool.map_array pool ~f:(fun x -> x * 2 + 1) arr
          = Array.map (fun x -> (x * 2) + 1) arr))

(* The memoised prepare runs once per batch on every domain count, so a
   one-domain run times its derived-state build as "prepare", not as
   "search". *)
let test_prepare_always_runs () =
  let idx = Kmismatch.build_index "acgtacgtaaccggttacgt" in
  let calls = ref 0 in
  let target =
    { (Mapper.target_of_index idx) with Mapper.tgt_prepare = (fun _ -> incr calls) }
  in
  List.iter
    (fun domains ->
      calls := 0;
      ignore
        (Mapper.run_target
           { Mapper.default with domains; chunk_size = 1 }
           target ~reads:[ (0, "acgt"); (1, "ggtt") ] ~k:1);
      check int (Printf.sprintf "prepare calls, domains=%d" domains) 1 !calls)
    [ 1; 2 ]

let () =
  Alcotest.run "parallel"
    [
      ( "work_pool",
        [
          Alcotest.test_case "map_array" `Quick test_pool_map_array;
          Alcotest.test_case "empty / zero tasks" `Quick test_pool_empty_and_zero_tasks;
          Alcotest.test_case "worker ids" `Quick test_pool_worker_ids;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "invalid args" `Quick test_pool_invalid_args;
          Alcotest.test_case "chunks" `Quick test_chunks;
          prop_pool_map_order;
        ] );
      ( "mapper_parallel",
        [
          Alcotest.test_case "planted reads" `Quick test_equivalence_planted;
          Alcotest.test_case "oversubscription" `Quick test_equivalence_oversubscribed;
          Alcotest.test_case "empty and single" `Quick test_equivalence_empty_and_single;
          Alcotest.test_case "other engines" `Quick test_equivalence_other_engines;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "pattern > text" `Quick test_pattern_longer_than_text;
          Alcotest.test_case "prepare runs on one domain" `Quick test_prepare_always_runs;
          prop_seq_equals_par;
        ] );
    ]
