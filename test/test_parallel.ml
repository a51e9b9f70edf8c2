(* Tests for the domain work pool and the parallel batch mapper.

   The contract under test: [Mapper.run] with [domains = n] returns hits
   and summary byte-identical to the sequential path ([domains = 1]) for
   every n and chunking, and the engine counters of merged per-domain
   sinks equal the sequential ones. *)

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

(* One job of [domains pool] tasks in which every task waits until all
   of them have started, so each worker takes exactly one; returns the
   domain each worker ran on ([None] for a worker that ran no task).
   [then_] runs in each task after the wait.  The wait gives up after
   [spins] relaxations, so a pool that runs the job inline on its caller
   fails the caller's check instead of hanging. *)
let one_task_per_worker ?(then_ = fun ~worker:_ -> ()) pool =
  let width = Work_pool.domains pool in
  let arrived = Atomic.make 0 and where = Array.make width None in
  let spins = 100_000_000 in
  Work_pool.run pool ~tasks:width (fun ~worker ~task:_ ->
      Atomic.incr arrived;
      let n = ref 0 in
      while Atomic.get arrived < width && !n < spins do
        incr n;
        Domain.cpu_relax ()
      done;
      where.(worker) <- Some (Domain.self () :> int);
      then_ ~worker);
  where

let check_every_worker_ran where =
  Array.iteri
    (fun w d -> check bool (Printf.sprintf "worker %d ran a task" w) true (Option.is_some d))
    where;
  check bool "workers on distinct domains" true
    (List.length (List.sort_uniq compare (Array.to_list where)) = Array.length where)

(* Helper domains are parked between runs, not spawned per run: worker
   [w] runs on the same domain in two runs, even from two pools. *)
let test_pool_helpers_persist () =
  let first = Work_pool.with_pool ~domains:3 one_task_per_worker in
  let second = Work_pool.with_pool ~domains:3 one_task_per_worker in
  check_every_worker_ran first;
  check bool "worker 0 is the caller" true (first.(0) = Some (Domain.self () :> int));
  check bool "same domain per worker" true (first = second)

(* A run from inside a task finds the helpers taken and runs inline on
   the task's own domain, as worker 0, with correct results. *)
let test_pool_nested_run_inline () =
  Work_pool.with_pool ~domains:3 (fun pool ->
      let tasks = 8 in
      let outer = Array.make tasks [||] and inline = Array.make tasks false in
      Work_pool.run pool ~tasks (fun ~worker:_ ~task ->
          let self = Domain.self () and on_caller = ref true in
          Work_pool.run pool ~tasks:5 (fun ~worker ~task:_ ->
              if worker <> 0 || Domain.self () <> self then on_caller := false);
          inline.(task) <- !on_caller;
          outer.(task) <- Work_pool.map_array pool ~f:(fun x -> x * task) [| 1; 2; 3 |]);
      Array.iteri
        (fun task r ->
          check bool "inner results" true (r = [| task; 2 * task; 3 * task |]);
          check bool "inner run inline" true inline.(task))
        outer)

(* Two systhreads run jobs at once: the second finds the helpers taken
   by the first (whose task 0 waits until the second is done) and runs
   inline; both get complete, correct results. *)
let test_pool_concurrent_callers () =
  let a_started = Atomic.make false and b_done = Atomic.make false in
  let job f = Work_pool.with_pool ~domains:3 (fun pool -> Work_pool.map_array pool ~f (Array.init 50 Fun.id)) in
  let a = ref [||] in
  let thread_a =
    Thread.create
      (fun () ->
        a :=
          job (fun x ->
              if x = 0 then begin
                Atomic.set a_started true;
                while not (Atomic.get b_done) do
                  Thread.yield ()
                done
              end;
              x * x))
      ()
  in
  while not (Atomic.get a_started) do
    Thread.yield ()
  done;
  let b = job succ in
  Atomic.set b_done true;
  Thread.join thread_a;
  check bool "first job" true (!a = Array.init 50 (fun x -> x * x));
  check bool "second job" true (b = Array.init 50 succ)

(* A helper whose task raised parks again and takes the next job. *)
let test_pool_helper_survives_failure () =
  Work_pool.with_pool ~domains:3 (fun pool ->
      let before = one_task_per_worker pool in
      (match one_task_per_worker pool ~then_:(fun ~worker -> if worker > 0 then failwith "helper") with
      | _ -> Alcotest.fail "helper failure swallowed"
      | exception Work_pool.Task_failed { exn = Failure msg; _ } ->
          check Alcotest.string "helper's exception" "helper" msg);
      let after = one_task_per_worker pool in
      check_every_worker_ran after;
      check bool "same helpers" true (before = after))

let test_pool_invalid_args () =
  List.iter
    (fun domains ->
      match Work_pool.with_pool ~domains (fun _ -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "domains=%d accepted" domains)
    [ 0; Work_pool.max_domains + 1 ];
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
    ?(obs = Obs.noop) ~domains idx ~reads ~k =
  Mapper.run { Mapper.default with engine; domains; chunk_size; obs } idx ~reads ~k

let run_map ~domains ?chunk_size ?obs reads k =
  map ~domains ?chunk_size ?obs (Lazy.force index) ~reads ~k

let assert_equivalent ?chunk_size ~domains reads k =
  let seq_obs = Obs.create () and par_obs = Obs.create () in
  let seq_hits, seq_summary = run_map ~domains:1 ~obs:seq_obs reads k in
  let par_hits, par_summary = run_map ~domains ?chunk_size ~obs:par_obs reads k in
  check bool "hits identical" true (seq_hits = par_hits);
  check bool "summary identical" true (seq_summary = par_summary);
  check bool "engine counted" true
    (reads = [] || Obs.counter_value seq_obs "engine.nodes" > 0);
  check bool "merged engine counters identical" true
    (Test_util.engine_counters seq_obs = Test_util.engine_counters par_obs)

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
        ((sh, ss) = (ph, ps)))
    [ Kmismatch.S_tree; Kmismatch.Amir; Kmismatch.Cole ]

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

(* A read whose reverse complement lands on the same site: [site] is its
   own reverse complement, and the read is [site] with its first base
   changed, so both strands hit [site]'s position at distance 1.  The
   output orders hits by read id, position, then strand with [`Reverse]
   first, the order polymorphic [compare] gives the (read_id, pos,
   strand) triple. *)
let test_hit_order () =
  let state = Random.State.make [| 17 |] in
  let half = Dna.Sequence.random ~state 12 in
  let site = Dna.Sequence.to_string half ^ Dna.Sequence.to_string (Dna.Sequence.revcomp half) in
  let flank n = Dna.Sequence.to_string (Dna.Sequence.random ~state n) in
  let left = flank 300 in
  let genome = left ^ site ^ flank 300 in
  let idx = Kmismatch.build_index genome in
  let read =
    String.mapi (fun i c -> if i > 0 then c else if c = 'a' then 'c' else 'a') site
  in
  let reads = List.init 6 (fun i -> (i, if i mod 2 = 0 then read else String.sub genome (97 * i) 30)) in
  List.iter
    (fun (engine, domains) ->
      let hits, _ = map ~engine ~domains ~chunk_size:1 idx ~reads ~k:2 in
      let polymorphic =
        List.stable_sort
          (fun (a : Mapper.hit) (b : Mapper.hit) ->
            compare (a.read_id, a.pos, a.strand) (b.read_id, b.pos, b.strand))
          hits
      in
      check bool "sorted as (read_id, pos, strand)" true (hits = polymorphic);
      let at_site =
        List.filter_map
          (fun (h : Mapper.hit) ->
            if h.read_id = 0 && h.pos = String.length left then Some (h.strand, h.distance) else None)
          hits
      in
      check bool "both strands at the site, reverse first" true
        (at_site = [ (`Reverse, 1); (`Forward, 1) ]))
    [ (Kmismatch.Bidir, 1); (Kmismatch.Bidir, 2); (Kmismatch.M_tree, 2) ]

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
      (sh, ss) = (ph, ps))

let prop_pool_map_order =
  Test_util.qtest ~count:50 "pool map_array preserves order"
    QCheck2.Gen.(pair (list_size (int_range 0 50) int) (int_range 1 6))
    (fun (xs, domains) ->
      let arr = Array.of_list xs in
      Work_pool.with_pool ~domains (fun pool ->
          Work_pool.map_array pool ~f:(fun x -> x * 2 + 1) arr
          = Array.map (fun x -> (x * 2) + 1) arr))

(* The fan-out contract on random jobs: which bodies run, which
   exception surfaces, worker ids and the per-worker task counters. *)
let prop_fan_out =
  Test_util.qtest ~count:100 "fan-out contract"
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 200)
        (list_size (int_range 0 5) (int_range 0 199)))
    (fun (domains, tasks, failing) ->
      let fails task = List.mem task failing in
      let runs = Array.init tasks (fun _ -> Atomic.make 0) in
      let started = Atomic.make 0 in
      let bad_worker = Atomic.make false in
      let sinks = Array.init domains (fun _ -> Obs.create ()) in
      let outcome =
        Work_pool.with_pool ~domains (fun pool ->
            match
              Work_pool.run ~obs:sinks pool ~tasks (fun ~worker ~task ->
                  Atomic.incr started;
                  Atomic.incr runs.(task);
                  if worker < 0 || worker >= domains then Atomic.set bad_worker true;
                  if fails task then failwith "boom")
            with
            | () -> `Done
            | exception Work_pool.Task_failed { task; exn = Failure _ } -> `Failed task)
      in
      let ran i = Atomic.get runs.(i) = 1 in
      let ran_all = List.for_all ran (List.init tasks Fun.id) in
      let failed_run = List.filter (fun i -> i < tasks && ran i) failing in
      let counted =
        Array.fold_left (fun n o -> n + Obs.counter_value o "pool.tasks") 0 sinks
      in
      ran_all
      && Array.for_all (fun r -> Atomic.get r <= 1) runs
      && (not (Atomic.get bad_worker))
      && counted = Atomic.get started
      &&
      match outcome with
      | `Failed task -> task = List.fold_left min max_int failed_run
      | `Done -> failed_run = [])

(* A naive-search engine whose registry [prepare] counts its calls,
   registered in this test process only. *)
type Kmismatch.engine += Counting_prepare

let prepare_calls = Atomic.make 0

let () =
  Kmismatch.Engine_registry.register
    {
      Kmismatch.Engine_registry.engine = Counting_prepare;
      name = "counting-prepare-test";
      doc = "test double: naive search, counted prepare";
      caps = { scales = false };
      prepare = (fun _ -> Atomic.incr prepare_calls);
      run =
        (fun t a ->
          Stringmatch.Hamming.search ~pattern:a.Kmismatch.Engine_registry.pattern
            ~text:(Kmismatch.text t) ~k:a.Kmismatch.Engine_registry.k);
    }

(* The engine's prepare runs once per batch on every domain count, so a
   one-domain run times its derived-state build as "prepare", not as
   "search". *)
let test_prepare_always_runs () =
  let idx = Kmismatch.build_index "acgtacgtaaccggttacgt" in
  List.iter
    (fun domains ->
      Atomic.set prepare_calls 0;
      ignore
        (Mapper.run
           { Mapper.default with engine = Counting_prepare; domains; chunk_size = 1 }
           idx ~reads:[ (0, "acgt"); (1, "ggtt") ] ~k:1);
      check int (Printf.sprintf "prepare calls, domains=%d" domains) 1
        (Atomic.get prepare_calls))
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
          prop_fan_out;
          Alcotest.test_case "helpers persist across runs" `Quick test_pool_helpers_persist;
          Alcotest.test_case "nested run is inline" `Quick test_pool_nested_run_inline;
          Alcotest.test_case "concurrent callers" `Quick test_pool_concurrent_callers;
          Alcotest.test_case "helper survives Task_failed" `Quick test_pool_helper_survives_failure;
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
          Alcotest.test_case "hit order" `Quick test_hit_order;
        ] );
    ]
