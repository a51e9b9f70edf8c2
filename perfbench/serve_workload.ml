(* serve-short: [kmm serve --index F --mmap --jobs 2 --quiet] in its own
   process, driven over its socket by one generator thread
   ({!Loadgen}).  See README.md for why the workload exists.

   The daemon is started several times; each start is timed from spawn
   to its first correct answers (cold start), and the first one stays up
   to be measured.  As in the map workloads, the same work is timed in
   ten passes spread over the run and each piece keeps its shortest
   time, because any single timing on this shared host can come out a
   third slower for what its neighbours do:
   - a batch of queries sent at full load (8 in flight on each of two
     connections), for the daemon's throughput;
   - one query at a time on one connection, for its round-trip latency. *)

module K = Core.Kmismatch
module R = Bench_record

type spec = {
  genome_bp : int;
  mix : Inputs.mix list;
  pool : int;  (** distinct queries; batches and the latency sample are cut from them *)
  batch_queries_per_s : int;  (** batch queries per pass per second of the run *)
  latency_queries : int;  (** the latency sample *)
  builds : int;  (** index builds per run *)
  starts : int;  (** daemon cold starts during the passes, besides the measured daemon's *)
}

let passes = 10
let nbatches = 16
let depth = 8

let run (ctx : Ctx.t) spec =
  let host = Hostspeed.create () in
  let size = if ctx.smoke then 60_000 else spec.genome_bp in
  let genome = Ctx.span ctx "generate" (fun () -> Inputs.genome ~seed:ctx.seed ~size) in
  let text = Dna.Sequence.to_string genome in
  let builds = Ctx.build_index ctx text in
  let path = builds.path in
  let queries =
    Inputs.queries ~seed:ctx.seed ~count:(if ctx.smoke then 200 else spec.pool) ~text spec.mix
  in
  let nq = Array.length queries in
  (* The reference: every query answered in-process on the same file. *)
  let corpus = Core.Corpus.load ~mode:Fmindex.Fm_index.Mmap path in
  let refs =
    Core.Work_pool.with_pool ~domains:2 (fun pool ->
        Core.Work_pool.map_array pool queries ~f:(fun (q : Inputs.query) ->
            match
              Core.Corpus.try_run corpus (K.Query.make ~engine:q.engine ~pattern:q.pattern ~k:q.k ())
            with
            | Ok r -> r.K.Response.hits
            | Error e -> failwith ("in-process reference failed: " ^ Kmm_error.to_string e)))
  in
  let engines = List.sort_uniq compare (List.map (fun (m : Inputs.mix) -> m.engine) spec.mix) in
  let socket = Filename.concat ctx.dir "kmm.sock" in
  (* Spawn a daemon and wait for its first correct answer on every
     engine of the mix; returns it with the seconds that took. *)
  let start ?trace_out socket =
    let t0 = Ctx.now () in
    let d = Daemon.spawn ~kmm:ctx.kmm ~index:path ~socket ?trace_out () in
    let c = Ctx.span ctx "load" (fun () -> Daemon.connect d) in
    Ctx.span ctx "first_answer" (fun () ->
        List.iter
          (fun e ->
            let i = Option.get (Array.find_index (fun (q : Inputs.query) -> q.engine = e) queries) in
            match Daemon.query c queries.(i) with
            | Ok hits -> Ctx.check ctx (hits = refs.(i)) "first %s reply differs" (K.engine_name e)
            | Error m -> Ctx.check ctx false "first %s query failed: %s" (K.engine_name e) m)
          engines);
    let dt = Ctx.now () -. t0 in
    Kmm_server.Server.Client.close c;
    (d, dt)
  in
  let nlat, per_batch =
    if ctx.smoke then (32, 50)
    else (min nq spec.latency_queries, spec.batch_queries_per_s * int_of_float ctx.seconds / (passes * nbatches))
  in
  (* Batch [b] is the pool's queries [b * per_batch ..] (wrapping); the
     latency sample is the pool's first [nlat] queries. *)
  let batch b per_batch = Array.init per_batch (fun j -> ((b * per_batch) + j) mod nq) in
  let tally (lg : Loadgen.t) =
    Ctx.tally ctx ~attempted:lg.sent ~failed:lg.failed;
    Ctx.check ctx (lg.wrong = 0) "%d replies differ from the in-process answers" lg.wrong
  in
  (* The measured daemon's start is the first cold start; the others
     ({!Ctx.cold}) start a daemon of their own during the passes, send it
     the first batch at full load, and stop it.  Every daemon's peak RSS
     is kept for rss_mb: it takes one of two values a major-heap
     increment (about 10 MiB) apart, so rss_mb is their mean, which a
     single daemon, or a median, would not keep steady. *)
  let npasses = if ctx.smoke then 1 else passes in
  let cold = Ctx.cold_plan ~count:(if ctx.smoke then 0 else spec.starts) ~passes:npasses ~nbatches in
  let rss = ref [] in
  let d, dt = start socket in
  Ctx.cold_sample cold dt;
  let cold_start () =
    let socket = Filename.concat ctx.dir "cold.sock" in
    let d, dt = start socket in
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
        let lg = Loadgen.create ~socket ~connections:2 ~queries ~refs in
        Fun.protect
          ~finally:(fun () -> Loadgen.close lg)
          (fun () -> ignore (Loadgen.run_batch lg (batch 0 per_batch) ~connections:2 ~depth));
        tally lg;
        rss := Daemon.peak_rss_mb d :: !rss);
    dt
  in
  let lg = Loadgen.create ~socket ~connections:2 ~queries ~refs in
  let full qis = Loadgen.run_batch lg qis ~connections:2 ~depth in
  let one_by_one qis = Loadgen.run_batch lg qis ~connections:1 ~depth:1 in
  let chunk = (nlat + nbatches - 1) / nbatches in
  let lat_chunk b = Array.init (max 0 (min nlat ((b + 1) * chunk) - (b * chunk))) (fun j -> (b * chunk) + j) in
  let batch_best = Array.make nbatches infinity and lat_best = Array.make nlat infinity in
  (* A pass sends every batch once at full load and, after each batch, a
     sixteenth of the latency sample one query at a time; the host's speed
     is sampled before every other batch.  Returns the seconds spent on
     batches.  Pass [i] also runs the cold starts due before each of its
     batches; the other index builds run between passes, spread evenly
     over them. *)
  let pass i best =
    let batches = ref 0. in
    for b = 0 to nbatches - 1 do
      Ctx.cold_due cold ((i * nbatches) + b) cold_start;
      if b mod 2 = 0 then Hostspeed.sample host;
      let dt, ms = Ctx.span ctx "batch" (fun () -> full (batch b per_batch)) in
      (* A batch with an error reply did not answer all its queries: it
         counts as infinitely slow. *)
      R.keep_best best b (if Array.mem infinity ms then infinity else dt);
      batches := !batches +. dt;
      let qis = lat_chunk b in
      let _, ms = one_by_one qis in
      Array.iteri (fun j i -> R.keep_best lat_best i ms.(j)) qis
    done;
    !batches
  in
  let measure () =
    let pass_s =
      Array.init npasses (fun i ->
          for _ = 1 to Ctx.share ~count:(spec.builds - 1) ~passes:npasses i do
            Ctx.rebuild ctx builds
          done;
          pass i batch_best)
    in
    rss := Daemon.peak_rss_mb d :: !rss;
    pass_s
  in
  let pass_s = Fun.protect ~finally:(fun () -> Loadgen.close lg; Daemon.stop d) measure in
  tally lg;
  let rss = Array.of_list !rss in
  let sum = Array.fold_left ( +. ) 0. in
  let scale = Hostspeed.scale host in
  ctx.host_scale <- scale;
  let rate = float_of_int (nbatches * per_batch) /. sum batch_best in
  let p50 = R.quantile lat_best 0.5 and p90 = R.quantile lat_best 0.9 in
  if not ctx.smoke then
    Ctx.note "%d queries per batch, %d in the latency sample; host work p10: %s; scale %.3f; unscaled: %.4g queries/s, p50 %.4g ms"
      per_batch nlat (Hostspeed.describe host) scale rate p50;
  let e2e =
    [
      R.scaled scale (R.of_samples "setup_s" "s" (Ctx.setup_seconds cold));
      R.scaled scale (R.of_best "index_build_s" "s" (Ctx.build_seconds builds));
      R.metric "index_bytes_per_base" "B/base" builds.bytes_per_base;
      R.metric ~repeats:(Array.length pass_s) ~spread:(R.spread pass_s) "ops_per_s" "1/s" (rate /. scale);
      R.metric ~repeats:nlat "p50_ms" "ms" (p50 *. scale);
      R.metric ~repeats:nlat "p90_ms" "ms" (p90 *. scale);
      R.metric ~repeats:(Array.length rss) ~spread:(R.spread rss) "rss_mb" "MiB" (Layers.mean rss);
    ]
  in
  let layers =
    if not ctx.traced then []
    else begin
      (* One more daemon, run with --trace, takes the latency sample once
         and one pass of batches; its own histograms are read around
         each, and its batch rate against the untraced passes gives the
         tracing overhead. *)
      let trace_out =
        if ctx.smoke then None
        else Some (Filename.concat ctx.results (Printf.sprintf "%s-%d.daemon-trace.json" ctx.workload ctx.seed))
      in
      let d, _ = start ?trace_out socket in
      let lg = Loadgen.create ~socket ~connections:2 ~queries ~refs in
      let front, traced_best, traced_p50 =
        Fun.protect
          ~finally:(fun () -> Loadgen.close lg; Daemon.stop d)
          (fun () ->
            let m0 = Daemon.metrics d in
            let _, ms = Loadgen.run_batch lg (Array.init nlat Fun.id) ~connections:1 ~depth:1 in
            let m1 = Daemon.metrics d in
            let traced_best = Array.make nbatches infinity in
            let traced_wall = ref 0. in
            for b = 0 to nbatches - 1 do
              let dt, _ = Loadgen.run_batch lg (batch b per_batch) ~connections:2 ~depth in
              R.keep_best traced_best b dt;
              traced_wall := !traced_wall +. dt
            done;
            let m2 = Daemon.metrics d in
            (* The front layer one query at a time; its pool's busy share
               at full load. *)
            let h name = Daemon.diff (Daemon.hist m1 name) (Daemon.hist m0 name) in
            let request = h "serve.request_ns" in
            let task_full = Daemon.diff (Daemon.hist m2 "pool.task_ns") (Daemon.hist m1 "pool.task_ns") in
            ( {
                Layers.request_p50_us = Daemon.hist_quantile request 0.5 /. 1e3;
                request_p99_us = Daemon.hist_quantile request 0.99 /. 1e3;
                engine_mean_us = Daemon.hist_mean (h "query_ns") /. 1e3;
                batch_mean = Daemon.hist_mean (h "serve.batch_size");
                queue_wait_p99_us = Daemon.hist_quantile (h "pool.queue_wait_ns") 0.99 /. 1e3;
                task_mean_us = Daemon.hist_mean (h "pool.task_ns") /. 1e3;
                busy_frac = task_full.sum /. 1e9 /. (2. *. !traced_wall);
              },
              traced_best,
              R.quantile ms 0.5 ))
      in
      tally lg;
      let ops = Array.map (fun q -> [ q ]) (Array.sub queries 0 nlat) in
      let op_us, in_process = Layers.in_process ctx ~index:path ~save_s:(Ctx.save_seconds builds) ops in
      in_process
      @ Layers.front_metrics front ~e2e_p50_ms:traced_p50 ~op_us
          ~trace_overhead:((sum traced_best /. sum batch_best) -. 1.)
    end
  in
  (e2e, layers)
