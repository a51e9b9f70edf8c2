(* map-bidir and map-mtree: batch read mapping, the paper's end-to-end
   job.  The index is built, saved, and loaded back with [Mmap] as a
   user of [kmm map --index F --mmap] would; no server code runs.  See
   README.md for why each workload exists.

   The host shares its cores, and any single timing can come out a third
   slower for what its neighbours do.  So the same work is timed in ten
   passes spread over the run, and each piece of work keeps its shortest
   time: a batch of reads on 2 domains (throughput) and a single read on
   1 domain (latency).  The amount of work depends on the seconds asked
   for, never on how fast the host happens to be. *)

module K = Core.Kmismatch
module M = Core.Mapper
module R = Bench_record

type spec = {
  engine : K.engine;
  k : int;
  genome_bp : int;
  cross : K.engine;  (** the engine a read sample must agree with *)
  batch_reads_per_s : int;  (** batch reads per pass per second of the run *)
  latency_reads : int;  (** the latency sample *)
  builds : int;  (** index builds per run *)
  cold_starts : int;  (** cold starts per run *)
}

let pool_size = 20_000
let passes = 10
let nbatches = 16

let run (ctx : Ctx.t) spec =
  let host = Hostspeed.create () in
  let size = if ctx.smoke then 60_000 else spec.genome_bp in
  let genome = Ctx.span ctx "generate" (fun () -> Inputs.genome ~seed:ctx.seed ~size) in
  let builds = Ctx.build_index ctx (Dna.Sequence.to_string genome) in
  let path = builds.path in
  let pool = Inputs.reads ~seed:ctx.seed ~count:(if ctx.smoke then 600 else pool_size) genome in
  let seq (r : Dna.Read_sim.read) = Dna.Sequence.to_string r.seq in
  let map ?(engine = spec.engine) ?(obs = Obs.noop) domains idx reads =
    let (hits, summary), dt =
      Ctx.time (fun () -> M.run { M.default with engine; domains; obs } idx ~reads ~k:spec.k)
    in
    Ctx.tally ctx ~attempted:(List.length reads) ~failed:(List.length summary.M.skipped);
    (hits, M.deterministic_summary summary, dt)
  in
  (* Cold start, as a user meets it: [kmm map --index F --mmap --jobs 2]
     on a one-read FASTA, from spawn to exit, for a read whose true origin
     is known (and within k). *)
  let probe =
    match Array.find_opt (fun (r : Dna.Read_sim.read) -> r.errors <= spec.k) pool with
    | Some r -> r
    | None -> failwith "no simulated read within the mismatch budget"
  in
  let probe_fa = Filename.concat ctx.dir "probe.fa" and probe_out = Filename.concat ctx.dir "probe.tsv" in
  Out_channel.with_open_bin probe_fa (fun oc -> Printf.fprintf oc ">probe\n%s\n" (seq probe));
  let cold_start () =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let out = Unix.openfile probe_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let status, dt =
      Fun.protect
        ~finally:(fun () -> Unix.close out; Unix.close null)
        (fun () ->
          Ctx.span ctx "first_answer" (fun () ->
              Ctx.time (fun () ->
                  Ctx.run_child ctx.kmm
                    [ "map"; "--index"; path; "--mmap"; "--jobs"; "2"; "--reads"; probe_fa;
                      "-k"; string_of_int spec.k; "--engine"; K.engine_name spec.engine ]
                    ~stdout:out ~stderr:null)))
    in
    if status <> Unix.WEXITED 0 then failwith "kmm map failed on the probe read";
    let found =
      In_channel.with_open_bin probe_out In_channel.input_lines
      |> List.exists (fun l ->
             match String.split_on_char '\t' l with
             | [ _; pos; _; d ] -> int_of_string pos = probe.origin && int_of_string d <= probe.errors
             | _ -> false)
    in
    Ctx.check ctx found "first answer misses the read's origin %d" probe.origin;
    Ctx.tally ctx ~attempted:1 ~failed:0;
    dt
  in
  (* The index the passes map against, loaded the same way; peak RSS
     counts from here. *)
  Gc.full_major ();
  Ctx.reset_peak_rss ();
  let idx = Ctx.span ctx "load" (fun () -> K.load_index ~mode:Fmindex.Fm_index.Mmap path) in
  (* Batch [b] is the pool's reads [b * per_batch ..] (wrapping); the
     latency sample is the pool's first [nlat] reads, one at a time. *)
  let batch b per_batch =
    List.init per_batch (fun j -> (j, seq pool.(((b * per_batch) + j) mod Array.length pool)))
  in
  let single j = map 1 idx [ (j, seq pool.(j)) ] in
  let nlat, per_batch =
    if ctx.smoke then (32, 50)
    else (spec.latency_reads, spec.batch_reads_per_s * int_of_float ctx.seconds / (passes * nbatches))
  in
  (* 2-domain output must be identical to 1-domain output. *)
  let first = batch 0 (if ctx.smoke then 100 else 500) in
  let hits2, sum2, _ = map 2 idx first in
  let hits1, sum1, _ = map 1 idx first in
  Ctx.check ctx (hits1 = hits2 && sum1 = sum2) "2-domain output differs from 1-domain";
  (* A pass maps every batch once on 2 domains and, after each batch, a
     sixteenth of the latency sample one read at a time; the host's speed
     is sampled before every other batch.  Returns the seconds spent on
     batches.  Pass [i] of the measured ones also runs the cold starts
     due before each of its batches ({!Ctx.cold}); the other index builds
     run between passes, spread evenly over them. *)
  let npasses = if ctx.smoke then 1 else passes in
  let cold = Ctx.cold_plan ~count:(if ctx.smoke then 1 else spec.cold_starts) ~passes:npasses ~nbatches in
  let chunk = (nlat + nbatches - 1) / nbatches in
  let batch_best = Array.make nbatches infinity and lat_best = Array.make nlat infinity in
  let pass ?(obs = Obs.noop) ?measured ~latency best =
    let batches = ref 0. in
    for b = 0 to nbatches - 1 do
      Option.iter (fun i -> Ctx.cold_due cold ((i * nbatches) + b) cold_start) measured;
      if b mod 2 = 0 then Hostspeed.sample host;
      let _, _, dt = Ctx.span ctx "batch" (fun () -> map ~obs 2 idx (batch b per_batch)) in
      R.keep_best best b dt;
      batches := !batches +. dt;
      if latency then
        for j = b * chunk to min nlat ((b + 1) * chunk) - 1 do
          let _, _, dt = single j in
          R.keep_best lat_best j (dt *. 1e3)
        done
    done;
    !batches
  in
  let pass_s =
    Array.init npasses (fun i ->
        for _ = 1 to Ctx.share ~count:(spec.builds - 1) ~passes:npasses i do
          Ctx.rebuild ctx builds
        done;
        pass ~measured:i ~latency:true batch_best)
  in
  let rss = Ctx.peak_rss_mb "self" in
  (* A traced run adds two batch passes with an active sink in the
     mapper: its own and its pool's histograms, and the tracing overhead
     against the untraced passes. *)
  let sink = Obs.create () and traced_best = Array.make nbatches infinity in
  let traced_wall =
    if ctx.traced then pass ~obs:sink ~latency:false traced_best +. pass ~obs:sink ~latency:false traced_best
    else 0.
  in
  (* Cross-engine agreement on a read sample. *)
  let sample = batch 0 (min 500 (Array.length pool)) in
  let hits_a, _, _ = map 2 idx sample in
  let hits_b, _, _ = map ~engine:spec.cross 2 idx sample in
  Ctx.check ctx (hits_a = hits_b) "%s and %s disagree on the %d-read sample" (K.engine_name spec.engine)
    (K.engine_name spec.cross) (List.length sample);
  let sum = Array.fold_left ( +. ) 0. in
  let scale = Hostspeed.scale host in
  ctx.host_scale <- scale;
  let rate = float_of_int (nbatches * per_batch) /. sum batch_best in
  let p50 = R.quantile lat_best 0.5 and p90 = R.quantile lat_best 0.9 in
  if not ctx.smoke then
    Ctx.note "%d reads per batch, %d in the latency sample; host work p10: %s; scale %.3f; unscaled: %.4g reads/s, p50 %.4g ms"
      per_batch nlat (Hostspeed.describe host) scale rate p50;
  let e2e =
    [
      R.scaled scale (R.of_samples "setup_s" "s" (Ctx.setup_seconds cold));
      R.scaled scale (R.of_best "index_build_s" "s" (Ctx.build_seconds builds));
      R.metric "index_bytes_per_base" "B/base" builds.bytes_per_base;
      R.metric ~repeats:npasses ~spread:(R.spread pass_s) "ops_per_s" "1/s" (rate /. scale);
      R.metric ~repeats:nlat "p50_ms" "ms" (p50 *. scale);
      R.metric ~repeats:nlat "p90_ms" "ms" (p90 *. scale);
      R.metric "rss_mb" "MiB" rss;
    ]
  in
  let layers =
    if not ctx.traced then []
    else
      (* An operation is a read searched on both strands, as the mapper
         searches it: the latency sample's reads. *)
      let ops =
        Array.init nlat (fun j ->
            let s = seq pool.(j) in
            let rc = Dna.Sequence.to_string (Dna.Sequence.revcomp pool.(j).seq) in
            List.map
              (fun pattern -> { Inputs.engine = spec.engine; pattern; k = spec.k })
              (if rc = s then [ s ] else [ s; rc ]))
      in
      let op_us, in_process = Layers.in_process ctx ~index:path ~save_s:(Ctx.save_seconds builds) ops in
      let hist name = Option.value ~default:(Obs.Histogram.create ()) (Obs.histogram sink name) in
      let read = hist "map.read_ns" and task = hist "pool.task_ns" in
      let us ns = float_of_int ns /. 1e3 in
      in_process
      @ Layers.front_metrics
          {
            request_p50_us = us (Obs.Histogram.quantile read 0.5);
            request_p99_us = us (Obs.Histogram.quantile read 0.99);
            engine_mean_us = Obs.Histogram.mean read /. 1e3;
            batch_mean =
              Layers.ratio
                (float_of_int (Obs.counter_value sink "map.reads"))
                (float_of_int (Obs.counter_value sink "pool.tasks"));
            queue_wait_p99_us = us (Obs.Histogram.quantile (hist "pool.queue_wait_ns") 0.99);
            task_mean_us = Obs.Histogram.mean task /. 1e3;
            busy_frac = float_of_int (Obs.Histogram.sum task) /. 1e9 /. (2. *. traced_wall);
          }
          ~e2e_p50_ms:p50 ~op_us
          ~trace_overhead:((sum traced_best /. sum batch_best) -. 1.)
  in
  (e2e, layers)
