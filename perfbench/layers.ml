(* The per-layer view of a traced run.  Every number is taken from
   outside the program, over the workload's own operations (a served
   query, or a mapped read searched on both strands):

   - in-process passes time calls into the public functions of the
     index, engine, kernel and codec layers, and read the counters the
     library already exposes ([Obs], the FM-index and verification
     telemetry);
   - the front layer — the daemon on serve-*, the mapper on map-* — and
     the Work_pool under it are read from the workload's own traced load
     (the daemon's wire [metrics] command, or the mapper's [Obs] sink);
     see {!front}.

   README.md says which end-to-end metric each one should move. *)

module K = Core.Kmismatch
module P = Kmm_server.Protocol
module R = Bench_record

(* The engine queries of one workload operation. *)
type op = Inputs.query list

let ns_per f ~count = 1e9 *. f /. float_of_int (max 1 count)
let ratio a b = if b = 0. then 0. else a /. b
let mean xs = ratio (Array.fold_left ( +. ) 0. xs) (float_of_int (Array.length xs))

(* Repeat [f] (one pass over the inputs) until 0.2 s have passed;
   seconds per pass. *)
let per_pass f =
  let t0 = Ctx.now () in
  let rec go n = f (); if Ctx.now () -. t0 < 0.2 then go (n + 1) else n in
  let n = go 1 in
  (Ctx.now () -. t0) /. float_of_int n

let with_telemetry f =
  Fmindex.Fm_index.Telemetry.set_enabled true;
  Fmindex.Packed_text.Telemetry.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Fmindex.Fm_index.Telemetry.set_enabled false;
      Fmindex.Packed_text.Telemetry.set_enabled false)

(* Fmindex cold start: mmap adoption, then the first forcing of each
   derived component.  Returns the loaded index for the other passes. *)
let cold_start ctx ~index ~save_s =
  let loads = Array.init 3 (fun _ -> Ctx.time (fun () -> K.load_index ~mode:Fmindex.Fm_index.Mmap index)) in
  let idx = fst loads.(2) in
  let (_ : Fmindex.Packed_text.t), packed_s = Ctx.time (fun () -> K.packed_text idx) in
  let (_ : Fmindex.Bidir.t), bidir_s =
    Ctx.span ctx "layer.bidir_build" (fun () -> Ctx.time (fun () -> K.bidir idx))
  in
  ( idx,
    [
      R.of_samples "fm.load_ms" "ms" (Array.map (fun (_, s) -> s *. 1e3) loads);
      R.metric "fm.bidir_build_s" "s" bidir_s;
      R.metric "fm.packed_text_ms" "ms" (packed_s *. 1e3);
      R.metric "index.save_s" "s" save_s;
    ] )

(* Sequential [try_run] of every operation's queries: three times plain,
   each operation keeping its shortest time (as the end-to-end latency
   does), and once with an active sink and the telemetry armed, for the
   engines' work counts.  Returns every query with its answer for the
   kernel and codec passes. *)
let engine_pass ctx idx (ops : op array) =
  let run obs op =
    List.map
      (fun (q : Inputs.query) ->
        match K.try_run idx (K.Query.make ~obs ~engine:q.engine ~pattern:q.pattern ~k:q.k ()) with
        | Ok r -> (q, r.K.Response.hits)
        | Error e ->
            Ctx.check ctx false "in-process query failed: %s" (Kmm_error.to_string e);
            (q, []))
      op
  in
  let n = Array.length ops in
  let op_us = Array.make n infinity in
  for _ = 1 to 3 do
    Array.iteri (fun i op -> R.keep_best op_us i (snd (Ctx.time (fun () -> run Obs.noop op)) *. 1e6)) ops
  done;
  let obs = Obs.create () in
  let answered = with_telemetry (fun () -> Array.map (run obs) ops) in
  let hits = ref 0 and bidir_hits = ref 0 in
  Array.iter
    (List.iter (fun ((q : Inputs.query), h) ->
         hits := !hits + List.length h;
         if q.engine = K.Bidir then bidir_hits := !bidir_hits + List.length h))
    answered;
  let c name = float_of_int (Obs.counter_value obs name) in
  let per name = ratio (c name) (float_of_int n) in
  ( Array.of_list (List.concat (Array.to_list answered)),
    op_us,
    [
      R.metric ~repeats:n "engine.op_us.p50" "us" (R.quantile op_us 0.5);
      R.metric ~repeats:n "engine.op_us.p99" "us" (R.quantile op_us 0.99);
      R.metric "engine.hits_per_op" "count" (ratio (float_of_int !hits) (float_of_int n));
      R.metric "engine.nodes_per_op" "count" (per "engine.nodes");
      R.metric "engine.rank_calls_per_op" "count" (per "engine.rank_calls");
      R.metric "mtree.derivations_per_op" "count" (per "engine.derivations");
      R.metric "bidir.extends_per_op" "count" (per "bidir.extends");
      R.metric "bidir.verifications_per_op" "count" (per "bidir.verifications");
      R.metric "bidir.verify_yield" "ratio" (ratio (float_of_int !bidir_hits) (c "bidir.verifications"));
      R.metric "fm.rank_ops_per_op" "count" (per "fm.rank_ops");
      R.metric "fm.block_decodes_per_op" "count" (per "fm.block_decodes");
      R.metric "fm.locate_steps_per_op" "count" (per "fm.locate_steps");
      R.metric "verify.early_exit_frac" "ratio" (ratio (c "verify.early_exits") (c "verify.calls"));
    ] )

(* Replays of the queries and their answers through the wire codec. *)
let protocol_pass ctx answered =
  let n = Array.length answered in
  let frames =
    Array.mapi
      (fun i ((q : Inputs.query), _) ->
        P.query_request ~id:(P.Json.Int i) ~engine:q.engine ~pattern:q.pattern ~k:q.k ())
      answered
  in
  let encode i (_, h) = P.ok_hits_response ~id:(P.Json.Int i) ~truncated:false h in
  let replies = Array.mapi encode answered in
  Array.iteri
    (fun i f ->
      Ctx.check ctx (Result.is_ok (P.parse_request ~limits:P.default_limits f)) "frame %d does not parse" i;
      Ctx.check ctx
        (match P.parse_reply replies.(i) with Ok (P.Hits { hits; _ }) -> hits = snd answered.(i) | _ -> false)
        "reply %d does not decode to its hits" i)
    frames;
  let parse = per_pass (fun () -> Array.iter (fun f -> ignore (P.parse_request ~limits:P.default_limits f)) frames) in
  let encode = per_pass (fun () -> Array.iteri (fun i a -> ignore (encode i a)) answered) in
  let decode = per_pass (fun () -> Array.iter (fun r -> ignore (P.parse_reply r)) replies) in
  [
    R.metric "protocol.parse_request_ns" "ns" (ns_per parse ~count:n);
    R.metric "protocol.encode_reply_ns" "ns" (ns_per encode ~count:n);
    R.metric "protocol.parse_reply_ns" "ns" (ns_per decode ~count:n);
  ]

(* Rank, locate and verification kernels on the queries. *)
let fm_pass idx answered =
  let fm = K.fm_rev idx in
  let queries = Array.map fst answered in
  let bases = Array.fold_left (fun a (q : Inputs.query) -> a + String.length q.pattern) 0 queries in
  let count = per_pass (fun () -> Array.iter (fun (q : Inputs.query) -> ignore (Fmindex.Fm_index.count fm q.pattern)) queries) in
  let intervals =
    Array.to_list queries
    |> List.filter_map (fun (q : Inputs.query) ->
           Option.map
             (fun (lo, hi) -> (lo, min hi (lo + 64)))
             (Fmindex.Fm_index.search fm (String.sub q.pattern 0 (min 12 (String.length q.pattern)))))
  in
  let rows = List.fold_left (fun a (lo, hi) -> a + hi - lo) 0 intervals in
  let dst = Array.make 64 0 in
  let locate = per_pass (fun () -> List.iter (fun iv -> Fmindex.Fm_index.locate_into fm iv dst) intervals) in
  let ptext = K.packed_text idx in
  let windows =
    Array.to_list answered
    |> List.filter_map (fun ((q : Inputs.query), hits) ->
           match hits with
           | (pos, _) :: _ -> Some (Fmindex.Packed_text.Pattern.make q.pattern, pos, q.k)
           | [] -> None)
  in
  let hamming =
    per_pass (fun () ->
        List.iter (fun (p, pos, k) -> ignore (Fmindex.Packed_text.hamming ~limit:k ptext p ~pos)) windows)
  in
  [
    R.metric "fm.count_ns_per_base" "ns" (ns_per count ~count:bases);
    R.metric "fm.locate_ns_per_row" "ns" (ns_per locate ~count:rows);
    R.metric "verify.hamming_ns" "ns" (ns_per hamming ~count:(List.length windows));
  ]

(* The in-process passes over [ops] on the saved [index].  Returns the
   engine time of each operation (the front layer's baseline) too. *)
let in_process ctx ~index ~save_s ops =
  let idx, cold = Ctx.span ctx "layer.cold_start" (fun () -> cold_start ctx ~index ~save_s) in
  let answered, op_us, engine = Ctx.span ctx "layer.engine" (fun () -> engine_pass ctx idx ops) in
  let protocol = Ctx.span ctx "layer.protocol" (fun () -> protocol_pass ctx answered) in
  let fm = Ctx.span ctx "layer.fm" (fun () -> fm_pass idx answered) in
  (op_us, cold @ engine @ protocol @ fm)

(* The front layer and its Work_pool, as the workload's own traced load
   saw them. *)
type front = {
  request_p50_us : float;  (** time an operation spends in the front layer *)
  request_p99_us : float;
  engine_mean_us : float;  (** mean engine time per operation inside the front layer *)
  batch_mean : float;  (** operations handed to the pool together *)
  queue_wait_p99_us : float;
  task_mean_us : float;
  busy_frac : float;  (** pool task time ÷ (domains × wall) *)
}

(* [e2e_p50_ms] is the workload's end-to-end p50; what it adds to the
   in-process engine time ([op_us]) is the front layer's overhead. *)
let front_metrics f ~e2e_p50_ms ~op_us ~trace_overhead =
  [
    R.metric "front.request_us.p50" "us" f.request_p50_us;
    R.metric "front.request_us.p99" "us" f.request_p99_us;
    R.metric "front.overhead_us.p50" "us" ((e2e_p50_ms *. 1e3) -. R.quantile op_us 0.5);
    R.metric "front.engine_inflation" "ratio" (ratio f.engine_mean_us (mean op_us));
    R.metric "front.batch_size.mean" "ops" f.batch_mean;
    R.metric "pool.queue_wait_us.p99" "us" f.queue_wait_p99_us;
    R.metric "pool.task_us.mean" "us" f.task_mean_us;
    R.metric "pool.busy_frac" "ratio" f.busy_frac;
    R.metric "trace_overhead_frac" "ratio" trace_overhead;
  ]
