(* Load generator for the kmm serve daemon: throughput and latency
   quantiles versus concurrent connection count, plus an overload round
   that offers roughly twice the daemon's capacity against a small
   admission queue and records the shed rate.

   The server runs in-process on its own threads and worker domains;
   client threads connect through the real Unix socket and speak the
   real newline-JSON protocol, so every layer a production client would
   cross (framing, admission, the worker hand-off, response encoding)
   is on the measured path.  Per-request latencies land in
   per-client [Obs.Histogram]s merged exactly (the PR 5 mergeable
   histograms), so p50/p99 come from the same machinery the daemon's
   own [serve.request_ns] metric uses — and they cover {e accepted}
   queries only, so a shed (which costs no search work) cannot flatter
   the latency columns.

   Correctness is never taken on faith: every accepted query's hits, as
   decoded from the wire, are compared byte-for-byte (via
   [Protocol.render_hits]) against a sequential [Kmismatch.run] of the
   same stream, at every connection count.  Shed and timed-out queries
   are excluded from the comparison (they carry no hits by design) but
   are counted per row.  A concurrency bug cannot hide behind a
   throughput number.

   One JSON record per run is appended to --out (default
   BENCH_serve.json). *)

module Client = Kmm_server.Server.Client
module Protocol = Kmm_server.Protocol

let note fmt = Printf.printf ("  # " ^^ fmt ^^ "\n%!")

(* The query stream: patterns sampled from the indexed text with 0..2
   planted substitutions, k = 2, the paper's canonical configuration. *)
let make_queries ~st ~text ~count =
  let n = String.length text in
  let bases = [| 'a'; 'c'; 'g'; 't' |] in
  Array.init count (fun _ ->
      let len = 24 + Random.State.int st 33 in
      let start = Random.State.int st (n - len) in
      let p = Bytes.of_string (String.sub text start len) in
      let muts = Random.State.int st 3 in
      for _ = 1 to muts do
        let i = Random.State.int st len in
        Bytes.set p i bases.(Random.State.int st 4)
      done;
      Bytes.to_string p)

let socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "kmm-bench-%d.sock" (Unix.getpid ()))

type row = {
  connections : int;
  qps : float;
  p50_us : float;  (** over accepted queries only *)
  p99_us : float;  (** over accepted queries only *)
  mean_us : float;  (** over accepted queries only *)
  accepted : int;
  shed : int;  (** typed Overloaded replies (code 10) *)
  timeouts : int;  (** typed Timeout replies (code 9) *)
  dropped : int;  (** connections lost mid-stream (lane abandoned) *)
  identical : bool;  (** accepted hits vs the sequential reference *)
}

(* Drive [queries] through [c] connections (query i goes to client
   i mod c) and return the measured row plus, per query, the rendered
   hits and whether it was accepted. *)
let drive ~path ~k ~queries ~c =
  let nq = Array.length queries in
  let rendered = Array.make nq "" in
  let got = Array.make nq false in
  let histograms = Array.init c (fun _ -> Obs.Histogram.create ()) in
  let failure = Atomic.make None in
  let shed = Atomic.make 0 in
  let timeouts = Atomic.make 0 in
  let dropped = Atomic.make 0 in
  let client j () =
    match Client.connect path with
    | exception e -> Atomic.set failure (Some (Printexc.to_string e))
    | conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            let h = histograms.(j) in
            let i = ref j in
            let live = ref true in
            while !live && !i < nq && Atomic.get failure = None do
              let t0 = Obs.Clock.now_ns () in
              (match Client.query conn ~pattern:queries.(!i) ~k () with
              | Ok (Protocol.Hits { hits; _ }) ->
                  Obs.Histogram.record h (Obs.Clock.now_ns () - t0);
                  rendered.(!i) <- Protocol.render_hits hits;
                  got.(!i) <- true
              | Ok (Protocol.Error_reply { code = 10; _ }) -> Atomic.incr shed
              | Ok (Protocol.Error_reply { code = 9; _ }) ->
                  Atomic.incr timeouts
              | Ok (Protocol.Error_reply { message; _ }) ->
                  Atomic.set failure (Some ("server error: " ^ message))
              | Ok (Protocol.Ok_obj _) ->
                  Atomic.set failure (Some "unexpected reply shape")
              | Error (Kmm_error.Io _) ->
                  (* Connection gone (e.g. dropped as stalled): the rest
                     of this lane is unreachable — count it and stop. *)
                  Atomic.incr dropped;
                  live := false
              | Error e -> Atomic.set failure (Some (Kmm_error.to_string e)));
              i := !i + c
            done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init c (fun j -> Thread.create (client j) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (match Atomic.get failure with
  | Some m -> failwith ("serve bench: " ^ m)
  | None -> ());
  let merged = Obs.Histogram.create () in
  Array.iter (fun h -> Obs.Histogram.merge ~into:merged h) histograms;
  let accepted = Array.fold_left (fun n g -> if g then n + 1 else n) 0 got in
  let us ns = float_of_int ns /. 1e3 in
  ( {
      connections = c;
      qps = float_of_int nq /. wall;
      p50_us = us (Obs.Histogram.quantile merged 0.5);
      p99_us = us (Obs.Histogram.quantile merged 0.99);
      mean_us = Obs.Histogram.mean merged /. 1e3;
      accepted;
      shed = Atomic.get shed;
      timeouts = Atomic.get timeouts;
      dropped = Atomic.get dropped;
      identical = false (* filled by the caller against the reference *);
    },
    rendered,
    got )

let run_campaign ~idx ~queries ~k ~connections ~jobs ?max_queue () =
  (* Sequential ground truth for the byte-identity column. *)
  let reference =
    Array.map
      (fun pattern ->
        let r =
          Core.Kmismatch.run idx (Core.Kmismatch.Query.make ~engine:Core.Kmismatch.M_tree ~pattern ~k ())
        in
        Protocol.render_hits r.Core.Kmismatch.Response.hits)
      queries
  in
  let path = socket_path () in
  let base = Kmm_server.Server.default_config ~socket_path:path in
  let cfg =
    {
      base with
      domains = jobs;
      max_queue = (match max_queue with Some q -> q | None -> base.max_queue);
    }
  in
  let server = Kmm_server.Server.start cfg (Core.Corpus.mono idx) in
  Fun.protect
    ~finally:(fun () -> Kmm_server.Server.stop server)
    (fun () ->
      List.map
        (fun c ->
          let row, rendered, got = drive ~path ~k ~queries ~c in
          let identical = ref true in
          Array.iteri
            (fun i r -> if got.(i) && r <> reference.(i) then identical := false)
            rendered;
          { row with identical = !identical })
        connections)

let print_rows rows =
  Printf.printf "  %-12s %10s %10s %10s %10s %6s %6s %5s %5s %10s\n" "connections"
    "qps" "p50 us" "p99 us" "mean us" "accept" "shed" "tout" "drop" "identical";
  Printf.printf "  %s\n" (String.make 92 '-');
  List.iter
    (fun r ->
      Printf.printf "  %-12d %10.0f %10.1f %10.1f %10.1f %6d %6d %5d %5d %10s\n"
        r.connections r.qps r.p50_us r.p99_us r.mean_us r.accepted r.shed
        r.timeouts r.dropped
        (if r.identical then "yes" else "NO(BUG)"))
    rows

let row_json r =
  Printf.sprintf
    "{\"connections\":%d,\"qps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,\
     \"mean_us\":%.1f,\"accepted\":%d,\"shed\":%d,\"timeouts\":%d,\
     \"dropped\":%d,\"identical\":%b}"
    r.connections r.qps r.p50_us r.p99_us r.mean_us r.accepted r.shed
    r.timeouts r.dropped r.identical

let run ?(obs = Obs.noop) ?(out = "BENCH_serve.json") ?(size = 200_000)
    ?(seed = 42) ?(connections = [ 1; 2; 4; 8 ]) ?(queries = 2_000) ?(jobs = 0)
    () =
  let jobs = if jobs < 1 then Core.Work_pool.default_domains () else jobs in
  Printf.printf "\n==== serve: daemon throughput/latency vs connections ====\n%!";
  let st = Random.State.make [| seed |] in
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  let idx = Core.Kmismatch.build_index text in
  let k = 2 in
  let qs = make_queries ~st ~text ~count:queries in
  note "%d bp index, %d queries (24-56 bp, <=2 planted substitutions), k=%d" size
    queries k;
  note "server: %d worker domain%s, newline-JSON over a Unix socket" jobs
    (if jobs = 1 then "" else "s");
  let rows =
    Obs.span obs "bench.serve" (fun () ->
        run_campaign ~idx ~queries:qs ~k ~connections ~jobs ())
  in
  print_rows rows;
  List.iter
    (fun r ->
      Obs.record obs
        (Printf.sprintf "bench.serve.c%d.p99_us" r.connections)
        (int_of_float r.p99_us);
      Obs.record obs
        (Printf.sprintf "bench.serve.c%d.qps" r.connections)
        (int_of_float r.qps))
    rows;
  List.iter
    (fun r ->
      if not r.identical then
        failwith
          (Printf.sprintf
             "serve bench: concurrent hits diverge from sequential run at %d connections"
             r.connections))
    rows;
  (* Overload round: a deliberately small daemon (capacity = max_queue
     slots + one in-flight query per worker domain, ~8 concurrent) is offered ~2x
     that many closed-loop connections.  The point of the row is that
     the shed rate absorbs the excess while p99 over the *accepted*
     queries stays bounded — the queue can never grow past max_queue, so
     accepted latency is capped by queue depth, not by offered load. *)
  let over_queue = 6 and over_jobs = 2 and over_conns = 16 in
  Printf.printf "\n  -- overload: %d connections vs max_queue=%d, %d domains --\n"
    over_conns over_queue over_jobs;
  let over_rows =
    Obs.span obs "bench.serve.overload" (fun () ->
        run_campaign ~idx ~queries:qs ~k ~connections:[ over_conns ]
          ~jobs:over_jobs ~max_queue:over_queue ())
  in
  print_rows over_rows;
  let over = List.hd over_rows in
  let total = Array.length qs - over.dropped in
  note "shed rate %.1f%% (%d of %d offered), accepted p99 %.1f us"
    (100. *. float_of_int over.shed /. float_of_int (max 1 total))
    over.shed total over.p99_us;
  if not over.identical then
    failwith "serve bench: accepted hits diverge under overload";
  Obs.record obs "bench.serve.overload.shed" over.shed;
  Obs.record obs "bench.serve.overload.p99_us" (int_of_float over.p99_us);
  let json =
    Printf.sprintf
      "{\"bench\":\"serve\",\"meta\":%s,\"size\":%d,\"seed\":%d,\"queries\":%d,\
       \"k\":%d,\"jobs\":%d,\"results\":[%s],\"overload\":{\"max_queue\":%d,\
       \"jobs\":%d,\"row\":%s}}"
      (Bench_meta.to_json ()) size seed queries k jobs
      (String.concat "," (List.map row_json rows))
      over_queue over_jobs (row_json over)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  note "record appended to %s" out

(* Headless smoke for [dune runtest]: tiny index, 2 connections, a few
   dozen queries, no timing output, no JSON — just the full daemon path
   (socket, framing, admission, worker domains, response decode) plus
   the byte-identity cross-check.  Raises on any divergence. *)
let smoke ?(size = 20_000) ?(seed = 11) ?(queries = 80) () =
  let st = Random.State.make [| seed |] in
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  let idx = Core.Kmismatch.build_index text in
  let qs = make_queries ~st ~text ~count:queries in
  let rows =
    run_campaign ~idx ~queries:qs ~k:2 ~connections:[ 2 ] ~jobs:2 ()
  in
  List.iter
    (fun r ->
      if (not r.identical) || r.accepted <> queries then
        failwith "serve smoke: concurrent hits diverge from sequential run")
    rows
