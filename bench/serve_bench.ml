(* Overload round for the kmm serve daemon: a deliberately small daemon
   (2 worker domains, an admission queue of 6) is offered 16 closed-loop
   connections, about twice what it can hold.  The point of the round is
   that the shed rate absorbs the excess while p99 over the accepted
   queries stays bounded: the queue can never grow past max_queue, so
   accepted latency is capped by queue depth, not by offered load.
   Throughput and latency of the daemon at normal load are perfbench's
   serve-short workload.

   The server runs in-process on its own threads and worker domains;
   client threads connect through the real Unix socket and speak the
   real newline-JSON protocol.  Per-request latencies land in per-client
   [Obs.Histogram]s merged exactly, and they cover accepted queries only,
   so a shed (which costs no search work) cannot flatter the latency
   columns.

   Every accepted query's hits, as decoded from the wire, are compared
   byte-for-byte (via [Protocol.render_hits]) against a sequential
   [Kmismatch.run] of the same stream.  Shed and timed-out queries carry
   no hits by design and are counted instead.

   One JSON record per run is appended to --out (default
   BENCH_serve.json). *)

module Client = Kmm_server.Server.Client
module Protocol = Kmm_server.Protocol

let note fmt = Printf.printf ("  # " ^^ fmt ^^ "\n%!")

let max_queue = 6
let jobs = 2
let connections = 16
let k = 2

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
  qps : float;
  p50_us : float;  (** over accepted queries only *)
  p99_us : float;  (** over accepted queries only *)
  mean_us : float;  (** over accepted queries only *)
  accepted : int;
  shed : int;  (** typed Overloaded replies (code 10) *)
  timeouts : int;  (** typed Timeout replies (code 9) *)
  dropped : int;  (** queries lost with their connection *)
  identical : bool;  (** accepted hits vs the sequential reference *)
}

(* Drive [queries] through [connections] clients (query i goes to
   client i mod connections) against [path] and check every accepted
   reply against [reference]. *)
let drive ~path ~queries ~reference =
  let c = connections in
  let nq = Array.length queries in
  let rendered = Array.make nq None in
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
            while !i < nq && Atomic.get failure = None do
              let t0 = Obs.Clock.now_ns () in
              (match Client.query conn ~pattern:queries.(!i) ~k () with
              | Ok (Protocol.Hits { hits; _ }) ->
                  Obs.Histogram.record h (Obs.Clock.now_ns () - t0);
                  rendered.(!i) <- Some (Protocol.render_hits hits)
              | Ok (Protocol.Error_reply { code = 10; _ }) -> Atomic.incr shed
              | Ok (Protocol.Error_reply { code = 9; _ }) ->
                  Atomic.incr timeouts
              | Ok (Protocol.Error_reply { message; _ }) ->
                  Atomic.set failure (Some ("server error: " ^ message))
              | Ok (Protocol.Ok_obj _) ->
                  Atomic.set failure (Some "unexpected reply shape")
              | Error (Kmm_error.Io _) ->
                  (* Connection gone (e.g. dropped as stalled): the rest
                     of this lane is unreachable, so count it and stop. *)
                  ignore (Atomic.fetch_and_add dropped (((nq - 1 - !i) / c) + 1));
                  i := nq
              | Error e -> Atomic.set failure (Some (Kmm_error.to_string e)));
              i := !i + c
            done)
  in
  let wall =
    Bench_util.time_unit (fun () ->
        List.iter Thread.join (List.init c (fun j -> Thread.create (client j) ())))
  in
  (match Atomic.get failure with
  | Some m -> failwith ("serve bench: " ^ m)
  | None -> ());
  let merged = Obs.Histogram.create () in
  Array.iter (fun h -> Obs.Histogram.merge ~into:merged h) histograms;
  let us ns = float_of_int ns /. 1e3 in
  let accepted = ref 0 and identical = ref true in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some r ->
          incr accepted;
          if r <> reference.(i) then identical := false)
    rendered;
  {
    qps = float_of_int nq /. wall;
    p50_us = us (Obs.Histogram.quantile merged 0.5);
    p99_us = us (Obs.Histogram.quantile merged 0.99);
    mean_us = Obs.Histogram.mean merged /. 1e3;
    accepted = !accepted;
    shed = Atomic.get shed;
    timeouts = Atomic.get timeouts;
    dropped = Atomic.get dropped;
    identical = !identical;
  }

(* One overload round on a fresh index of [size] random bases. *)
let overload ~size ~seed ~queries =
  let st = Random.State.make [| seed |] in
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  let idx = Core.Kmismatch.build_index text in
  let queries = make_queries ~st ~text ~count:queries in
  let reference =
    Array.map
      (fun pattern ->
        let r =
          Core.Kmismatch.run idx
            (Core.Kmismatch.Query.make ~engine:Core.Kmismatch.M_tree ~pattern ~k ())
        in
        Protocol.render_hits r.Core.Kmismatch.Response.hits)
      queries
  in
  let path = socket_path () in
  let cfg =
    { (Kmm_server.Server.default_config ~socket_path:path) with domains = jobs; max_queue }
  in
  let server = Kmm_server.Server.start cfg idx in
  Fun.protect
    ~finally:(fun () -> Kmm_server.Server.stop server)
    (fun () -> drive ~path ~queries ~reference)

let row_json r =
  Printf.sprintf
    "{\"connections\":%d,\"qps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,\
     \"mean_us\":%.1f,\"accepted\":%d,\"shed\":%d,\"timeouts\":%d,\
     \"dropped\":%d,\"identical\":%b}"
    connections r.qps r.p50_us r.p99_us r.mean_us r.accepted r.shed
    r.timeouts r.dropped r.identical

let run ?(obs = Obs.noop) ?(out = "BENCH_serve.json") ?(size = 200_000)
    ?(seed = 42) () =
  let queries = 2_000 in
  Printf.printf
    "\n==== serve: %d connections vs max_queue=%d, %d domains ====\n%!"
    connections max_queue jobs;
  note "%d bp index, %d queries (24-56 bp, <=2 planted substitutions), k=%d"
    size queries k;
  let r =
    Obs.span obs "bench.serve.overload" (fun () ->
        overload ~size ~seed ~queries)
  in
  Printf.printf "  %10s %10s %10s %10s %6s %6s %5s %5s %10s\n" "qps" "p50 us"
    "p99 us" "mean us" "accept" "shed" "tout" "drop" "identical";
  Printf.printf "  %10.0f %10.1f %10.1f %10.1f %6d %6d %5d %5d %10s\n" r.qps
    r.p50_us r.p99_us r.mean_us r.accepted r.shed r.timeouts r.dropped
    (if r.identical then "yes" else "NO(BUG)");
  let answered = queries - r.dropped in
  note "shed rate %.1f%% (%d of %d answered), accepted p99 %.1f us"
    (100. *. float_of_int r.shed /. float_of_int (max 1 answered))
    r.shed answered r.p99_us;
  if not r.identical then
    Kmm_error.raise_error (Internal "serve bench: accepted hits diverge under overload");
  let json =
    Printf.sprintf
      "{\"bench\":\"serve\",\"meta\":%s,\"size\":%d,\"seed\":%d,\"queries\":%d,\
       \"k\":%d,\"overload\":{\"max_queue\":%d,\"jobs\":%d,\"row\":%s}}"
      (Bench_meta.to_json ()) size seed queries k max_queue jobs (row_json r)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  note "record appended to %s" out

(* Headless smoke: a tiny overload round with no timing output and no
   JSON.  It checks that the accepted hits equal a sequential run and
   that every offered query is accounted for; how many are shed depends
   on the host, so that is not checked. *)
let smoke ?(size = 20_000) ?(seed = 11) ?(queries = 80) () =
  let r = overload ~size ~seed ~queries in
  if not r.identical then
    Kmm_error.raise_error (Internal "serve smoke: accepted hits diverge from a sequential run");
  let counted = r.accepted + r.shed + r.timeouts + r.dropped in
  if counted <> queries then
    failwith
      (Printf.sprintf "serve smoke: %d of %d offered queries accounted for"
         counted queries)
