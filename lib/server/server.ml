(* The kmm query daemon.  Threading model:

     acceptor thread   -- select/accept loop on the listening socket
     1 thread per conn -- frame loop: read, admit, submit, reply
     dispatcher thread -- drains the query queue in batches and runs
                          each batch across the Work_pool domains
     caller            -- start/stop (or the [serve] signal loop)

   Connection threads are cheap OS threads blocked on I/O; the CPU work
   all happens on the pool's domains, so [domains] — not the number of
   clients — bounds parallel search work.  All shared state is guarded
   by three mutexes with a strict no-nesting discipline: [qm] (query
   queue), [cm] (connection registry), [mm] (metrics sink); per-job
   mutexes are leaves. *)

module Kmismatch = Core.Kmismatch
module Corpus = Core.Corpus

exception Conn_lost
(* A peer vanished mid-write (EPIPE with SIGPIPE ignored, or reset).
   Caught at the top of each connection thread: costs that connection,
   never the daemon. *)

exception Conn_stalled
(* A peer stopped draining its socket: the whole-response send budget
   expired with bytes still unwritten.  Same blast radius as
   [Conn_lost] — the connection is dropped, the daemon keeps serving —
   but counted separately ([serve.conns_stalled]), because a stalled
   reader is an overload/abuse signal, not churn. *)

(* Write the whole string, or raise.  [deadline] bounds the {e total}
   send — it is re-checked around every partial write, so a reader that
   drains one socket buffer per [SO_SNDTIMEO] tick (each [Unix.write]
   wakes at least that often once the timeout is set on [fd]) cannot
   stretch one response forever.  [EAGAIN] here means the send timeout
   expired with the buffer still full; we keep retrying only while the
   budget lasts. *)
let write_all ?(deadline = Deadline.none) fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      if Deadline.expired deadline then raise Conn_stalled;
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if Deadline.expired deadline then raise Conn_stalled else go off
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.ENOTCONN | Unix.EBADF), _, _)
        ->
          raise Conn_lost
    end
  in
  go 0

(* --- buffered frame reader ----------------------------------------- *)

module Line_reader = struct
  type event =
    | Line of string  (** one complete frame, newline stripped *)
    | Oversize  (** the current frame outgrew [max_line]; it is being
                    discarded up to its terminating newline *)
    | Truncated  (** EOF in the middle of a frame *)
    | Timeout  (** [SO_RCVTIMEO] expired — poll your stop flag *)
    | Eof

  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    acc : Buffer.t;  (* the frame being accumulated *)
    lines : string Queue.t;
    mutable discarding : bool;
    mutable eof : bool;
  }

  let create fd =
    {
      fd;
      buf = Bytes.create 8192;
      acc = Buffer.create 256;
      lines = Queue.create ();
      discarding = false;
      eof = false;
    }

  let push_line t =
    let line = Buffer.contents t.acc in
    Buffer.clear t.acc;
    (* Tolerate CRLF clients. *)
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    Queue.add line t.lines

  (* Complete frames already parsed out of past reads: the drain path
     consumes these (answering each with a typed refusal) instead of
     abandoning a pipelining client mid-burst. *)
  let buffered t = not (Queue.is_empty t.lines)

  let rec next ~max_line t =
    match Queue.take_opt t.lines with
    | Some l -> Line l
    | None ->
        if t.eof then Eof
        else if Buffer.length t.acc > max_line && not t.discarding then begin
          (* Frame outgrew the limit before its newline arrived: report
             once, then silently drop the rest of the frame so the
             connection resynchronizes at the next newline. *)
          Buffer.clear t.acc;
          t.discarding <- true;
          Oversize
        end
        else begin
          match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
          | 0 ->
              t.eof <- true;
              if Buffer.length t.acc > 0 && not t.discarding then Truncated else Eof
          | n ->
              for i = 0 to n - 1 do
                let c = Bytes.get t.buf i in
                if t.discarding then begin
                  if c = '\n' then t.discarding <- false
                end
                else if c = '\n' then push_line t
                else Buffer.add_char t.acc c
              done;
              next ~max_line t
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              Timeout
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
            ->
              t.eof <- true;
              Eof
        end
end

(* --- configuration and server state -------------------------------- *)

type config = {
  socket_path : string;
  domains : int;
  batch_max : int;
  max_queue : int;
  backlog : int;
  limits : Protocol.limits;
  send_timeout : float;
  trace : bool;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    domains = Core.Work_pool.default_domains ();
    batch_max = 64;
    max_queue = 1024;
    backlog = 64;
    limits = Protocol.default_limits;
    send_timeout = 10.0;
    trace = false;
    log = ignore;
  }

(* The [SO_RCVTIMEO]/[SO_SNDTIMEO] of every accepted connection: how
   often an idle connection thread polls the stop flag. *)
let read_tick = 0.25

type job = {
  pattern : string;
  k : int;
  engine : Kmismatch.engine;
  deadline : Deadline.t;
      (* anchored at admission: the budget covers queue wait too *)
  jm : Mutex.t;
  jcv : Condition.t;
  mutable answer : (Kmismatch.Response.t, Kmm_error.t) result option;
}

type t = {
  cfg : config;
  corpus : Corpus.t;
  listen_fd : Unix.file_descr;
  pool : Core.Work_pool.t;
  (* query queue *)
  qm : Mutex.t;
  qcv : Condition.t;
  queue : job Queue.t;
  (* connection registry *)
  cm : Mutex.t;
  mutable conns : Thread.t list;
  (* metrics *)
  mm : Mutex.t;
  sink : Obs.t;
  stop_requested : bool Atomic.t;
  stopped : bool Atomic.t;
  mutable acceptor : Thread.t option;
  mutable dispatcher : Thread.t option;
}

let stopping t = Atomic.get t.stop_requested

let request_stop t = Atomic.set t.stop_requested true

let with_metrics t f =
  Mutex.lock t.mm;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mm) (fun () -> f t.sink)

let bump t name = with_metrics t (fun s -> Obs.incr s name)

let metrics_text t = with_metrics t Obs.to_prometheus

(* --- dispatcher ----------------------------------------------------- *)

(* Run one batch across the pool.  Each task answers exactly one job via
   [Kmismatch.try_run] — validation failures and even engine exceptions
   become values here, so a task can never raise into the pool.  Results
   land in a slot array indexed by task (the pool's deterministic-merge
   idiom) and are published to the waiting connection threads under each
   job's own mutex after the join. *)
let process_batch t (batch : job array) =
  let n = Array.length batch in
  let forks = Array.init (Core.Work_pool.domains t.pool) (fun _ -> Obs.fork t.sink) in
  let answers =
    Array.make n (Error (Kmm_error.Internal "batch task never ran"))
  in
  (try
     Core.Work_pool.run ~obs:forks t.pool ~tasks:n (fun ~worker ~task ->
         let j = batch.(task) in
         (* A job whose budget already expired in the queue is answered
            without touching the corpus; one that expires mid-search is
            cut by the engine polls inside [try_run].  Either way the
            reply is a typed [Timeout] and partial work is discarded. *)
         if Deadline.expired j.deadline then
           answers.(task) <-
             Error (Kmm_error.Timeout "deadline expired while queued")
         else
           let query =
             Kmismatch.Query.make ~obs:forks.(worker) ~deadline:j.deadline
               ~engine:j.engine ~pattern:j.pattern ~k:j.k ()
           in
           answers.(task) <-
             (match Corpus.try_run t.corpus query with
             | r -> r
             | exception e -> Error (Kmm_error.Internal (Printexc.to_string e))))
   with e ->
     (* [try_run] never raises, so this is a pool-level fault; answer
        every job rather than leaving a connection thread waiting. *)
     let reason = Kmm_error.Internal (Printexc.to_string e) in
     Array.iteri (fun i _ -> answers.(i) <- Error reason) batch);
  with_metrics t (fun s ->
      Array.iter (fun o -> Obs.merge ~into:s o) forks;
      Obs.record s "serve.batch_size" n;
      Obs.incr ~by:n s "serve.queries");
  Array.iteri
    (fun i j ->
      Mutex.lock j.jm;
      j.answer <- Some answers.(i);
      Condition.signal j.jcv;
      Mutex.unlock j.jm)
    batch

let dispatcher_loop t =
  let rec loop () =
    Mutex.lock t.qm;
    while Queue.is_empty t.queue && not (stopping t) do
      Condition.wait t.qcv t.qm
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.qm (* stopping and drained *)
    else begin
      let batch = ref [] in
      let count = ref 0 in
      while !count < t.cfg.batch_max && not (Queue.is_empty t.queue) do
        batch := Queue.pop t.queue :: !batch;
        incr count
      done;
      Mutex.unlock t.qm;
      process_batch t (Array.of_list (List.rev !batch));
      loop ()
    end
  in
  loop ()

(* Submit a query and block until the dispatcher answers it.  Admission
   can refuse — typed, before any work — for two reasons: a stop was
   requested (the queue is guaranteed to drain, so anything admitted is
   guaranteed an answer), or the queue is at [max_queue] (shed, so a
   burst beyond capacity costs the excess queries an immediate
   [Overloaded] reply instead of unbounded memory and queue latency).
   Both are [Overloaded]: transient by contract, safe to retry with
   backoff. *)
let submit t ~pattern ~k ~engine ~deadline =
  Mutex.lock t.qm;
  if stopping t then begin
    Mutex.unlock t.qm;
    Error (Kmm_error.Overloaded "server is shutting down (draining)")
  end
  else if Queue.length t.queue >= t.cfg.max_queue then begin
    Mutex.unlock t.qm;
    Error
      (Kmm_error.Overloaded
         (Printf.sprintf "admission queue full (max_queue = %d)"
            t.cfg.max_queue))
  end
  else begin
    let job =
      { pattern; k; engine; deadline; jm = Mutex.create ();
        jcv = Condition.create (); answer = None }
    in
    Queue.add job t.queue;
    Condition.signal t.qcv;
    Mutex.unlock t.qm;
    Mutex.lock job.jm;
    while job.answer = None do
      Condition.wait job.jcv job.jm
    done;
    Mutex.unlock job.jm;
    match job.answer with Some r -> r | None -> assert false
  end

(* --- connection handling -------------------------------------------- *)

let take n l =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: tl -> go (n - 1) (x :: acc) tl
  in
  go n [] l

let info_fields t =
  let open Protocol in
  [
    ("protocol", Json.Int 1);
    ("length", Json.Int (Corpus.length t.corpus));
    ("shards", Json.Int (Corpus.nshards t.corpus));
    ("max_query", Json.Int (Corpus.max_query t.corpus));
    ("domains", Json.Int (Core.Work_pool.domains t.pool));
    ( "engines",
      Json.List
        (List.map
           (fun e -> Json.String (Kmismatch.engine_name e))
           (Kmismatch.all_engines ())) );
    ("limits", limits_to_json t.cfg.limits);
  ]

let handle_query t ~respond ~id ~pattern ~k ~engine ~deadline =
  let open Protocol in
  let t0 = Obs.Clock.now_ns () in
  (* The relative wire budget is anchored to the monotonic clock here,
     at admission: queue wait spends it just like search does. *)
  let deadline =
    match deadline with None -> Deadline.none | Some s -> Deadline.after s
  in
  match submit t ~pattern ~k ~engine ~deadline with
  | Error e ->
      with_metrics t (fun s ->
          match e with
          | Kmm_error.Overloaded _ -> Obs.incr s "serve.shed"
          | Kmm_error.Timeout _ -> Obs.incr s "serve.timeouts"
          | _ -> Obs.incr s "serve.errors");
      respond (error_response ~id e)
  | Ok r ->
      let hits = r.Kmismatch.Response.hits in
      let count = List.length hits in
      let truncated = count > t.cfg.limits.max_hits in
      let hits = if truncated then take t.cfg.limits.max_hits hits else hits in
      let reply = ok_hits_response ~id ~truncated hits in
      respond reply;
      with_metrics t (fun s ->
          Obs.record s "serve.request_ns" (Obs.Clock.now_ns () - t0);
          Obs.add s "serve.hits" count;
          if truncated then Obs.incr s "serve.truncated")

let handle_conn t fd =
  let open Protocol in
  let reader = Line_reader.create fd in
  let max_line = t.cfg.limits.max_frame in
  (* Each response gets one whole-send budget: a peer that stops reading
     stalls only its own connection, and only for [send_timeout]. *)
  let respond s =
    write_all ~deadline:(Deadline.after t.cfg.send_timeout) fd (s ^ "\n")
  in
  let reject ~id e =
    bump t "serve.rejected";
    respond (error_response ~id e)
  in
  let handle_frame line =
    match parse_request ~limits:t.cfg.limits line with
    | Error (id, e) -> reject ~id e
    | Ok { id; body } -> (
        bump t "serve.requests";
        match body with
        | Ping -> respond (ok_obj_response ~id [ ("pong", Json.Bool true) ])
        | Metrics ->
            respond (ok_obj_response ~id [ ("metrics", Json.String (metrics_text t)) ])
        | Info -> respond (ok_obj_response ~id (info_fields t))
        | Shutdown ->
            respond (ok_obj_response ~id [ ("stopping", Json.Bool true) ]);
            t.cfg.log "shutdown requested over the wire";
            request_stop t
        | Query { pattern; k; engine; deadline } ->
            handle_query t ~respond ~id ~pattern ~k ~engine ~deadline)
  in
  (* On stop, a connection stays open for one more [read_tick] from the
     moment its thread first sees the stop, then hangs up at the next
     frame boundary.  Frames the client already pipelined, or sends
     within that tick, each get a typed [Overloaded] refusal from
     [submit] instead of a silent close — even when the stop lands
     between a reply and the next read — and a client that keeps
     sending cannot hold the drain open past the tick. *)
  let rec loop hangup =
    let hangup =
      if Deadline.is_none hangup && stopping t then Deadline.after read_tick else hangup
    in
    let drained () = Deadline.expired hangup && not (Line_reader.buffered reader) in
    match Line_reader.next ~max_line reader with
    | Timeout -> if drained () then () else loop hangup
    | Eof -> ()
    | Truncated ->
        (* The peer shut its write side mid-frame; it may still read. *)
        reject ~id:Json.Null
          (Kmm_error.Bad_input "truncated frame: connection closed mid-line")
    | Oversize ->
        reject ~id:Json.Null
          (Kmm_error.Bad_input
             (Printf.sprintf "frame exceeds max_frame (%d bytes)" max_line));
        loop hangup
    | Line "" -> loop hangup
    | Line line ->
        handle_frame line;
        if drained () then () else loop hangup
  in
  (try loop Deadline.none with
  | Conn_lost -> bump t "serve.conns_dropped"
  | Conn_stalled -> bump t "serve.conns_stalled"
  | e ->
      bump t "serve.conns_failed";
      t.cfg.log (Printf.sprintf "connection failed: %s" (Printexc.to_string e)));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  bump t "serve.disconnects"

let acceptor_loop t =
  let rec loop () =
    if stopping t then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              (* Bounded read timeout: connection threads poll the stop
                 flag at least every 250 ms even when a client idles.
                 The send timeout makes a blocked [Unix.write] wake just
                 as often, so [write_all] can enforce its whole-response
                 budget against a stalled reader. *)
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_tick;
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_tick;
              bump t "serve.connections";
              let th = Thread.create (fun () -> handle_conn t fd) () in
              Mutex.lock t.cm;
              t.conns <- th :: t.conns;
              Mutex.unlock t.cm;
              loop ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            ->
              loop ()
          (* stop closes the fd between select and accept *)
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> () (* closed by stop *)
  in
  loop ()

(* --- lifecycle ------------------------------------------------------ *)

(* Binding over a leftover socket file: a live daemon answers a connect,
   a stale file (crashed or killed -9 predecessor) refuses it.  Only the
   stale case is safe to unlink and reclaim. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* [Fun.protect], not a close after the match: an unexpected raise
       out of [connect] must not leak the probe fd. *)
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
          | exception Unix.Unix_error _ -> false)
    in
    if live then
      Kmm_error.raise_error
        (Kmm_error.Io (Failure (Printf.sprintf "%s: a daemon is already listening" path)))
    else try Unix.unlink path with Unix.Unix_error _ -> ()
  end

(* Linux [sun_path] is 108 bytes including the terminating NUL.  A
   longer path would surface from [Unix.bind] (or even the pre-bind
   liveness probe) as a raw [Unix_error]/[Invalid_argument]; refuse it
   up front as the typed bad-input it is. *)
let max_socket_path = 107

let start cfg corpus =
  if cfg.domains < 1 then invalid_arg "Server.start: domains must be >= 1";
  if cfg.batch_max < 1 then invalid_arg "Server.start: batch_max must be >= 1";
  if cfg.max_queue < 1 then invalid_arg "Server.start: max_queue must be >= 1";
  if not (cfg.send_timeout > 0.) then
    invalid_arg "Server.start: send_timeout must be > 0";
  if String.length cfg.socket_path > max_socket_path then
    Kmm_error.raise_error
      (Kmm_error.Bad_input
         (Printf.sprintf
            "socket path is %d bytes; AF_UNIX socket paths are limited to %d bytes"
            (String.length cfg.socket_path)
            max_socket_path));
  (* A disconnecting client must never kill the daemon: writes to a dead
     peer report EPIPE instead of raising the default-fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  claim_socket_path cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd cfg.backlog;
     Unix.set_nonblock listen_fd
   with
  | () -> ()
  | exception e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match e with
      | Unix.Unix_error _ | Sys_error _ -> Kmm_error.raise_error (Kmm_error.Io e)
      | e -> raise e));
  let t =
    {
      cfg;
      corpus;
      listen_fd;
      pool = Core.Work_pool.create ~domains:cfg.domains ();
      qm = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      cm = Mutex.create ();
      conns = [];
      mm = Mutex.create ();
      sink = Obs.create ~trace:cfg.trace ();
      stop_requested = Atomic.make false;
      stopped = Atomic.make false;
      acceptor = None;
      dispatcher = None;
    }
  in
  Fmindex.Fm_index.Telemetry.set_enabled true;
  t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  cfg.log
    (Printf.sprintf "listening on %s (%d bp corpus, %d shard%s, %d domain%s, batch <= %d)"
       cfg.socket_path (Corpus.length corpus)
       (Corpus.nshards corpus)
       (if Corpus.nshards corpus = 1 then "" else "s")
       cfg.domains
       (if cfg.domains = 1 then "" else "s")
       cfg.batch_max);
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    request_stop t;
    (* Wake the dispatcher so it can observe the flag and drain. *)
    Mutex.lock t.qm;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qm;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    Option.iter Thread.join t.dispatcher;
    let conns =
      Mutex.lock t.cm;
      let l = t.conns in
      t.conns <- [];
      Mutex.unlock t.cm;
      l
    in
    List.iter Thread.join conns;
    Core.Work_pool.shutdown t.pool;
    Fmindex.Fm_index.Telemetry.set_enabled false;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    t.cfg.log "stopped (drained)"
  end

let serve ?trace_out ?metrics_out cfg corpus =
  let t = start cfg corpus in
  let install sg = Sys.signal sg (Sys.Signal_handle (fun _ -> request_stop t)) in
  let old_int = install Sys.sigint in
  let old_term = install Sys.sigterm in
  let finish () =
    stop t;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Mutex.lock t.mm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mm)
      (fun () ->
        Option.iter (Obs.write_chrome_trace ~process_name:"kmm-serve" t.sink) trace_out;
        Option.iter (Obs.write_prometheus t.sink) metrics_out)
  in
  Fun.protect ~finally:finish (fun () ->
      while not (stopping t) do
        try Thread.delay 0.1
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      cfg.log "stop requested; draining")

(* --- client helpers ------------------------------------------------- *)

module Client = struct
  type c = {
    fd : Unix.file_descr;
    reader : Line_reader.t;
    timeout : float option;  (* read budget per reply, None = wait forever *)
  }

  (* Connect with an optional budget.  The refused/stale/missing-socket
     family keeps raising [Unix.Unix_error] (callers pattern-match it to
     print the "is kmm serve running?" hint); a connect that hangs —
     possible when the daemon's listen backlog is full — is bounded by
     [timeout] via the non-blocking connect + select idiom and surfaces
     as [Unix_error (ETIMEDOUT, "connect", path)]. *)
  let connect ?timeout path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match
       match timeout with
       | None -> Unix.connect fd (Unix.ADDR_UNIX path)
       | Some budget -> (
           Unix.set_nonblock fd;
           (match Unix.connect fd (Unix.ADDR_UNIX path) with
           | () -> ()
           | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
             -> (
               match Unix.select [] [ fd ] [] budget with
               | _, [ _ ], _ -> (
                   match Unix.getsockopt_error fd with
                   | None -> ()
                   | Some err -> raise (Unix.Unix_error (err, "connect", path)))
               | _ ->
                   raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", path))));
           Unix.clear_nonblock fd;
           (* Reads and writes inherit the same budget as ticks; the
              whole-reply budget is enforced in [recv_line]. *)
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.min budget 0.25);
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO (Float.min budget 0.25))
     with
    | () -> ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    { fd; reader = Line_reader.create fd; timeout }

  (* [connect] with the failure as a value: the raw [Unix_error] becomes
     a typed [Io] carrying an actionable message.  This is what the CLI
     and the retry loop below build on. *)
  let try_connect ?timeout path =
    match connect ?timeout path with
    | c -> Ok c
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (Kmm_error.Io
             (Failure
                (Printf.sprintf "cannot connect to %s: %s (is kmm serve running?)"
                   path (Unix.error_message e))))

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let send_line c s =
    let deadline =
      match c.timeout with None -> Deadline.none | Some b -> Deadline.after b
    in
    write_all ~deadline c.fd (s ^ "\n")

  exception Read_timed_out

  let recv_line c =
    let deadline =
      match c.timeout with None -> Deadline.none | Some b -> Deadline.after b
    in
    let rec go () =
      match Line_reader.next ~max_line:Sys.max_string_length c.reader with
      | Line_reader.Line l -> Some l
      | Line_reader.Timeout ->
          (* SO_RCVTIMEO tick (only set when a timeout was requested):
             re-check the whole-reply budget and keep waiting. *)
          if Deadline.expired deadline then raise Read_timed_out else go ()
      | Line_reader.Eof | Line_reader.Truncated | Line_reader.Oversize -> None
    in
    go ()

  let rpc c frame =
    match send_line c frame with
    | () -> (
        match recv_line c with
        | Some line -> (
            match Protocol.parse_reply line with
            | Ok reply -> Ok reply
            | Error m -> Error (Kmm_error.Internal m))
        | None ->
            Error (Kmm_error.Io (Failure "connection closed by server"))
        | exception Read_timed_out ->
            Error
              (Kmm_error.Timeout
                 (Printf.sprintf "no reply within %gs"
                    (Option.value ~default:0. c.timeout))))
    | exception Conn_lost ->
        Error (Kmm_error.Io (Failure "connection lost"))
    | exception Conn_stalled ->
        Error (Kmm_error.Timeout "send stalled: server stopped reading")

  let query c ?id ?engine ?deadline ~pattern ~k () =
    rpc c (Protocol.query_request ?id ?engine ?deadline ~pattern ~k ())

  let command c cmd = rpc c (Protocol.command_request cmd)

  (* --- retry policy ------------------------------------------------- *)

  (* What a client may transparently retry.  [Overloaded] is the server
     saying exactly that ("try again later"); a connection-level [Io]
     (refused, reset, vanished) means no request was — or can still
     be — processed.  [Bad_input] (and the rest of the parse/index
     family) is deterministic: retrying it spams the server with the
     same mistake.  [Timeout] is deliberately not retryable: the budget
     was the caller's own, and retrying with the same budget mostly
     burns another budget; callers that want to retry a timeout opt in
     by raising it. *)
  let retryable = function
    | Kmm_error.Overloaded _ | Kmm_error.Io _ -> true
    | Kmm_error.Timeout _ | Kmm_error.Bad_input _ | Kmm_error.Internal _
    | Kmm_error.Bad_magic | Kmm_error.Unsupported_version _
    | Kmm_error.Truncated _ | Kmm_error.Corrupt _ ->
        false

  (* Capped jittered exponential backoff: attempt [i] (0-based) sleeps
     [base * 2^i] scaled by a uniform jitter in [0.5, 1.0] (decorrelates
     a fleet of clients shed at the same instant), capped at [cap].
     Deterministic given [seed] — chaos tests pin it. *)
  let backoff_delay ~rng ~base ~cap i =
    let expo = base *. (2. ** float_of_int i) in
    Float.min cap expo *. (0.5 +. (Random.State.float rng 0.5))

  let with_retry ?(attempts = 3) ?(base = 0.05) ?(cap = 2.0) ?seed f =
    let rng =
      match seed with
      | Some s -> Random.State.make [| s |]
      | None -> Random.State.make_self_init ()
    in
    let rec go i =
      match f () with
      | Ok _ as ok -> ok
      | Error e when i + 1 < attempts && retryable e ->
          Thread.delay (backoff_delay ~rng ~base ~cap i);
          go (i + 1)
      | Error _ as err -> err
    in
    go 0
end
