(* The kmm query daemon.  Threading model:

     event loop        -- one thread on the caller's domain: a select
                          loop over the listener, every connection and
                          a self-pipe; reads frames, admits them, and
                          writes each connection's replies in frame
                          order; answers a lone query itself (below)
     [domains] workers -- one OCaml domain each: pull one admitted query
                          off the queue, run it, encode its reply and
                          hand it back to the loop
     scrapes           -- one short-lived thread per [metrics] command:
                          merges the worker sinks, which waits for their
                          running queries, off the loop
     caller            -- start/stop (or the [serve] signal loop)

   The loop's one bounded duty beyond I/O: a round that admits exactly
   one query, from a connection on a streak of [solo_streak] queries,
   with the queue empty, every worker idle and no stop requested, runs
   that query on the loop instead of waking a worker (every registered
   engine polls its deadline; test_chaos checks it).  It runs under a
   budget of [inline_ns], renewed while the loop has nothing else to
   do; once a descriptor it watches is ready, a timer is due or a stop
   is requested, the search is discarded and queued like any other
   query, so the loop answers others at most [inline_ns] plus one poll
   stride late.  Inline searches use the caller domain's ambient
   deadline and sink slots and its engine scratch, so no other thread
   may search on that domain while the daemon runs: the scrapes and
   [serve]'s signal loop never do.

   The loop's other duty is a poll: after a round that wrote a reply,
   with every worker idle and the queue empty, it polls its descriptors
   with zero-timeout [select]s for up to [poll_ns] instead of going to
   sleep, so a one-at-a-time client's next frame does not pay the
   sleeping [select]'s wake-up.  It polls only while the last gap it
   measured, from a reply to the next readable connection, was shorter
   than the window: a client that pauses longer costs one window, on
   its first pause.

   Workers never touch a socket, so a stalled reader can never hold a
   query domain.  Locks, never nested: [qm] (admission queue), [dm]
   (completion list), one [wm] per worker (its sink).  The server sink,
   the loop's scratch sink and every connection belong to the loop
   alone. *)

module Kmismatch = Core.Kmismatch
module C = Obs.Counter
module Client = Client

type config = {
  socket_path : string;
  domains : int;
  max_queue : int;
  limits : Protocol.limits;
  send_timeout : float;
  trace : bool;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    domains =
      min (Core.Work_pool.max_domains - 1) (Core.Work_pool.default_domains ());
    max_queue = 1024;
    limits = Protocol.default_limits;
    send_timeout = 10.0;
    trace = false;
    log = ignore;
  }

(* How long a draining daemon keeps reading, from the stop instant:
   frames that arrive within it get typed refusals, not a silent close. *)
let drain_window_ns = 250_000_000

(* How long the loop leaves the listener alone after [accept] failed
   for want of descriptors or kernel memory, unless a connection closes
   first. *)
let accept_backoff_ns = 50_000_000

(* The longest [select]: how late the loop may notice a [request_stop]
   that came without a wake (a signal handler's). *)
let tick_ns = 100_000_000

(* The budget of a lone query the loop answers itself, renewed while
   nothing else waits.  Queued, a query pays two cross-domain hand-offs
   (serve-short, 2-vCPU host, means over 5000 one-at-a-time queries):
   7.2 us from admission to a parked worker's pull, and about 7.4 us
   from its reply back through the self-pipe to the loop's write,
   against 6.5-9 us of search.  It is the longest the loop leaves other
   connections waiting, plus one poll stride, and how often a long
   inline search pays one zero-timeout [select]. *)
let inline_ns = 50_000

(* How long the loop polls after a reply instead of sleeping in
   [select].  A [select] that has gone to sleep costs 3-6 us to wake on
   a 2-vCPU host whose idle vCPUs halt (no cpuidle states): a Unix
   socketpair probe with 3 us of server work per message read a
   round-trip p50 of 15.6 us with both sides blocking, 13.1 us with the
   server polling and 7.2 us with both polling.  A one-at-a-time client's next frame follows its
   reply within 5-20 us (serve-short), well inside the window; one that
   pauses longer is not polled after its first pause ([should_poll]). *)
let poll_ns = 50_000

(* How many queries in a row a connection must have sent, with no other
   connection's query in between, before the loop answers one itself.
   A query the loop's budget cuts loses its search: that happens when a
   second client's query arrives mid-search, and the streak keeps the
   loop off clients that interleave.  Two clients sending 0.3 ms
   queries one at a time (2-vCPU host) lost ~3% of their queries to cuts
   at a streak of one. *)
let solo_streak = 3

(* Frames one connection may have in flight: read, not yet answered on
   the wire.  Past it the loop leaves that connection's input unread
   until replies drain, which bounds the reply memory one pipelining
   client can pin. *)
let max_in_flight = 64

(* The listening socket's [listen] backlog: connections the kernel
   holds for the loop's next [accept]. *)
let backlog = 64

(* Connection buffers start at [buf_size]; a read wants at least
   [min_read] free bytes; a buffer grown past [shrink_above] is replaced
   by a small one once it empties. *)
let buf_size = 4096
let min_read = 1024
let shrink_above = 65536

(* A reply owed on a connection, queued in frame order.  The loop owns
   it: a worker hands its query's reply back through the completion
   list and never touches the slot. *)
type slot = {
  admitted_ns : int;  (* monotonic admission instant *)
  mutable reply : string option;  (* the encoded frame, once ready *)
  mutable timed : bool;  (* a hits reply: recorded in serve.request_ns *)
}

type job = {
  slot : slot;
  id : Protocol.Json.t;
  pattern : string;
  k : int;
  engine : Kmismatch.engine;
  deadline : Deadline.t;  (* anchored at admission: the budget covers queue wait too *)
  solo : bool;  (* its connection sent the last [solo_streak] queries read *)
}

(* A worker domain's own sink, recorded into by that domain alone, one
   query at a time under [wm].  It lives as long as the server: readers
   merge it into a fresh sink under the same mutex, so the hot path
   never allocates or merges a sink. *)
type worker = { wm : Mutex.t; wsink : Obs.t }

type conn = {
  fd : Unix.file_descr;
  (* Input: bytes [ipos, ilen) of [ibuf] are read but not yet framed,
     and [ipos, scanned) holds no newline. *)
  mutable ibuf : Bytes.t;
  mutable ipos : int;
  mutable scanned : int;
  mutable ilen : int;
  mutable discarding : bool;  (* dropping an oversize frame up to its newline *)
  mutable eof : bool;
  slots : slot Queue.t;
  (* Output: bytes [opos, olen) of [obuf] are not yet written. *)
  mutable obuf : Bytes.t;
  mutable opos : int;
  mutable olen : int;
  mutable stall_at : int;  (* dropped if output is still pending then; [max_int] when none is *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  index : Kmismatch.index;
  listen_fd : Unix.file_descr;
  workers : worker array;
  mutable worker_domains : unit Domain.t array;
  mutable loop : Thread.t option;
  (* admission queue *)
  qm : Mutex.t;
  qcv : Condition.t;
  queue : job Queue.t;
  (* replies the workers encoded, and the self-pipe that wakes the loop
     for them: a byte is written only when [wake_pending] flips on *)
  dm : Mutex.t;
  mutable completed : (slot * string * bool) list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;
  scrapes : int Atomic.t;  (* [metrics] replies still being built off the loop *)
  busy : int Atomic.t;  (* workers running a job; raised under [qm] *)
  mutable loop_exited : bool;  (* under [qm]: workers leave once it is set and the queue is empty *)
  sink : Obs.t;
  stop_ns : int Atomic.t;  (* monotonic instant of the stop request; 0 = none *)
  stopped : bool Atomic.t;
}

let stopping t = Atomic.get t.stop_ns <> 0

(* Only an atomic store, so a signal handler may call it. *)
let request_stop t = ignore (Atomic.compare_and_set t.stop_ns 0 (max 1 (Obs.Clock.now_ns ())))

(* Fold every worker's sink into [snap], each under its own mutex: this
   waits for the query that worker is running, so the loop never calls
   it. *)
let merge_workers t snap =
  Array.iter
    (fun w -> Mutex.protect w.wm (fun () -> Obs.merge ~into:snap w.wsink))
    t.workers

(* Everything recorded so far, merged into a fresh sink.  Only once the
   loop has exited: the loop's sink is its own while it runs. *)
let collect ?(trace = false) t =
  let snap = Obs.create ~trace () in
  Obs.merge ~into:snap t.sink;
  merge_workers t snap;
  snap

(* --- worker domains -------------------------------------------------- *)

let take n l =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: tl -> go (n - 1) (x :: acc) tl
  in
  go n [] l

let wake_byte = Bytes.make 1 '!'

let wake t =
  (* EAGAIN: the pipe is full, so a wake is pending anyway. *)
  try ignore (Unix.single_write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

(* Hand a reply to the loop for [slot]; [timed] marks a hits reply.  A
   burst of completions costs one pipe byte. *)
let post t slot reply timed =
  Mutex.lock t.dm;
  t.completed <- (slot, reply, timed) :: t.completed;
  Mutex.unlock t.dm;
  if Atomic.compare_and_set t.wake_pending false true then wake t

(* Answer job [j], recording into [o], and encode its reply: the frame
   and whether it is a hits reply.  Total: a budget that expired in the
   queue, a validation failure and an engine exception all become this
   job's reply, so every admitted query is answered and no domain dies.
   Only a search that the loop's budget ({!Deadline.with_budget}) cut
   before the query's own deadline passed comes back unanswered, as
   [None]: never on a worker. *)
let answer t o j =
  let max_hits = t.cfg.limits.max_hits in
  let r =
    (* [try_run] answers a job that expired while queued without
       searching, and the engine polls cut one that expires mid-search;
       either way the reply is a typed [Timeout] and partial work is
       discarded. *)
    match
      Kmismatch.try_run t.index
        (Kmismatch.Query.make ~obs:o ~deadline:j.deadline
           ~engine:j.engine ~pattern:j.pattern ~k:j.k ())
    with
    | r -> Result.map (fun r -> r.Kmismatch.Response.hits) r
    | exception e -> Error (Kmm_error.Internal (Printexc.to_string e))
  in
  match r with
  | Error (Kmm_error.Timeout _) when not (Deadline.expired j.deadline) -> None
  | Ok hits ->
      Obs.incr o C.serve_queries;
      let count = List.length hits in
      Obs.add o C.serve_hits count;
      let truncated = count > max_hits in
      if truncated then Obs.incr o C.serve_truncated;
      let hits = if truncated then take max_hits hits else hits in
      Some (Protocol.ok_hits_response ~id:j.id ~truncated hits, true)
  | Error e ->
      Obs.incr o C.serve_queries;
      Obs.incr o (match e with Kmm_error.Timeout _ -> C.serve_timeouts | _ -> C.serve_errors);
      Some (Protocol.error_response ~id:j.id e, false)

(* Dispatch [j] into sink [o]: its wait since admission, a hand-off of
   one query, and its run.  Workers and the loop alike. *)
let dispatch t o j =
  Obs.record o Obs.Hist.pool_queue_wait_ns (Obs.Clock.now_ns () - j.slot.admitted_ns);
  Obs.record o Obs.Hist.serve_batch_size 1;
  Obs.time o Obs.Hist.pool_task_ns (fun () -> answer t o j)

(* Answer one job on worker [w]. *)
let run_job t w j =
  Mutex.protect w.wm (fun () ->
      Obs.incr w.wsink C.pool_tasks;
      dispatch t w.wsink j)

(* Pull admitted jobs one at a time until the loop has exited and the
   queue is empty: everything admitted, or queued by the loop after a
   cut, is answered before the exit.  A worker counts as busy until its
   reply is ready, so the client's next query may find the pool idle. *)
let worker_loop t w =
  let rec loop () =
    Mutex.lock t.qm;
    while Queue.is_empty t.queue && not t.loop_exited do
      Condition.wait t.qcv t.qm
    done;
    let next = Queue.take_opt t.queue in
    if Option.is_some next then Atomic.incr t.busy;
    Mutex.unlock t.qm;
    match next with
    | None -> ()
    | Some j ->
        let reply = run_job t w j in
        Atomic.decr t.busy;
        Option.iter (fun (reply, timed) -> post t j.slot reply timed) reply;
        loop ()
  in
  loop ()

(* --- connections ------------------------------------------------------ *)

exception Conn_lost
(* The peer vanished mid-write (EPIPE with SIGPIPE ignored, or reset):
   costs that connection, never the daemon. *)

let new_conn fd =
  {
    fd;
    ibuf = Bytes.create buf_size;
    ipos = 0;
    scanned = 0;
    ilen = 0;
    discarding = false;
    eof = false;
    slots = Queue.create ();
    obuf = Bytes.create buf_size;
    opos = 0;
    olen = 0;
    stall_at = max_int;
    closed = false;
  }

let pending_output c = c.opos < c.olen

(* Read what the socket has, after making room for at least [min_read]
   bytes.  A reset peer is an EOF with its unframed input dropped. *)
let read_in c =
  if c.ipos = c.ilen then begin
    c.ipos <- 0;
    c.scanned <- 0;
    c.ilen <- 0;
    if Bytes.length c.ibuf > shrink_above then c.ibuf <- Bytes.create buf_size
  end;
  if Bytes.length c.ibuf - c.ilen < min_read then begin
    let live = c.ilen - c.ipos in
    let b =
      if live + min_read <= Bytes.length c.ibuf then c.ibuf
      else Bytes.create (2 * Bytes.length c.ibuf)
    in
    Bytes.blit c.ibuf c.ipos b 0 live;
    c.ibuf <- b;
    c.scanned <- c.scanned - c.ipos;
    c.ilen <- live;
    c.ipos <- 0
  end;
  match Unix.read c.fd c.ibuf c.ilen (Bytes.length c.ibuf - c.ilen) with
  | 0 -> c.eof <- true
  | n -> c.ilen <- c.ilen + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN), _, _) ->
      c.eof <- true;
      c.ipos <- c.ilen;
      c.scanned <- c.ilen

let rec newline_at b i stop =
  if i >= stop then -1 else if Bytes.unsafe_get b i = '\n' then i else newline_at b (i + 1) stop

type framing =
  | Frame of string  (** one complete frame, newline (and a CR before it) stripped *)
  | Oversize  (** the pending frame outgrew [max_frame]; it is dropped up to its newline *)
  | Partial  (** no complete frame buffered *)

let next_frame c ~max_frame =
  let rec go () =
    let nl = newline_at c.ibuf c.scanned c.ilen in
    if nl < 0 then begin
      c.scanned <- c.ilen;
      if c.discarding then begin
        c.ipos <- c.ilen;
        Partial
      end
      else if c.ilen - c.ipos > max_frame then begin
        (* Report once, then drop the rest of the frame so the
           connection resynchronizes at the next newline. *)
        c.discarding <- true;
        c.ipos <- c.ilen;
        Oversize
      end
      else Partial
    end
    else begin
      let start = c.ipos in
      c.ipos <- nl + 1;
      c.scanned <- nl + 1;
      if c.discarding then begin
        c.discarding <- false;
        go ()
      end
      else
        let stop = if nl > start && Bytes.get c.ibuf (nl - 1) = '\r' then nl - 1 else nl in
        Frame (Bytes.sub_string c.ibuf start (stop - start))
    end
  in
  go ()

(* Append one reply frame to the output, compacting or growing it. *)
let append c s =
  let n = String.length s in
  if c.olen + n + 1 > Bytes.length c.obuf then begin
    let live = c.olen - c.opos in
    let b =
      if live + n + 1 <= Bytes.length c.obuf then c.obuf
      else Bytes.create (max (live + n + 1) (2 * Bytes.length c.obuf))
    in
    Bytes.blit c.obuf c.opos b 0 live;
    c.obuf <- b;
    c.opos <- 0;
    c.olen <- live
  end;
  Bytes.blit_string s 0 c.obuf c.olen n;
  Bytes.set c.obuf (c.olen + n) '\n';
  c.olen <- c.olen + n + 1

(* Write as much pending output as the socket takes.  Output left over
   starts the connection's send budget; output fully drained ends it. *)
let write_out ~send_timeout_ns ~now c =
  (match Unix.write c.fd c.obuf c.opos (c.olen - c.opos) with
  | n -> c.opos <- c.opos + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception
      Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.ENOTCONN), _, _) ->
      raise Conn_lost);
  if c.opos = c.olen then begin
    c.opos <- 0;
    c.olen <- 0;
    c.stall_at <- max_int;
    if Bytes.length c.obuf > shrink_above then c.obuf <- Bytes.create buf_size
  end
  else if c.stall_at = max_int then c.stall_at <- now + send_timeout_ns

(* --- the event loop --------------------------------------------------- *)

type loop = {
  conns : (Unix.file_descr, conn) Hashtbl.t;
  send_timeout_ns : int;
  mutable listening : bool;
  mutable accept_at : int;  (* the listener is selected again from this instant *)
  mutable drain_end : int;  (* [max_int] until a stop is seen *)
  mutable admitted : job list;  (* parsed this round, newest first *)
  mutable now : int;
  mutable sender : conn option;  (* the connection the latest query came from *)
  mutable streak : int;  (* queries read in a row from [sender] *)
  mutable replied : int;  (* when the latest reply was written; [no_reply] once a connection was readable since *)
  mutable gap : int;  (* the last gap measured from a reply to the next readable connection *)
  scratch : Obs.t;  (* a lone query's attempt on the loop, merged into the server sink once answered *)
}

(* [replied]'s value while no reply awaits the next readable connection. *)
let no_reply = min_int

let info_fields t =
  let open Protocol in
  [
    ("protocol", Json.Int 1);
    ("length", Json.Int (Kmismatch.length t.index));
    ("domains", Json.Int t.cfg.domains);
    ( "engines",
      Json.List
        (List.map
           (fun e -> Json.String (Kmismatch.engine_name e))
           (servable_engines ())) );
    ("limits", limits_to_json t.cfg.limits);
  ]

let immediate c reply = Queue.add { admitted_ns = 0; reply = Some reply; timed = false } c.slots

let reject t c ~id e =
  Obs.incr t.sink C.serve_rejected;
  immediate c (Protocol.error_response ~id e)

(* Whether the loop parses [c]'s next frame: not while the socket
   refuses its replies (backpressure), nor past [max_in_flight] — except
   during the drain, where every frame is answered at once. *)
let can_take t c =
  (not (pending_output c)) && (stopping t || Queue.length c.slots < max_in_flight)

(* What the loop waits for: the descriptors it reads and writes, and the
   earliest instant one of its timers is due ([max_int] when none is). *)
let watch t l =
  let drain_over = l.now >= l.drain_end in
  let rd = ref [ t.wake_r ] and wr = ref [] and due = ref max_int in
  if l.listening then
    if l.now >= l.accept_at then rd := t.listen_fd :: !rd else due := min !due l.accept_at;
  if stopping t && not drain_over then due := min !due l.drain_end;
  Hashtbl.iter
    (fun _ c ->
      if pending_output c then begin
        wr := c.fd :: !wr;
        due := min !due c.stall_at
      end
      else if can_take t c then begin
        if not (c.eof || drain_over) then rd := c.fd :: !rd;
        (* Frames already buffered: no waiting. *)
        if c.scanned < c.ilen then due := l.now
      end)
    l.conns;
  (!rd, !wr, !due)

(* Whether the loop answers this round's [jobs] itself: exactly one
   query, from a connection on a streak of [solo_streak], with the queue
   empty, every worker idle and no stop requested.  Under [qm]. *)
let lone t jobs =
  match jobs with
  | [ j ] -> j.solo && Queue.is_empty t.queue && Atomic.get t.busy = 0 && not (stopping t)
  | _ -> false

(* Answer a lone query on the loop, under a budget of [inline_ns] that
   is renewed while the loop has nothing else to do: no stop, no timer
   due and no descriptor it watches ready.  Once it has, the search is
   cut within [inline_ns] plus one poll stride, and the query is queued
   with its own deadline; the attempt leaves nothing in the server
   sink. *)
let answer_inline t l j =
  let rd, wr, due = watch t l in
  let renew () =
    (not (stopping t))
    && Obs.Clock.now_ns () < due
    &&
    match Unix.select rd wr [] 0. with
    | [], [], _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let reply = Deadline.with_budget ~ns:inline_ns ~renew (fun () -> dispatch t l.scratch j) in
  (match reply with
  | Some (reply, timed) ->
      Obs.merge ~into:t.sink l.scratch;
      Obs.incr t.sink C.serve_inline;
      j.slot.reply <- Some reply;
      j.slot.timed <- timed
  | None ->
      Obs.incr t.sink C.serve_inline_cut;
      (* The queue was empty and only the loop adds to it, so there is
         room; the workers serve until the loop has exited. *)
      Mutex.protect t.qm (fun () ->
          Queue.add j t.queue;
          Condition.signal t.qcv));
  Obs.reset l.scratch

(* Queue this round's queries under one lock, or answer a lone one on
   the loop.  Admission refuses — typed, before any work — when a stop
   was requested (the queue is guaranteed to drain, so anything admitted
   is guaranteed an answer) or when the queue is at [max_queue] (shed,
   so a burst beyond capacity costs the excess an immediate reply
   instead of unbounded memory and queue latency).  Both are
   [Overloaded]: retryable with backoff. *)
let admit t l =
  if l.admitted <> [] then begin
    let jobs = List.rev l.admitted in
    l.admitted <- [];
    Mutex.lock t.qm;
    if lone t jobs then begin
      Mutex.unlock t.qm;
      answer_inline t l (List.hd jobs)
    end
    else begin
      let refused =
        List.filter_map
          (fun j ->
            if stopping t then Some (j, "server is shutting down (draining)")
            else if Queue.length t.queue >= t.cfg.max_queue then
              Some (j, Printf.sprintf "admission queue full (max_queue = %d)" t.cfg.max_queue)
            else begin
              Queue.add j t.queue;
              Condition.signal t.qcv;
              None
            end)
          jobs
      in
      Mutex.unlock t.qm;
      List.iter
        (fun (j, why) ->
          Obs.incr t.sink C.serve_shed;
          j.slot.reply <- Some (Protocol.error_response ~id:j.id (Kmm_error.Overloaded why)))
        refused
    end
  end

(* Finish a [metrics] reply off the loop: each worker's sink is merged
   under its mutex, which waits for that worker's running query.  Total,
   so the slot is always answered. *)
let scrape t ~id slot snap =
  let reply =
    match
      merge_workers t snap;
      Obs.to_prometheus snap
    with
    | text -> Protocol.ok_obj_response ~id [ ("metrics", Protocol.Json.String text) ]
    | exception e -> Protocol.error_response ~id (Kmm_error.Internal (Printexc.to_string e))
  in
  post t slot reply false;
  Atomic.decr t.scrapes

let handle_frame t l c line =
  let open Protocol in
  match parse_request ~limits:t.cfg.limits line with
  | Error (id, e) -> reject t c ~id e
  | Ok { id; body } -> (
      Obs.incr t.sink C.serve_requests;
      match body with
      | Ping -> immediate c (ok_obj_response ~id [ ("pong", Json.Bool true) ])
      | Metrics -> (
          (* The loop copies its own sink now and a short-lived thread
             does the rest; the reply comes back like a query's. *)
          let slot = { admitted_ns = 0; reply = None; timed = false } in
          Queue.add slot c.slots;
          let snap = Obs.create () in
          Obs.merge ~into:snap t.sink;
          Atomic.incr t.scrapes;
          match Thread.create (scrape t ~id slot) snap with
          | _ -> ()
          | exception e ->
              Atomic.decr t.scrapes;
              raise e)
      | Info -> immediate c (ok_obj_response ~id (info_fields t))
      | Shutdown ->
          immediate c (ok_obj_response ~id [ ("stopping", Json.Bool true) ]);
          t.cfg.log "shutdown requested over the wire";
          (* Queue the queries parsed before this frame first: only
             frames after the stop are refused. *)
          admit t l;
          request_stop t
      | Query { pattern; k; engine; deadline } ->
          (* The relative wire budget is anchored to the monotonic clock
             here, at admission: queue wait spends it just like search. *)
          let deadline = match deadline with None -> Deadline.none | Some s -> Deadline.after s in
          let slot = { admitted_ns = Obs.Clock.now_ns (); reply = None; timed = false } in
          Queue.add slot c.slots;
          l.streak <- (match l.sender with Some s when s == c -> l.streak + 1 | _ -> 1);
          l.sender <- Some c;
          let solo = l.streak >= solo_streak in
          l.admitted <- { slot; id; pattern; k; engine; deadline; solo } :: l.admitted)

let take_frames t l c =
  let max_frame = t.cfg.limits.max_frame in
  let rec go () =
    if c.ipos < c.ilen && can_take t c then
      match next_frame c ~max_frame with
      | Frame "" -> go ()
      | Frame line ->
          handle_frame t l c line;
          go ()
      | Oversize ->
          reject t c ~id:Protocol.Json.Null
            (Kmm_error.Bad_input (Printf.sprintf "frame exceeds max_frame (%d bytes)" max_frame));
          go ()
      | Partial ->
          if c.eof && c.ipos < c.ilen then begin
            (* The peer shut its write side mid-frame; it may still read. *)
            c.ipos <- c.ilen;
            reject t c ~id:Protocol.Json.Null
              (Kmm_error.Bad_input "truncated frame: connection closed mid-line")
          end
  in
  go ()

(* Move the ready replies at the head of [c]'s queue to its output, in
   frame order, and write them with one call.  Whether it appended a
   reply. *)
let flush t l c ~writable =
  let rec move appended =
    match Queue.peek_opt c.slots with
    | Some { reply = Some reply; timed; admitted_ns } ->
        ignore (Queue.pop c.slots);
        append c reply;
        if timed then Obs.record t.sink Obs.Hist.serve_request_ns (l.now - admitted_ns);
        move true
    | _ -> appended
  in
  let appended = move false in
  if (appended || writable) && pending_output c then
    write_out ~send_timeout_ns:l.send_timeout_ns ~now:l.now c;
  appended

let close_conn t l c counter =
  c.closed <- true;
  Hashtbl.remove l.conns c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Option.iter (Obs.incr t.sink) counter;
  Obs.incr t.sink C.serve_disconnects;
  (* A descriptor is free again: retry a paused accept now. *)
  l.accept_at <- 0

(* A connection's failure costs that connection only. *)
let guard t l c f =
  if not c.closed then
    try f () with
    | Conn_lost -> close_conn t l c (Some C.serve_conns_dropped)
    | e ->
        t.cfg.log (Printf.sprintf "connection failed: %s" (Printexc.to_string e));
        close_conn t l c (Some C.serve_conns_failed)

(* [Unix.select] refuses a descriptor at or above FD_SETSIZE (EINVAL). *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

let refusal =
  Protocol.error_response ~id:Protocol.Json.Null
    (Kmm_error.Overloaded "too many connections: descriptor beyond the event loop's select limit")
  ^ "\n"

let accept_conns t l =
  let rec go budget =
    if budget > 0 then
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          if selectable fd then begin
            Hashtbl.replace l.conns fd (new_conn fd);
            Obs.incr t.sink C.serve_connections
          end
          else begin
            (try ignore (Unix.write_substring fd refusal 0 (String.length refusal))
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Obs.incr t.sink C.serve_conns_refused
          end;
          go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> go (budget - 1)
      | exception Unix.Unix_error _ ->
          (* EMFILE, ENFILE, ENOBUFS, ENOMEM: the pending client stays
             in the backlog.  Leave the listener out of [select] until a
             connection closes or the back-off passes, instead of
             spinning on its readiness. *)
          Obs.incr t.sink C.serve_accept_errors;
          l.accept_at <- l.now + accept_backoff_ns
  in
  go 16

let close_listener t l =
  if l.listening then begin
    l.listening <- false;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* Whether the loop polls at [now] rather than sleeping in [select]:
   a reply was written at [replied] less than [poll_ns] ago, the last
   gap from a reply to a readable connection was shorter than that, no
   worker is busy, the queue is empty, no stop was requested and no
   timer is due ([next] is the earliest one, the tick included). *)
let should_poll ~gap ~busy ~queue_empty ~stopping ~replied ~next ~now =
  gap < poll_ns && busy = 0 && queue_empty && (not stopping) && now < next
  && now < replied + poll_ns

(* Poll the round's descriptors with zero-timeout [select]s while
   [should_poll] holds: [Some] the ready ones, or [None] if it ended
   without any or never started.  The queue is locked only once the
   rest of the rule holds; only the loop adds to it, so it stays empty
   while the loop polls.  Each turn yields the domain to
   a thread waiting for it (a scrape, the signal loop): a syscall alone
   hands it over only if that thread wins the race for it.  The rule is
   checked at the instant read before each [select], so a [select] that
   had to wait for the domain past the window gets one more look. *)
let poll t l rd wr ~next =
  let keep now =
    should_poll ~gap:l.gap ~busy:(Atomic.get t.busy) ~queue_empty:true ~stopping:(stopping t)
      ~replied:l.replied ~next ~now
  in
  let start = Obs.Clock.now_ns () in
  if not (keep start && Mutex.protect t.qm (fun () -> Queue.is_empty t.queue)) then None
  else begin
    let rec go now =
      match Unix.select rd wr [] 0. with
      | [], [], _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
          if keep now then begin
            Thread.yield ();
            go (Obs.Clock.now_ns ())
          end
          else None
      | r, w, _ ->
          Obs.incr t.sink C.serve_poll_hits;
          Some (r, w)
    in
    let ready = go start in
    l.now <- Obs.Clock.now_ns ();
    Obs.add t.sink C.serve_poll_ns (l.now - start);
    ready
  end

(* One round: poll or wait for readiness, then take completions, accept,
   read, parse and admit, write, and retire finished connections. *)
let round t l pipe_buf =
  let rd, wr, due = watch t l in
  let next = min due (l.now + tick_ns) in
  let readable, writable =
    match poll t l rd wr ~next with
    | Some ready -> ready
    | None -> (
        (* A stop the poll saw opens the drain now, not at the tick. *)
        let wait = if stopping t && l.drain_end = max_int then 0 else max 0 (next - l.now) in
        match Unix.select rd wr [] (float_of_int wait /. 1e9) with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], []))
  in
  let woke = Obs.Clock.now_ns () in
  l.now <- woke;
  Obs.incr t.sink C.serve_io_wakeups;
  if l.replied <> no_reply && List.exists (fun fd -> Hashtbl.mem l.conns fd) readable then begin
    l.gap <- woke - l.replied;
    l.replied <- no_reply
  end;
  if List.mem t.wake_r readable then begin
    (try ignore (Unix.read t.wake_r pipe_buf 0 (Bytes.length pipe_buf)) with Unix.Unix_error _ -> ());
    Atomic.set t.wake_pending false;
    Mutex.lock t.dm;
    let completed = t.completed in
    t.completed <- [];
    Mutex.unlock t.dm;
    List.iter
      (fun (s, reply, ok) ->
        s.reply <- Some reply;
        s.timed <- ok)
      completed
  end;
  if l.listening && List.mem t.listen_fd readable then accept_conns t l;
  List.iter
    (fun fd ->
      match Hashtbl.find_opt l.conns fd with
      | Some c -> guard t l c (fun () -> read_in c)
      | None -> ())
    readable;
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) l.conns [] in
  List.iter (fun c -> guard t l c (fun () -> take_frames t l c)) conns;
  admit t l;
  l.now <- Obs.Clock.now_ns ();
  (* The reply instant is read before the writes: a loop delayed after
     them must not shorten the gap it measures next. *)
  let flushed_at = l.now and replied = ref false in
  List.iter
    (fun c ->
      guard t l c (fun () -> if flush t l c ~writable:(List.mem c.fd writable) then replied := true))
    conns;
  (* One instant after the writes serves the close pass and the next
     [watch], so a drain window cannot end between them unseen. *)
  l.now <- Obs.Clock.now_ns ();
  let drain_over = l.now >= l.drain_end in
  List.iter
    (fun c ->
      if not c.closed then
        if pending_output c then begin
          if l.now >= c.stall_at then close_conn t l c (Some C.serve_conns_stalled)
        end
        else if
          Queue.is_empty c.slots
          && ((c.eof && c.ipos = c.ilen) || (drain_over && c.scanned = c.ilen))
        then close_conn t l c None)
    conns;
  if !replied then l.replied <- flushed_at;
  Obs.add t.sink C.serve_io_busy_ns (l.now - woke)

(* Run rounds until a stop was seen and every connection is closed.  A
   stop closes the listener and opens the drain window, anchored at the
   stop instant: admitted queries are still answered, frames read within
   the window get typed [Overloaded] refusals, and once the window has
   passed each connection closes at a frame boundary as soon as the
   replies it is owed are written. *)
let event_loop t =
  let l =
    {
      conns = Hashtbl.create 16;
      send_timeout_ns = int_of_float (t.cfg.send_timeout *. 1e9);
      listening = true;
      accept_at = 0;
      drain_end = max_int;
      admitted = [];
      now = Obs.Clock.now_ns ();
      sender = None;
      streak = 0;
      replied = no_reply;
      gap = 0;
      scratch = Obs.create ~trace:t.cfg.trace ();
    }
  in
  let pipe_buf = Bytes.create 64 in
  let rec go () =
    if stopping t && l.drain_end = max_int then begin
      l.drain_end <- Atomic.get t.stop_ns + drain_window_ns;
      close_listener t l
    end;
    if not (stopping t && Hashtbl.length l.conns = 0) then begin
      round t l pipe_buf;
      go ()
    end
  in
  (match go () with
  | () -> ()
  | exception e ->
      t.cfg.log (Printf.sprintf "event loop failed: %s" (Printexc.to_string e));
      request_stop t;
      close_listener t l;
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) l.conns);
  (* A scrape whose connection was dropped may still be merging: it
     must not post to the pipe once [stop] has closed it. *)
  while Atomic.get t.scrapes > 0 do
    Thread.delay 0.001
  done

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

let start cfg index =
  (* The event loop's domain counts against the runtime's limit too. *)
  if cfg.domains < 1 || cfg.domains >= Core.Work_pool.max_domains then
    invalid_arg
      (Printf.sprintf "Server.start: domains must be in 1..%d"
         (Core.Work_pool.max_domains - 1));
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
  (* Build what the default engine builds once (bidir's prefix table)
     before the daemon accepts, so no first query pays for it. *)
  Kmismatch.prepare Kmismatch.default_engine index;
  (* A disconnecting client must never kill the daemon: writes to a dead
     peer report EPIPE instead of raising the default-fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  claim_socket_path cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let wake_r, wake_w =
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen listen_fd backlog;
      Unix.set_nonblock listen_fd;
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      if not (selectable listen_fd && selectable r) then begin
        Unix.close r;
        Unix.close w;
        failwith "no descriptor below FD_SETSIZE left for the event loop"
      end;
      (r, w)
    with
    | fds -> fds
    | exception e -> (
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        match e with
        | Unix.Unix_error _ | Sys_error _ | Failure _ -> Kmm_error.raise_error (Kmm_error.Io e)
        | e -> raise e)
  in
  let t =
    {
      cfg;
      index;
      listen_fd;
      workers =
        Array.init cfg.domains (fun _ ->
            { wm = Mutex.create (); wsink = Obs.create ~trace:cfg.trace () });
      worker_domains = [||];
      loop = None;
      qm = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      dm = Mutex.create ();
      completed = [];
      wake_r;
      wake_w;
      wake_pending = Atomic.make false;
      scrapes = Atomic.make 0;
      busy = Atomic.make 0;
      loop_exited = false;
      sink = Obs.create ~trace:cfg.trace ();
      stop_ns = Atomic.make 0;
      stopped = Atomic.make false;
    }
  in
  Obs.set_taps true;
  t.worker_domains <- Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) t.workers;
  t.loop <- Some (Thread.create event_loop t);
  cfg.log
    (Printf.sprintf "listening on %s (%d bp index, %d domain%s)" cfg.socket_path
       (Kmismatch.length index) cfg.domains
       (if cfg.domains = 1 then "" else "s"));
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    request_stop t;
    (* Wake the loop so it opens the drain window now.  The workers
       serve until it has exited, since a lone query it cut may still
       reach the queue; then they drain the queue and leave. *)
    wake t;
    Option.iter Thread.join t.loop;
    Mutex.protect t.qm (fun () ->
        t.loop_exited <- true;
        Condition.broadcast t.qcv);
    Array.iter Domain.join t.worker_domains;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    Obs.set_taps false;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    t.cfg.log "stopped (drained)"
  end

let serve ?trace_out ?metrics_out cfg index =
  let t = start cfg index in
  let install sg = Sys.signal sg (Sys.Signal_handle (fun _ -> request_stop t)) in
  let old_int = install Sys.sigint in
  let old_term = install Sys.sigterm in
  let finish () =
    stop t;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    let snap = collect ~trace:cfg.trace t in
    Option.iter (Obs.write_chrome_trace ~process_name:"kmm-serve" snap) trace_out;
    Option.iter (Obs.write_prometheus snap) metrics_out
  in
  Fun.protect ~finally:finish (fun () ->
      while not (stopping t) do
        try Thread.delay 0.1
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      cfg.log "stop requested; draining")
