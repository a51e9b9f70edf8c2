(** [kmm serve]: a long-running k-mismatch query daemon over a Unix
    domain socket.

    The daemon serves one immutable {!Core.Kmismatch.index}, loaded by
    copy or mmap'd, and answers {!Protocol} frames from any number of concurrent clients.
    All socket I/O runs in one event loop, a single [select] over the
    listener, every connection and a self-pipe, on the domain that
    called {!start}.  The loop reads whatever bytes a connection has,
    splits them into frames and admits every complete frame at once
    against the configured {!Protocol.limits}, so one connection may
    have many queries in flight.  Admitted queries go onto one shared
    admission queue.  [domains] worker domains each pull one query at a
    time straight off the queue, run it, encode its reply and hand the
    reply back to the loop, which writes each connection's replies in
    frame order, several at once in one write.  A worker never touches
    a socket.

    The loop has one bounded duty beyond I/O.  When a round admits
    exactly one query, from a connection that has sent the last
    {!solo_streak} queries the daemon read, the queue is empty, no
    worker is running a query and no stop was requested, the loop
    answers that query itself,
    through the same code the workers run, and saves the two
    cross-domain hand-offs (a parked worker's wake-up, and the reply's
    trip back through the self-pipe).  It runs the search under a
    budget of 50 µs ({!Deadline.with_budget}; every registered engine
    polls its deadline in its hot loops), renewed while the loop has
    nothing else to do: no descriptor it watches ready, no timer due
    and no stop requested.  Once it has, the search is cut by its own
    polls, its partial work and counts are discarded, and it is queued
    with its own deadline like any other query.  So the loop answers
    other connections at most 50 µs plus one {!Deadline.poll_stride}
    late, a lone client's long query costs no extra hand-off, and a
    burst, a busy pool, interleaving clients or a draining daemon take
    the queue as before.  Inline searches run on
    the domain that called {!start}, with that domain's ambient
    deadline and sink slots and its engines' per-domain scratch: no
    other thread may run a search on that domain while the daemon runs.
    The daemon's own other threads (the [metrics] scrapes and {!serve}'s
    signal loop) never do.
    Results come back {!Core.Kmismatch.Response}-shaped; every failure —
    malformed frame, limit violation, invalid pattern, even an engine
    bug — is answered as a typed {!Kmm_error} frame in that frame's
    place on that one connection.  The daemon itself never crashes on
    input.

    {2 Failure and signal model}

    - [SIGPIPE] is ignored at {!start}: a client that disconnects
      mid-response surfaces as [EPIPE]/[ECONNRESET] on the write, which
      is accounted as a per-connection drop ([serve.conns_dropped]) and
      closes only that connection.
    - A client that stops {e reading} costs only its own connection.
      Connections are non-blocking; while a socket refuses writes the
      loop reads no further frames from it (backpressure), and output
      that has not fully drained within [send_timeout] of the first
      refused write drops the connection ([serve.conns_stalled]).  The
      workers never wait on a socket.
    - One connection may have at most 64 frames in flight (read but not
      yet answered on the wire); past that the loop leaves its input
      unread until replies drain.  No polite client notices; it bounds
      the reply memory one pipelining client can pin.
    - The admission queue is bounded at [max_queue]: a query arriving
      with the queue full is answered immediately with a typed
      [Overloaded] frame (exit code 10 — retryable with backoff, and
      the bundled clients do) instead of growing the queue without
      limit.  Shed queries cost no search work.
    - Per-request deadlines: a query frame may carry a relative
      [deadline] budget (seconds).  It is anchored to the monotonic
      clock at admission, spent by queue wait and search alike, and
      enforced cooperatively by the engines' [Deadline.poll]
      checkpoints; expiry answers a typed [Timeout] frame (exit code 9)
      with all partial work discarded.  Queries that expire while still
      queued are answered without running at all.
    - [accept] failing for want of descriptors or kernel memory
      ([EMFILE], [ENFILE], ...) is counted as [serve.accept_errors]; the
      loop leaves the listener alone until a connection closes or a
      50 ms back-off passes, and keeps serving.  The pending client is
      accepted later.
    - [select] cannot watch a descriptor at or above [FD_SETSIZE]
      (1024), so the daemon serves at most about 1020 connections at
      once, however high [ulimit -n] is.  A connection accepted on such
      a descriptor gets one typed [Overloaded] frame and is closed
      ([serve.conns_refused]).
    - [SIGINT]/[SIGTERM] (installed by {!serve}) request a clean drain.
      It is one window of 250 ms, anchored at the stop instant: the
      listener closes, admitted queries are still answered, frames parsed
      after the stop and within the window (pipelined behind it or late)
      are answered with typed [Overloaded] refusals ("shutting down"), and once the window has
      passed each connection closes at a frame boundary as soon as the
      replies it is owed are written.  Worker domains are joined once
      the loop has exited and the queue is empty, and the socket file
      is unlinked.
    - An engine exception answers its own query with a typed [Internal]
      frame; the worker domain (or the loop) that ran it keeps
      serving.
    - A connection that ends mid-frame (truncated frame) is answered
      with a typed rejection if the peer can still read, then closed.

    {2 Observability}

    The server owns always-active {!Obs} sinks: the event loop's own and
    one per worker domain behind its own mutex, all alive as long as the
    server.  A worker records each query into its own sink; nothing is
    merged on a worker's query path.  The loop records a lone query into
    a scratch sink of its own and merges it into its sink once the query
    is answered, so an attempt it cuts leaves no trace.  Readers — the [metrics] command and the
    {!serve} exit taps — merge them all into a fresh sink.  A
    worker's sink can be read only between its queries, so the
    [metrics] command copies the loop's sink and leaves the workers'
    to a short-lived thread; its reply waits for the running queries,
    but the loop, and every other connection, do not.
    Counters: [serve.connections], [serve.disconnects],
    [serve.conns_dropped], [serve.conns_stalled], [serve.conns_failed],
    [serve.conns_refused], [serve.accept_errors], [serve.requests],
    [serve.queries] (answered on a worker or on the loop),
    [serve.rejected], [serve.shed], [serve.timeouts], [serve.errors],
    [serve.truncated], [serve.hits], [serve.inline] (queries the loop
    answered), [serve.inline_cut] (lone queries the loop cut for other
    work and queued), and the loop's [serve.io_wakeups] (returns from
    [select]) and [serve.io_busy_ns] (time spent outside [select], inline
    searches included); the worker loop bumps [pool.tasks].
    Histograms ({!Obs.Hist}): [serve.request_ns] (admission to the
    reply handed to the write), and, once per answered query on a
    worker or on the loop, [serve.batch_size] (queries per hand-off:
    always 1), [pool.queue_wait_ns] (admission to the pull or the
    loop's start) and [pool.task_ns] (the run).  Per query, the
    [query_ns] histogram, the engine's histograms and [engine.*]
    counters, and the [fm.*]/[verify.*] taps,
    armed from {!start} to {!stop}.  The whole sink is exported
    live over the wire by the [metrics] command in Prometheus text
    format. *)

type config = {
  socket_path : string;  (** where to bind ([AF_UNIX]) *)
  domains : int;  (** worker domains running queries *)
  max_queue : int;
      (** bound on the admission queue; beyond it queries shed with a
          typed [Overloaded] reply *)
  limits : Protocol.limits;  (** per-request admission limits *)
  send_timeout : float;
      (** whole-response send budget in seconds; a client that fails to
          drain a response within it is dropped ([serve.conns_stalled]) *)
  trace : bool;  (** buffer Chrome trace events in the sink *)
  log : string -> unit;  (** daemon log lines; [ignore] silences *)
}

val default_config : socket_path:string -> config
(** [domains = Core.Work_pool.default_domains ()] (at most
    [Core.Work_pool.max_domains - 1]),
    [max_queue = 1024],
    [limits = Protocol.default_limits], [send_timeout = 10.0],
    [trace = false], [log = ignore]. *)

type t

val max_socket_path : int
(** Longest accepted [socket_path] in bytes (107: Linux [sun_path] is
    108 including the NUL).  A longer path is refused by {!start} as
    [Kmm_error.Error (Bad_input _)] naming the limit, instead of
    surfacing as a raw [Unix_error] from [bind]. *)

val solo_streak : int
(** How many queries in a row (3) a connection must have sent, with no
    other connection's query in between, before the event loop answers
    its lone query itself. *)

val start : config -> Core.Kmismatch.index -> t
(** Run the registry [prepare] of {!Core.Kmismatch.default_engine} on the
    index (bidir's prefix table), so no query pays for that one-off
    build; then bind the socket and spawn the event loop and the worker
    domains.  Returns once the daemon is accepting.  If the socket path is already bound by a
    live daemon, raises [Kmm_error.Error (Io _)]; a stale socket file
    left by a crashed process is replaced; a path longer than
    {!max_socket_path} raises [Kmm_error.Error (Bad_input _)].
    @raise Invalid_argument before binding anything if [domains] is
    outside [1 .. Core.Work_pool.max_domains - 1] (the event loop's
    domain counts too), or [max_queue < 1], or [send_timeout <= 0].
    @raise Kmm_error.Error on socket setup failure. *)

val request_stop : t -> unit
(** Ask the daemon to drain and stop.  Async-signal-safe (one atomic
    store, which also records the stop instant the drain window is
    anchored at); the event loop notices within 100 ms, and actual
    teardown happens in {!stop} (or the {!serve} loop).  *)

val stopping : t -> bool
(** Whether a stop has been requested (by {!request_stop}, a signal, or
    a client [shutdown] command). *)

val stop : t -> unit
(** Drain and stop: stop accepting, answer everything already queued,
    join the event loop and every worker domain, close and unlink the
    socket.  Idempotent; safe after {!request_stop}. *)

val serve :
  ?trace_out:string -> ?metrics_out:string -> config -> Core.Kmismatch.index -> unit
(** The blocking CLI entry point: {!start}, install [SIGINT]/[SIGTERM]
    handlers that {!request_stop}, wait, then {!stop} — and on the way
    out write every sink, merged, as a Chrome trace and/or
    Prometheus file when the paths are given.  Signal dispositions are restored on exit. *)

module Client = Client
(** The blocking client library ({!Client}), under its historical path. *)
