(** [kmm serve]: a long-running k-mismatch query daemon over a Unix
    domain socket.

    The daemon loads one immutable {!Core.Corpus.t} at startup — a
    monolithic index or a sharded manifest, optionally mmap'd — and
    answers {!Protocol} frames from any number of concurrent clients.  Each connection is served by a lightweight thread that
    reads frames, admits them against the configured {!Protocol.limits}
    and enqueues admitted queries on a shared batcher; a dispatcher
    thread drains the queue in batches of at most [batch_max] and fans
    each batch out across a {!Core.Work_pool} of [domains] OCaml
    domains.  Results come back {!Core.Kmismatch.Response}-shaped;
    every failure — malformed frame, limit violation, invalid pattern,
    even an engine bug — is answered as a typed {!Kmm_error} frame on
    that one connection.  The daemon itself never crashes on input.

    {2 Failure and signal model}

    - [SIGPIPE] is ignored at {!start}: a client that disconnects
      mid-response surfaces as [EPIPE]/[ECONNRESET] on the write, which
      is accounted as a per-connection drop ([serve.conns_dropped]) and
      closes only that connection.
    - A client that stops {e reading} cannot wedge its connection
      thread: every response send carries a whole-response budget
      ([send_timeout]), enforced with [SO_SNDTIMEO]-paced partial
      writes; on expiry the connection is dropped and counted as
      [serve.conns_stalled].
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
    - [SIGINT]/[SIGTERM] (installed by {!serve}) request a clean drain:
      the listener stops accepting, queued queries are still answered,
      frames a client already pipelined are answered with typed
      [Overloaded] refusals ("shutting down"), as are frames that
      arrive within one read tick (250 ms) of the stop, every connection
      thread then exits at its next frame boundary, worker domains are
      joined, and the socket file is unlinked.
    - A connection that ends mid-frame (truncated frame) is answered
      with a typed rejection if the peer can still read, then closed.

    {2 Observability}

    The server owns an always-active {!Obs} sink (mutex-guarded; worker
    domains record into per-batch forks merged back in worker order).
    Counters: [serve.connections], [serve.disconnects],
    [serve.conns_dropped], [serve.conns_stalled], [serve.requests],
    [serve.queries], [serve.rejected], [serve.shed], [serve.timeouts],
    [serve.errors], [serve.truncated], [serve.hits].  Histograms:
    [serve.request_ns] (admission to response write),
    [serve.batch_size], plus the {!Core.Work_pool} [pool.*] metrics and
    per-query [engine.*]/[fm.*] counters.  The whole sink is exported
    live over the wire by the [metrics] command in Prometheus text
    format. *)

type config = {
  socket_path : string;  (** where to bind ([AF_UNIX]) *)
  domains : int;  (** {!Core.Work_pool} size for query execution *)
  batch_max : int;  (** most queries drained into one pool batch *)
  max_queue : int;
      (** bound on the admission queue; beyond it queries shed with a
          typed [Overloaded] reply *)
  backlog : int;  (** [listen] backlog *)
  limits : Protocol.limits;  (** per-request admission limits *)
  send_timeout : float;
      (** whole-response send budget in seconds; a client that fails to
          drain a response within it is dropped ([serve.conns_stalled]) *)
  trace : bool;  (** buffer Chrome trace events in the sink *)
  log : string -> unit;  (** daemon log lines; [ignore] silences *)
}

val default_config : socket_path:string -> config
(** [domains = Work_pool.default_domains ()], [batch_max = 64],
    [max_queue = 1024], [backlog = 64],
    [limits = Protocol.default_limits], [send_timeout = 10.0],
    [trace = false], [log = ignore]. *)

type t

val max_socket_path : int
(** Longest accepted [socket_path] in bytes (107: Linux [sun_path] is
    108 including the NUL).  A longer path is refused by {!start} as
    [Kmm_error.Error (Bad_input _)] naming the limit, instead of
    surfacing as a raw [Unix_error] from [bind]. *)

val start : config -> Core.Corpus.t -> t
(** Bind the socket and spawn the acceptor and dispatcher; returns once
    the daemon is accepting.  If the socket path is already bound by a
    live daemon, raises [Kmm_error.Error (Io _)]; a stale socket file
    left by a crashed process is replaced; a path longer than
    {!max_socket_path} raises [Kmm_error.Error (Bad_input _)].
    @raise Kmm_error.Error on socket setup failure. *)

val request_stop : t -> unit
(** Ask the daemon to drain and stop.  Async-signal-safe (sets a flag);
    actual teardown happens in {!stop} (or the {!serve} loop).  *)

val stopping : t -> bool
(** Whether a stop has been requested (by {!request_stop}, a signal, or
    a client [shutdown] command). *)

val stop : t -> unit
(** Drain and stop: stop accepting, answer everything already queued,
    join every thread and worker domain, close and unlink the socket.
    Idempotent; safe after {!request_stop}. *)

val metrics_text : t -> string
(** A live Prometheus exposition of the server sink (what the [metrics]
    wire command returns). *)

val serve :
  ?trace_out:string -> ?metrics_out:string -> config -> Core.Corpus.t -> unit
(** The blocking CLI entry point: {!start}, install [SIGINT]/[SIGTERM]
    handlers that {!request_stop}, wait, then {!stop} — and on the way
    out write the sink as a Chrome trace and/or Prometheus file when
    the paths are given.  Signal dispositions are restored on exit. *)

(** Client-side helpers over the same wire protocol — used by
    [kmm client], the serve bench and the tests.  Blocking; one
    request/response at a time per connection (the protocol itself
    allows pipelining via [id]). *)
module Client : sig
  type c

  val connect : ?timeout:float -> string -> c
  (** Connect to a daemon's socket path.  Raises [Unix.Unix_error] if
      nothing is listening.  [timeout] (seconds) bounds the connect
      itself (surfacing as [Unix_error (ETIMEDOUT, "connect", _)]) and
      becomes the per-reply read budget and per-send budget of the
      connection; without it every operation blocks indefinitely, as
      before. *)

  val try_connect : ?timeout:float -> string -> (c, Kmm_error.t) result
  (** {!connect} with the failure as a value: a refused, missing or
      timed-out socket comes back as [Error (Io _)] whose message names
      the path, the OS error and the "is kmm serve running?" hint. *)

  val close : c -> unit

  val send_line : c -> string -> unit
  (** Send one raw frame (the newline is appended here). *)

  val recv_line : c -> string option
  (** Next response frame, [None] on EOF.  With a connect [timeout] set,
      raises {!Read_timed_out} once a reply has taken longer than that
      budget. *)

  exception Read_timed_out

  val rpc : c -> string -> (Protocol.reply, Kmm_error.t) result
  (** [send_line] then [recv_line] then {!Protocol.parse_reply}.  Every
      failure is typed: EOF and lost connections are [Io], an exceeded
      read budget is [Timeout], a malformed reply is [Internal].  (A
      server-reported error still parses as [Ok (Error_reply _)] — it
      is a successful RPC.) *)

  val query :
    c ->
    ?id:Protocol.Json.t ->
    ?engine:Core.Kmismatch.engine ->
    ?deadline:float ->
    pattern:string ->
    k:int ->
    unit ->
    (Protocol.reply, Kmm_error.t) result
  (** [deadline] is the server-side compute budget in relative seconds
      (the wire [deadline] field) — independent of the client-side read
      [timeout], though a sensible caller sets the read timeout a bit
      above the deadline. *)

  val command : c -> string -> (Protocol.reply, Kmm_error.t) result
  (** [command c "ping"], [command c "metrics"], ... *)

  (** {2 Retry policy} *)

  val retryable : Kmm_error.t -> bool
  (** What a client may transparently retry: [Overloaded] (the server
      asked for exactly that) and connection-level [Io] (refused,
      reset, closed — no request outcome was lost that a retry would
      double-apply).  Never [Bad_input] (deterministic), never
      [Timeout] (the budget was the caller's own). *)

  val with_retry :
    ?attempts:int ->
    ?base:float ->
    ?cap:float ->
    ?seed:int ->
    (unit -> ('a, Kmm_error.t) result) ->
    ('a, Kmm_error.t) result
  (** Run [f] up to [attempts] times (default 3), sleeping a capped
      jittered exponential backoff between attempts — attempt [i]
      sleeps [min cap (base * 2^i)] scaled by a uniform factor in
      [[0.5, 1.0]] — and retrying only {!retryable} errors.  [base]
      defaults to 0.05 s, [cap] to 2 s.  [seed] pins the jitter for
      deterministic tests; without it the jitter is self-seeded. *)
end
