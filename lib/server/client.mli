(** Client-side helpers over the {!Protocol} wire format — used by
    [kmm client], the serve bench and the tests; reachable as
    {!Server.Client}.

    Blocking, one request/response at a time per connection.  The
    daemon itself pipelines: a peer may write many frames before reading
    any reply, and the replies come back in frame order, each echoing
    its frame's [id] (see {!Server}).  This client simply does not use
    that. *)

type c

val connect : ?timeout:float -> string -> c
(** Connect to a daemon's socket path.  Raises [Unix.Unix_error] if
    nothing is listening.  [timeout] (seconds) bounds the connect
    itself (surfacing as [Unix_error (ETIMEDOUT, "connect", _)]) and
    becomes the per-reply read budget and per-send budget of the
    connection; without it every operation blocks indefinitely. *)

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
