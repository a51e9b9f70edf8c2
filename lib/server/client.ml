(* Client side of the kmm wire protocol: blocking, one request/response
   at a time per connection.  See client.mli. *)

exception Conn_lost
(* The daemon vanished mid-write (EPIPE with SIGPIPE ignored, or reset). *)

exception Conn_stalled
(* The daemon stopped draining its socket: the whole-send budget expired
   with bytes still unwritten. *)

(* Write the whole string, or raise.  [deadline] bounds the {e total}
   send — it is re-checked around every partial write, so a peer that
   drains one socket buffer per [SO_SNDTIMEO] tick cannot stretch one
   send forever.  [EAGAIN] here means the send timeout expired with the
   buffer still full; we keep retrying only while the budget lasts. *)
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

(* --- buffered reply reader ------------------------------------------ *)

module Line_reader = struct
  type event =
    | Line of string  (** one complete frame, newline stripped *)
    | Timeout  (** [SO_RCVTIMEO] expired — re-check the reply budget *)
    | Eof

  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    acc : Buffer.t;  (* the frame being accumulated *)
    lines : string Queue.t;
    mutable eof : bool;
  }

  let create fd =
    { fd; buf = Bytes.create 8192; acc = Buffer.create 256; lines = Queue.create (); eof = false }

  let push_line t =
    let line = Buffer.contents t.acc in
    Buffer.clear t.acc;
    (* Tolerate CRLF peers. *)
    let n = String.length line in
    Queue.add (if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line) t.lines

  let rec next t =
    match Queue.take_opt t.lines with
    | Some l -> Line l
    | None ->
        if t.eof then Eof
        else begin
          match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
          | 0 ->
              t.eof <- true;
              Eof
          | n ->
              for i = 0 to n - 1 do
                let c = Bytes.get t.buf i in
                if c = '\n' then push_line t else Buffer.add_char t.acc c
              done;
              next t
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              Timeout
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
              t.eof <- true;
              Eof
        end
end

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
    match Line_reader.next c.reader with
    | Line_reader.Line l -> Some l
    | Line_reader.Timeout ->
        (* SO_RCVTIMEO tick (only set when a timeout was requested):
           re-check the whole-reply budget and keep waiting. *)
        if Deadline.expired deadline then raise Read_timed_out else go ()
    | Line_reader.Eof -> None
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

(* --- retry policy ----------------------------------------------------- *)

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
