(* Load generator for the daemon: one thread, one [select] loop over
   its connections.

   [run_batch t qis ~connections ~depth] sends the queries [qis] (indices
   into the query pool), in order, keeping [depth] requests in flight on
   each of the first [connections] connections, and returns once every
   reply is in.  On one connection at depth 1 it times one request at a
   time: each query's round trip.  On two connections at depth 8 the
   daemon never waits for work, so the batch's wall time is what the
   daemon needs for those queries at full load.

   The daemon answers the frames of one connection in order, so each
   connection keeps a FIFO of its requests in flight; every reply must
   carry the id at the head of that FIFO, and its hits must equal the
   in-process answer to the same query. *)

module P = Kmm_server.Protocol

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* frames not yet written *)
  mutable off : int;  (* bytes of [out] already written *)
  acc : Buffer.t;  (* partial reply line *)
  inflight : (int * int * int) Queue.t;  (* seq, send instant ns, position in the batch *)
}

type t = {
  conns : conn array;
  queries : Inputs.query array;
  refs : (int * int) list array;  (* in-process answer of each query *)
  mutable seq : int;
  mutable sent : int;
  mutable failed : int;  (* replies that were error frames *)
  mutable wrong : int;  (* replies whose hits differ from [refs] *)
}

let create ~socket ~connections ~queries ~refs =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Unix.set_nonblock fd;
        {
          fd;
          out = Buffer.create 65536;
          off = 0;
          acc = Buffer.create 256;
          inflight = Queue.create ();
        })
  in
  { conns; queries; refs; seq = 0; sent = 0; failed = 0; wrong = 0 }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let flush c =
  let pending = Buffer.length c.out - c.off in
  if pending > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.off pending with
    | n ->
        c.off <- c.off + n;
        if c.off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Returns the batch's wall seconds and each query's round trip in ms,
   in batch order; a query answered with an error frame reads
   [infinity]. *)
let run_batch t qis ~connections ~depth =
  let now = Obs.Clock.now_ns in
  let conns = Array.sub t.conns 0 connections in
  let n = Array.length qis in
  let latency_ms = Array.make n infinity in
  let next = ref 0 and answered = ref 0 in
  let buf = Bytes.create 65536 in
  let send c tnow =
    let i = !next in
    let q = t.queries.(qis.(i)) in
    Buffer.add_string c.out
      (P.query_request ~id:(P.Json.Int t.seq) ~engine:q.engine ~pattern:q.pattern ~k:q.k ());
    Buffer.add_char c.out '\n';
    Queue.add (t.seq, tnow, i) c.inflight;
    t.seq <- t.seq + 1;
    t.sent <- t.sent + 1;
    incr next
  in
  let on_line c line tnow =
    match Queue.take_opt c.inflight with
    | None -> failwith "loadgen: reply without a request"
    | Some (seq, sent, i) -> (
        incr answered;
        match P.parse_reply line with
        | Ok (P.Hits { id = P.Json.Int id; hits; _ }) when id = seq ->
            if hits <> t.refs.(qis.(i)) then t.wrong <- t.wrong + 1;
            latency_ms.(i) <- float_of_int (tnow - sent) /. 1e6
        | Ok (P.Error_reply { id = P.Json.Int id; _ }) when id = seq -> t.failed <- t.failed + 1
        | _ -> failwith ("loadgen: unexpected reply: " ^ line))
  in
  let read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "loadgen: the daemon closed a connection"
    | len ->
        let tnow = now () in
        let rec lines from =
          match Bytes.index_from_opt buf from '\n' with
          | Some i when i < len ->
              Buffer.add_subbytes c.acc buf from (i - from);
              let line = Buffer.contents c.acc in
              Buffer.clear c.acc;
              on_line c line tnow;
              lines (i + 1)
          | _ -> Buffer.add_subbytes c.acc buf from (len - from)
        in
        lines 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let t0 = now () in
  let last_progress = ref t0 in
  while !answered < n do
    let tnow = now () in
    Array.iter (fun c -> while !next < n && Queue.length c.inflight < depth do send c tnow done) conns;
    Array.iter flush conns;
    let fds f = Array.fold_left (fun acc c -> if f c then c.fd :: acc else acc) [] conns in
    let before = !answered in
    (match
       Unix.select
         (fds (fun c -> not (Queue.is_empty c.inflight)))
         (fds (fun c -> Buffer.length c.out > c.off))
         [] 1.0
     with
    | readable, _, _ -> Array.iter (fun c -> if List.mem c.fd readable then read c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if !answered > before then last_progress := now ()
    else if now () - !last_progress > 30_000_000_000 then failwith "loadgen: no reply from the daemon for 30 s"
  done;
  (float_of_int (now () - t0) /. 1e9, latency_ms)
