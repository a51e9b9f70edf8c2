(* Chaos suite: deadlines, cancellation and overload protection under
   deliberately hostile conditions.

   Three layers:

   - the [Deadline] / [Work_pool ?cancel] / [Mapper] cancellation
     machinery in isolation (no sockets, fully deterministic);
   - a live daemon driven to its typed failure modes on purpose:
     admission-queue sheds (code 10), queued and mid-search deadline
     expiry (code 9), and recovery after each;
   - [Fault.Socket] misbehaving clients — dribbled frames, mid-frame
     disconnects, and a reader that never reads while a megabyte-sized
     response is in flight — each of which must cost at most its own
     connection, never the daemon.

   Timing-dependent scenarios (overload needs the pool to still be busy
   when the excess arrives) run under [retry_once] with generous
   budgets: a single spurious scheduling stall on a loaded CI box gets
   one clean re-run, a real regression fails twice and the suite with
   it. *)

module P = Kmm_server.Protocol
module S = Kmm_server.Server
module J = P.Json
module K = Core.Kmismatch
module F = Core.Fault

(* One clean re-run for scenarios whose setup depends on wall-clock
   overlap (an occupying query still running when the probe arrives). *)
let retry_once name f =
  try f ()
  with e ->
    Printf.eprintf "chaos: %s failed once (%s), retrying\n%!" name
      (Printexc.to_string e);
    f ()

(* --- fixture: a 100k bp index ---------------------------------------- *)

let random_text ~st n =
  String.init n (fun _ -> "acgt".[Random.State.int st 4])

let text =
  let st = Random.State.make [| 0xc4a05 |] in
  random_text ~st 100_000

let index = lazy (K.build_index text)

(* ~190 ms of m-tree work on the fixture and a tiny response: the
   occupier that keeps the pool busy while probes arrive. *)
let slow_pattern = String.concat "" (List.init 10 (fun _ -> "acgt"))
let slow_k = 16

(* Matches (within k=3) everywhere: ~100k hits, a ~1 MB response frame —
   far past any AF_UNIX buffering, so a peer that never reads forces the
   server's send to block. *)
let wide_pattern = "acgt"
let wide_k = 3

let with_server ?(domains = 2) ?max_queue ?send_timeout f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-chaos-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let base = S.default_config ~socket_path:path in
  let cfg =
    {
      base with
      domains;
      max_queue = Option.value max_queue ~default:base.max_queue;
      send_timeout = Option.value send_timeout ~default:base.send_timeout;
    }
  in
  let t = S.start cfg (Core.Corpus.mono (Lazy.force index)) in
  Fun.protect ~finally:(fun () -> S.stop t) (fun () -> f t path)

let expect_hits name = function
  | Ok (P.Hits { hits; _ }) -> hits
  | Ok (P.Error_reply { code; message; _ }) ->
      Alcotest.fail (Printf.sprintf "%s: error %d: %s" name code message)
  | Ok _ -> Alcotest.fail (name ^ ": unexpected reply shape")
  | Error e -> Alcotest.fail (name ^ ": " ^ Kmm_error.to_string e)

let metric_value text name =
  (* Prometheus exposition: "kmm_<name> <value>" somewhere in [text]. *)
  let needle = "kmm_" ^ name ^ " " in
  let n = String.length text and l = String.length needle in
  let rec scan i =
    if i + l > n then None
    else if String.sub text i l = needle then begin
      (* skip "# TYPE kmm_x counter" lines: keep scanning when what
         follows the name is not a number *)
      let j = ref (i + l) in
      let start = !j in
      while !j < n && text.[!j] <> '\n' do incr j done;
      match int_of_string_opt (String.trim (String.sub text start (!j - start))) with
      | Some v -> Some v
      | None -> scan (i + 1)
    end
    else scan (i + 1)
  in
  scan 0

let server_metric c name =
  match S.Client.command c "metrics" with
  | Ok (P.Ok_obj { fields; _ }) -> (
      match List.assoc_opt "metrics" fields with
      | Some (J.String s) -> Option.value (metric_value s name) ~default:0
      | _ -> 0)
  | _ -> 0

(* --- deadline primitives --------------------------------------------- *)

let deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "none is none" true (Deadline.is_none Deadline.none);
  let d = Deadline.after 0.005 in
  Alcotest.(check bool) "fresh budget not expired" false (Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true (Deadline.remaining_s d > 0.);
  Thread.delay 0.01;
  Alcotest.(check bool) "spent budget expired" true (Deadline.expired d);
  Alcotest.(check bool) "remaining goes negative once expired" true
    (Deadline.remaining_ns d < 0)

let deadline_ambient_poll () =
  (* [poll] must trip inside a spin once the ambient budget is gone —
     and must be free of both clock reads and raises when no ambient
     deadline is set. *)
  for _ = 1 to 10 * Deadline.poll_stride do
    Deadline.poll () (* no ambient deadline: must never raise *)
  done;
  let tripped =
    Deadline.with_ambient (Deadline.after 0.002) (fun () ->
        Thread.delay 0.005;
        try
          for _ = 1 to 100 * Deadline.poll_stride do
            Deadline.poll ()
          done;
          false
        with Deadline.Expired -> true)
  in
  Alcotest.(check bool) "poll raises in a spin after expiry" true tripped;
  Alcotest.(check bool) "ambient restored to none" true
    (Deadline.is_none (Deadline.ambient ()));
  (* [check] is the unstrided variant: first call after expiry raises. *)
  let checked =
    Deadline.with_ambient (Deadline.after 0.001) (fun () ->
        Thread.delay 0.003;
        try
          Deadline.check ();
          false
        with Deadline.Expired -> true)
  in
  Alcotest.(check bool) "check raises immediately" true checked

let pool_cancel_all () =
  (* A cancel that is already true skips every body: no work, typed
     [Cancelled] after the drain. *)
  Core.Work_pool.with_pool ~domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      match
        Core.Work_pool.run ~cancel:(fun () -> true) pool ~tasks:16
          (fun ~worker:_ ~task:_ -> Atomic.incr ran)
      with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Core.Work_pool.Cancelled ->
          Alcotest.(check int) "no body ran" 0 (Atomic.get ran))

let pool_cancel_midway () =
  (* Sequential pool (domains = 1 runs tasks inline, in order): cancel
     flips after 3 completions, so exactly 3 bodies run. *)
  Core.Work_pool.with_pool ~domains:1 (fun pool ->
      let ran = ref 0 in
      match
        Core.Work_pool.run
          ~cancel:(fun () -> !ran >= 3)
          pool ~tasks:10
          (fun ~worker:_ ~task:_ -> incr ran)
      with
      | () -> Alcotest.fail "expected Cancelled"
      | exception Core.Work_pool.Cancelled ->
          Alcotest.(check int) "exactly 3 bodies ran" 3 !ran);
  (* ...and a cancel that never fires leaves the job untouched. *)
  Core.Work_pool.with_pool ~domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      Core.Work_pool.run ~cancel:(fun () -> false) pool ~tasks:10
        (fun ~worker:_ ~task:_ -> Atomic.incr ran);
      Alcotest.(check int) "all bodies ran" 10 (Atomic.get ran))

let pool_task_failed_wins () =
  (* A failing task takes precedence over a cancellation observed in the
     same job: the submitter must see the bug, not the benign cut. *)
  Core.Work_pool.with_pool ~domains:1 (fun pool ->
      let ran = ref 0 in
      match
        Core.Work_pool.run
          ~cancel:(fun () -> !ran >= 2)
          pool ~tasks:6
          (fun ~worker:_ ~task ->
            incr ran;
            if task = 1 then failwith "boom")
      with
      | () -> Alcotest.fail "expected Task_failed"
      | exception Core.Work_pool.Task_failed { task = 1; _ } -> ()
      | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e))

let reads_fixture =
  lazy
    (let st = Random.State.make [| 0xfeed |] in
     List.init 48 (fun i ->
         let len = 20 + Random.State.int st 20 in
         let pos = Random.State.int st (String.length text - len) in
         (i, String.sub text pos len)))

let mapper_expired_deadline () =
  (* A batch whose budget is already gone drains fast: every read is a
     typed Timeout skip, no hits, nothing runs. *)
  let reads = Lazy.force reads_fixture in
  let d = Deadline.after 1e-6 in
  Thread.delay 0.002;
  List.iter
    (fun domains ->
      let opts = { Core.Mapper.default with domains; deadline = d } in
      let hits, summary = Core.Mapper.run opts (Lazy.force index) ~reads ~k:2 in
      Alcotest.(check int)
        (Printf.sprintf "no hits survive (domains=%d)" domains)
        0 (List.length hits);
      Alcotest.(check int)
        (Printf.sprintf "every read skipped (domains=%d)" domains)
        (List.length reads)
        (List.length summary.Core.Mapper.skipped);
      List.iter
        (fun (_, e) ->
          match e with
          | Kmm_error.Timeout _ -> ()
          | e ->
              Alcotest.fail
                ("skip reason must be Timeout, got " ^ Kmm_error.to_string e))
        summary.Core.Mapper.skipped)
    [ 1; 3 ]

let mapper_no_deadline_unchanged () =
  (* [Deadline.none] (the default) must leave the mapper's seq=par
     byte-identity untouched — the taps-off path really is off. *)
  let reads = Lazy.force reads_fixture in
  let run domains =
    let hits, summary =
      Core.Mapper.run
        { Core.Mapper.default with domains }
        (Lazy.force index) ~reads ~k:2
    in
    (hits, Core.Mapper.deterministic_summary summary)
  in
  let h1, s1 = run 1 and h3, s3 = run 3 in
  Alcotest.(check bool) "hits byte-identical" true (h1 = h3);
  Alcotest.(check bool) "summaries identical" true (s1 = s3);
  Alcotest.(check int) "nothing skipped" 0 (List.length s1.Core.Mapper.skipped)

let query_deadline_direct () =
  let idx = Lazy.force index in
  (* Pre-expired: refused before any search work. *)
  let d = Deadline.after 1e-6 in
  Thread.delay 0.002;
  (match
     K.try_run idx
       (K.Query.make ~deadline:d ~engine:K.M_tree ~pattern:slow_pattern
          ~k:slow_k ())
   with
  | Error (Kmm_error.Timeout _) -> ()
  | Error e -> Alcotest.fail ("expected Timeout, got " ^ Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail "pre-expired deadline must not produce hits");
  (* Mid-search: a ~190 ms query on a 20 ms budget is cut by the
     engine's cooperative polls, well after the start check passes. *)
  retry_once "mid-search expiry" (fun () ->
      match
        K.try_run idx
          (K.Query.make ~deadline:(Deadline.after 0.02) ~engine:K.M_tree
             ~pattern:slow_pattern ~k:slow_k ())
      with
      | Error (Kmm_error.Timeout msg) ->
          Alcotest.(check bool) "cut during the search" true
            (let needle = "during" in
             let n = String.length msg and l = String.length needle in
             let rec scan i =
               i + l <= n && (String.sub msg i l = needle || scan (i + 1))
             in
             scan 0)
      | Error e ->
          Alcotest.fail ("expected Timeout, got " ^ Kmm_error.to_string e)
      | Ok _ -> Alcotest.fail "20 ms budget must not finish a 190 ms query");
  (* A generous budget changes nothing about the answer. *)
  let q ?deadline () =
    (K.run idx (K.Query.make ?deadline ~engine:K.M_tree ~pattern:"acgtacgt" ~k:2 ()))
      .K.Response.hits
  in
  Alcotest.(check bool) "generous deadline: identical hits" true
    (q () = q ~deadline:(Deadline.after 30.) ())

(* --- live daemon: typed overload and timeout frames ------------------- *)

let server_sheds_when_full () =
  (* Capacity one-at-a-time (1 worker domain) with a single queue
     slot, offered 8 concurrent ~130 ms queries: the excess must come
     back as immediate code-10 sheds, the rest as real hits, and the
     daemon must serve normally afterwards. *)
  retry_once "overload shed" (fun () ->
      with_server ~domains:1 ~max_queue:1 (fun _t path ->
          let hits = Atomic.make 0 and shed = Atomic.make 0 in
          let failure = Atomic.make None in
          let clients = 8 in
          let threads =
            List.init clients (fun _ ->
                Thread.create
                  (fun () ->
                    let c = S.Client.connect path in
                    Fun.protect
                      ~finally:(fun () -> S.Client.close c)
                      (fun () ->
                        match
                          S.Client.query c ~pattern:slow_pattern ~k:slow_k ()
                        with
                        | Ok (P.Hits _) -> Atomic.incr hits
                        | Ok (P.Error_reply { code = 10; _ }) ->
                            Atomic.incr shed
                        | Ok (P.Error_reply { code; message; _ }) ->
                            Atomic.set failure
                              (Some (Printf.sprintf "code %d: %s" code message))
                        | Ok _ -> Atomic.set failure (Some "bad reply shape")
                        | Error e ->
                            Atomic.set failure (Some (Kmm_error.to_string e))))
                  ())
          in
          List.iter Thread.join threads;
          (match Atomic.get failure with
          | Some m -> Alcotest.fail ("client failed: " ^ m)
          | None -> ());
          Alcotest.(check int) "every query answered" clients
            (Atomic.get hits + Atomic.get shed);
          Alcotest.(check bool) "some queries answered with hits" true
            (Atomic.get hits >= 1);
          Alcotest.(check bool) "some queries shed" true (Atomic.get shed >= 1);
          (* recovery: an idle daemon accepts and answers again *)
          let c = S.Client.connect path in
          Fun.protect
            ~finally:(fun () -> S.Client.close c)
            (fun () ->
              ignore
                (expect_hits "post-overload query"
                   (S.Client.query c ~pattern:"acgtacgt" ~k:1 ()));
              Alcotest.(check bool) "shed metric recorded" true
                (server_metric c "serve_shed" >= 1))))

let server_deadline_expires_in_queue () =
  (* One occupier holds the only domain; a 5 ms-deadline probe behind it
     must come back code 9 without ever running — and the occupier's own
     answer must be unaffected. *)
  retry_once "queued expiry" (fun () ->
      with_server ~domains:1 (fun _t path ->
          let occupier = S.Client.connect path in
          Fun.protect
            ~finally:(fun () -> S.Client.close occupier)
            (fun () ->
              S.Client.send_line occupier
                (P.query_request ~pattern:slow_pattern ~k:slow_k ());
              Thread.delay 0.05 (* let the occupier reach the pool *);
              let c = S.Client.connect path in
              Fun.protect
                ~finally:(fun () -> S.Client.close c)
                (fun () ->
                  match
                    S.Client.query c ~deadline:0.005 ~pattern:"acgtacgt" ~k:1 ()
                  with
                  | Ok (P.Error_reply { code = 9; _ }) -> ()
                  | Ok (P.Error_reply { code; message; _ }) ->
                      Alcotest.fail
                        (Printf.sprintf "expected code 9, got %d: %s" code
                           message)
                  | Ok (P.Hits _) ->
                      Alcotest.fail "5 ms deadline behind a 190 ms occupier ran"
                  | Ok _ -> Alcotest.fail "bad reply shape"
                  | Error e -> Alcotest.fail (Kmm_error.to_string e));
              (* the occupier still gets its (empty) hit list *)
              match S.Client.recv_line occupier with
              | Some line -> (
                  match P.parse_reply line with
                  | Ok (P.Hits _) -> ()
                  | _ -> Alcotest.fail "occupier must still be answered")
              | None -> Alcotest.fail "occupier connection lost")))

let server_deadline_expires_mid_search () =
  (* An idle daemon, so the probe starts immediately: its 20 ms budget
     dies inside the engine's polls, and the wire answer is code 9. *)
  retry_once "mid-search expiry over the wire" (fun () ->
      with_server ~domains:2 (fun _t path ->
          let c = S.Client.connect path in
          Fun.protect
            ~finally:(fun () -> S.Client.close c)
            (fun () ->
              (match
                 S.Client.query c ~deadline:0.02 ~pattern:slow_pattern
                   ~k:slow_k ()
               with
              | Ok (P.Error_reply { code = 9; _ }) -> ()
              | Ok (P.Error_reply { code; _ }) ->
                  Alcotest.fail (Printf.sprintf "expected code 9, got %d" code)
              | Ok (P.Hits _) -> Alcotest.fail "expired query produced hits"
              | Ok _ -> Alcotest.fail "bad reply shape"
              | Error e -> Alcotest.fail (Kmm_error.to_string e));
              Alcotest.(check bool) "timeout metric recorded" true
                (server_metric c "serve_timeouts" >= 1);
              (* a deadline generous enough never distorts the answer *)
              let expected =
                P.render_hits
                  (K.run (Lazy.force index)
                     (K.Query.make ~engine:K.M_tree ~pattern:"acgtacgt" ~k:2 ()))
                    .K.Response.hits
              in
              match S.Client.query c ~deadline:30. ~pattern:"acgtacgt" ~k:2 () with
              | Ok (P.Hits { hits; _ }) ->
                  Alcotest.(check string) "identical under generous deadline"
                    expected (P.render_hits hits)
              | _ -> Alcotest.fail "generous-deadline query failed")))

(* --- misbehaving clients (Fault.Socket) ------------------------------- *)

let dribbled_frame_still_answered () =
  (* A frame fed 3 bytes at a time must parse and answer exactly like a
     well-formed client's. *)
  with_server (fun _t path ->
      let expected =
        P.render_hits
          (K.run (Lazy.force index)
             (K.Query.make ~engine:K.M_tree ~pattern:"acgtacgt" ~k:2 ()))
            .K.Response.hits
      in
      let c = F.Socket.connect path in
      Fun.protect
        ~finally:(fun () -> F.Socket.close c)
        (fun () ->
          F.Socket.dribble ~chunk:3 ~delay:0.001 c
            (P.query_request ~pattern:"acgtacgt" ~k:2 () ^ "\n");
          match F.Socket.recv_line c with
          | Some line -> (
              match P.parse_reply line with
              | Ok (P.Hits { hits; _ }) ->
                  Alcotest.(check string) "dribbled = sequential" expected
                    (P.render_hits hits)
              | _ -> Alcotest.fail "dribbled frame: expected hits")
          | None -> Alcotest.fail "dribbled frame: no answer"))

let midframe_disconnect_harmless () =
  (* Hanging up halfway through a frame costs only that connection. *)
  with_server (fun t path ->
      for _ = 1 to 3 do
        let c = F.Socket.connect path in
        let frame = P.query_request ~pattern:"acgtacgt" ~k:2 () in
        F.Socket.send_partial c frame ~len:(String.length frame / 2);
        F.Socket.close c
      done;
      Thread.delay 0.1;
      Alcotest.(check bool) "daemon not stopping" false (S.stopping t);
      let c = S.Client.connect path in
      Fun.protect
        ~finally:(fun () -> S.Client.close c)
        (fun () ->
          ignore
            (expect_hits "query after mid-frame disconnects"
               (S.Client.query c ~pattern:"acgtacgt" ~k:1 ()))))

let never_reading_client_dropped () =
  (* The nastiest client: asks for a ~1 MB answer and never reads a
     byte.  The daemon's send blocks, the send budget (0.5 s here)
     expires, the connection is dropped as stalled — and every other
     client is served throughout. *)
  with_server ~send_timeout:0.5 (fun t path ->
      let stalled = F.Socket.connect path in
      Fun.protect
        ~finally:(fun () -> F.Socket.close stalled)
        (fun () ->
          F.Socket.send_line stalled
            (P.query_request ~pattern:wide_pattern ~k:wide_k ());
          (* While the response is wedging the stalled connection, a
             polite client gets normal service. *)
          let c = S.Client.connect path in
          Fun.protect
            ~finally:(fun () -> S.Client.close c)
            (fun () ->
              ignore
                (expect_hits "served while another connection is stalled"
                   (S.Client.query c ~pattern:"acgtacgt" ~k:1 ()));
              (* Wait out the send budget, then confirm the stall was
                 detected and accounted. *)
              let gone = ref false in
              let waited = ref 0.0 in
              while (not !gone) && !waited < 5.0 do
                Thread.delay 0.25;
                waited := !waited +. 0.25;
                gone := server_metric c "serve_conns_stalled" >= 1
              done;
              Alcotest.(check bool) "stalled connection dropped" true !gone;
              Alcotest.(check bool) "daemon not stopping" false (S.stopping t);
              ignore
                (expect_hits "served after the stall was dropped"
                   (S.Client.query c ~pattern:"acgtacgt" ~k:1 ())))))

(* --- descriptor exhaustion ----------------------------------------------- *)

(* Duplicate /dev/null until the process runs out of descriptors or
   [limit] duplicates are open.  Returns the duplicates, newest (highest)
   first, and whether the process ran out. *)
let hog_fds ~limit =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let rec go acc n =
    if n >= limit then (acc, false)
    else
      match Unix.dup ~cloexec:true null with
      | fd -> go (fd :: acc) (n + 1)
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> (acc, true)
  in
  let dups, exhausted = go [] 0 in
  (null :: dups, exhausted)

let close_all = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())

let accept_survives_emfile () =
  (* With every descriptor taken but one, a client connects on that
     one, so the daemon's accept fails with EMFILE.  The daemon must
     count it, keep serving, and accept and answer the pending client
     once descriptors are free again. *)
  with_server (fun t path ->
      let fds, exhausted = hog_fds ~limit:200_000 in
      let held = ref fds in
      Fun.protect ~finally:(fun () -> close_all !held) @@ fun () ->
      if not exhausted then begin
        prerr_endline "chaos: descriptor limit above 200000; skipping the EMFILE case";
        Alcotest.skip ()
      end;
      (* Free the lowest duplicate: the client's socket takes it, and a
         low descriptor keeps the client's own select usable. *)
      (match List.rev !held with
      | _null :: lowest :: _ ->
          Unix.close lowest;
          held := List.filter (fun fd -> fd <> lowest) !held
      | _ -> Alcotest.fail "no duplicate to free");
      let client = F.Socket.connect path in
      Fun.protect ~finally:(fun () -> F.Socket.close client) @@ fun () ->
      Thread.delay 0.2 (* the daemon's accept fails meanwhile *);
      Alcotest.(check bool) "daemon not stopping" false (S.stopping t);
      close_all !held;
      held := [];
      F.Socket.send_line client (P.query_request ~pattern:"acgtacgt" ~k:1 ());
      (match Option.map P.parse_reply (F.Socket.recv_line client) with
      | Some (Ok (P.Hits _)) -> ()
      | Some _ -> Alcotest.fail "pending client: expected hits"
      | None -> Alcotest.fail "pending client never answered");
      let c = S.Client.connect ~timeout:10. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      Alcotest.(check bool) "accept failure counted" true (server_metric c "serve_accept_errors" >= 1))

let conn_beyond_fd_setsize_refused () =
  (* Every descriptor below ~1100 is taken, so the daemon accepts the
     next client above select's FD_SETSIZE (1024).  That is past the
     event loop's connection cap: the client must get one typed
     Overloaded frame and a close, never silence, and the daemon keeps
     serving. *)
  with_server (fun _t path ->
      let fds, exhausted = hog_fds ~limit:1100 in
      let held = ref fds in
      Fun.protect ~finally:(fun () -> close_all !held) @@ fun () ->
      if exhausted then begin
        prerr_endline "chaos: soft descriptor limit below 1100; skipping the FD_SETSIZE case";
        Alcotest.skip ()
      end;
      (* Raw blocking socket: select cannot take this descriptor either. *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let got = Buffer.create 256 and b = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes got b 0 n;
            slurp ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "no refusal and close within 10 s"
      in
      slurp ();
      (match String.split_on_char '\n' (Buffer.contents got) with
      | [ line; "" ] -> (
          match P.parse_reply line with
          | Ok (P.Error_reply { code = 10; _ }) -> ()
          | _ -> Alcotest.fail ("expected one code-10 frame, got " ^ line))
      | _ -> Alcotest.fail "expected exactly one frame before the close");
      close_all !held;
      held := [];
      let c = S.Client.connect ~timeout:10. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      ignore (expect_hits "served after the refusal" (S.Client.query c ~pattern:"acgtacgt" ~k:1 ()));
      Alcotest.(check bool) "refusal counted" true (server_metric c "serve_conns_refused" >= 1))

(* --- client-side resilience ------------------------------------------ *)

let client_connect_refused_typed () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-chaos-nobody-%d.sock" (Unix.getpid ()))
  in
  match S.Client.try_connect path with
  | Error (Kmm_error.Io _ as e) ->
      let msg = Kmm_error.to_string e in
      Alcotest.(check bool) "hint names the daemon" true
        (let needle = "is kmm serve running?" in
         let n = String.length msg and l = String.length needle in
         let rec scan i =
           i + l <= n && (String.sub msg i l = needle || scan (i + 1))
         in
         scan 0)
  | Error e -> Alcotest.fail ("expected Io, got " ^ Kmm_error.to_string e)
  | Ok c ->
      S.Client.close c;
      Alcotest.fail "connected to nothing"

let client_retry_policy () =
  Alcotest.(check bool) "Overloaded retries" true
    (S.Client.retryable (Kmm_error.Overloaded "x"));
  Alcotest.(check bool) "Io retries" true
    (S.Client.retryable (Kmm_error.Io (Failure "x")));
  Alcotest.(check bool) "Bad_input never retries" false
    (S.Client.retryable (Kmm_error.Bad_input "x"));
  Alcotest.(check bool) "Timeout never retries" false
    (S.Client.retryable (Kmm_error.Timeout "x"));
  (* with_retry: transient failures are absorbed, budgets counted. *)
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then Error (Kmm_error.Overloaded "busy") else Ok !calls
  in
  (match S.Client.with_retry ~attempts:5 ~base:0.001 ~cap:0.002 ~seed:7 flaky with
  | Ok 3 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "expected success on call 3, got %d" n)
  | Error e -> Alcotest.fail ("retry gave up: " ^ Kmm_error.to_string e));
  Alcotest.(check int) "two retries consumed" 3 !calls;
  (* a non-retryable error short-circuits on the first attempt *)
  let calls = ref 0 in
  (match
     S.Client.with_retry ~attempts:5 ~base:0.001 ~seed:7 (fun () ->
         incr calls;
         Error (Kmm_error.Bad_input "no"))
   with
  | Error (Kmm_error.Bad_input _) -> ()
  | _ -> Alcotest.fail "Bad_input must surface unchanged");
  Alcotest.(check int) "no retry on Bad_input" 1 !calls;
  (* attempts exhausted: the last error surfaces *)
  let calls = ref 0 in
  (match
     S.Client.with_retry ~attempts:3 ~base:0.001 ~cap:0.002 ~seed:7 (fun () ->
         incr calls;
         Error (Kmm_error.Overloaded "still busy"))
   with
  | Error (Kmm_error.Overloaded _) -> ()
  | _ -> Alcotest.fail "exhausted retries must surface the error");
  Alcotest.(check int) "all attempts consumed" 3 !calls

let client_retry_end_to_end () =
  (* A daemon appears only after the first attempt fails: with_retry +
     try_connect turns a refused connect into a served query. *)
  retry_once "retry until the daemon is up" (fun () ->
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "kmm-chaos-late-%d-%d.sock" (Unix.getpid ())
             (Random.bits ()))
      in
      let server = ref None in
      let starter =
        Thread.create
          (fun () ->
            Thread.delay 0.3;
            let cfg =
              { (S.default_config ~socket_path:path) with domains = 1 }
            in
            server := Some (S.start cfg (Core.Corpus.mono (Lazy.force index))))
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Thread.join starter;
          match !server with Some t -> S.stop t | None -> ())
        (fun () ->
          let attempts = ref 0 in
          let result =
            S.Client.with_retry ~attempts:8 ~base:0.1 ~cap:0.2 ~seed:3
              (fun () ->
                incr attempts;
                match S.Client.try_connect ~timeout:1.0 path with
                | Error e -> Error e
                | Ok c ->
                    Fun.protect
                      ~finally:(fun () -> S.Client.close c)
                      (fun () -> S.Client.query c ~pattern:"acgtacgt" ~k:1 ()))
          in
          match result with
          | Ok (P.Hits _) ->
              Alcotest.(check bool) "took more than one attempt" true
                (!attempts > 1)
          | Ok _ -> Alcotest.fail "bad reply shape"
          | Error e ->
              Alcotest.fail ("never reached the daemon: " ^ Kmm_error.to_string e)))

let () =
  Alcotest.run "chaos"
    [
      ( "deadline",
        [
          Alcotest.test_case "basics" `Quick deadline_basics;
          Alcotest.test_case "ambient poll" `Quick deadline_ambient_poll;
          Alcotest.test_case "query deadline direct" `Quick query_deadline_direct;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "pool cancel all" `Quick pool_cancel_all;
          Alcotest.test_case "pool cancel midway" `Quick pool_cancel_midway;
          Alcotest.test_case "task failure wins" `Quick pool_task_failed_wins;
          Alcotest.test_case "mapper expired deadline" `Quick
            mapper_expired_deadline;
          Alcotest.test_case "mapper without deadline unchanged" `Quick
            mapper_no_deadline_unchanged;
        ] );
      ( "overload",
        [
          Alcotest.test_case "sheds when full" `Quick server_sheds_when_full;
          Alcotest.test_case "deadline expires in queue" `Quick
            server_deadline_expires_in_queue;
          Alcotest.test_case "deadline expires mid-search" `Quick
            server_deadline_expires_mid_search;
        ] );
      ( "socket faults",
        [
          Alcotest.test_case "dribbled frame answered" `Quick
            dribbled_frame_still_answered;
          Alcotest.test_case "mid-frame disconnect harmless" `Quick
            midframe_disconnect_harmless;
          Alcotest.test_case "never-reading client dropped" `Quick
            never_reading_client_dropped;
        ] );
      ( "descriptors",
        [
          Alcotest.test_case "accept survives EMFILE" `Quick accept_survives_emfile;
          Alcotest.test_case "connection past FD_SETSIZE refused" `Quick
            conn_beyond_fd_setsize_refused;
        ] );
      ( "client resilience",
        [
          Alcotest.test_case "refused connect is typed" `Quick
            client_connect_refused_typed;
          Alcotest.test_case "retry policy" `Quick client_retry_policy;
          Alcotest.test_case "retry end to end" `Quick client_retry_end_to_end;
        ] );
    ]
