(* The [kmm serve] daemon and its wire protocol.

   Three layers, mirroring the failure model in lib/server/server.mli:

   - the JSON codec and frame parser in isolation (malformed, oversize,
     adversarial nesting -> typed rejections, never an exception);
   - a live in-process daemon poked over its Unix socket: protocol
     round-trips, typed error frames with the same codes the CLI exits
     with, limit enforcement, resync after garbage, and survival of a
     client killed mid-response;
   - byte-identity: hits served concurrently over the socket must render
     identically to a sequential [Kmismatch.run] on the same queries —
     including the headless serve-bench smoke (the CI load generator).  *)

module P = Kmm_server.Protocol
module S = Kmm_server.Server
module J = P.Json
module K = Core.Kmismatch

(* --- fixture -------------------------------------------------------- *)

let random_text ~st n =
  String.init n (fun _ -> "acgt".[Random.State.int st 4])

let text =
  let st = Random.State.make [| 0x5e7e |] in
  random_text ~st 12_000

let index = lazy (K.build_index text)

let mutate ~st s =
  let b = Bytes.of_string s in
  let i = Random.State.int st (Bytes.length b) in
  Bytes.set b i "acgt".[Random.State.int st 4];
  Bytes.to_string b

(* Patterns planted in [text] so queries actually hit. *)
let queries =
  let st = Random.State.make [| 0xbeef |] in
  List.init 64 (fun _ ->
      let len = 16 + Random.State.int st 24 in
      let pos = Random.State.int st (String.length text - len) in
      let p = String.sub text pos len in
      ((if Random.State.int st 2 = 0 then p else mutate ~st p), Random.State.int st 3))

let sequential_answers () =
  List.map
    (fun (pattern, k) ->
      P.render_hits (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits)
    queries

(* Each daemon test gets its own socket under a temp dir. *)
let with_server ?(limits = P.default_limits) ?(domains = 2) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let cfg = { (S.default_config ~socket_path:path) with domains; limits } in
  let t = S.start cfg (Core.Corpus.mono (Lazy.force index)) in
  Fun.protect ~finally:(fun () -> S.stop t) (fun () -> f t path)

let rpc_exn c frame =
  match (S.Client.send_line c frame; S.Client.recv_line c) with
  | Some line -> line
  | None -> Alcotest.fail "connection closed unexpectedly"

(* --- protocol unit tests -------------------------------------------- *)

let json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Int max_int;
      J.Float 1.5;
      J.String "plain";
      J.String "esc \" \\ \n \t \x01 end";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj [ ("a", J.Int 1); ("b", J.List [ J.String "x" ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (match J.of_string s with Ok v' -> J.equal v v' | Error _ -> false);
      Alcotest.(check bool)
        ("no raw newline in " ^ s)
        false
        (String.contains s '\n'))
    cases;
  (* \uXXXX decoding (UTF-8 re-encoding) *)
  (match J.of_string {|"aéA"|} with
  | Ok (J.String s) -> Alcotest.(check string) "unicode escape" "a\xc3\xa9A" s
  | _ -> Alcotest.fail "unicode escape did not parse")

let json_rejects () =
  let bad =
    [
      "";
      "{";
      "nul";
      "{\"a\":}";
      "[1,]";
      "\"unterminated";
      "{} trailing";
      "1 2";
      String.concat "" (List.init 200 (fun _ -> "[")) (* past max_depth *);
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" (String.sub s 0 (min 16 (String.length s))))
        true
        (match J.of_string s with Error _ -> true | Ok _ -> false))
    bad

let is_bad_input = function
  | Error (_, Kmm_error.Bad_input _) -> true
  | _ -> false

let parse_request_frames () =
  let limits = { P.default_limits with max_pattern = 10; max_k = 3; max_frame = 128 } in
  (* the happy path, with defaults *)
  (match P.parse_request ~limits {|{"pattern":"acgt"}|} with
  | Ok
      {
        id = J.Null;
        body = P.Query { pattern = "acgt"; k = 0; engine = K.M_tree; deadline = None };
      } ->
      ()
  | _ -> Alcotest.fail "defaulted query frame");
  (match P.parse_request ~limits {|{"cmd":"ping","id":7}|} with
  | Ok { id = J.Int 7; body = P.Ping } -> ()
  | _ -> Alcotest.fail "ping frame");
  (* deadline: relative seconds, int or float, strictly positive *)
  (match P.parse_request ~limits {|{"pattern":"acgt","deadline":0.25}|} with
  | Ok { body = P.Query { deadline = Some d; _ }; _ } when d = 0.25 -> ()
  | _ -> Alcotest.fail "float deadline frame");
  (match P.parse_request ~limits {|{"pattern":"acgt","deadline":3}|} with
  | Ok { body = P.Query { deadline = Some d; _ }; _ } when d = 3.0 -> ()
  | _ -> Alcotest.fail "int deadline frame");
  (* typed rejections, with the id recovered when possible *)
  let reject name frame check_id =
    match P.parse_request ~limits frame with
    | Error (id, Kmm_error.Bad_input _) ->
        Alcotest.(check bool) (name ^ " id echoed") true (check_id id)
    | _ -> Alcotest.fail (name ^ ": expected Bad_input")
  in
  reject "malformed json" "][ garbage" (J.equal J.Null);
  reject "not an object" "[1,2]" (J.equal J.Null);
  reject "missing pattern" {|{"cmd":"query","id":3}|} (J.equal (J.Int 3));
  reject "mistyped pattern" {|{"pattern":42,"id":4}|} (J.equal (J.Int 4));
  reject "unknown cmd" {|{"cmd":"evict","id":5}|} (J.equal (J.Int 5));
  reject "unknown engine" {|{"pattern":"acgt","engine":"warp"}|} (J.equal J.Null);
  reject "mistyped k" {|{"pattern":"acgt","k":"two"}|} (J.equal J.Null);
  reject "non-positive deadline" {|{"pattern":"acgt","deadline":0}|} (J.equal J.Null);
  reject "negative deadline" {|{"pattern":"acgt","deadline":-1.5}|} (J.equal J.Null);
  reject "mistyped deadline" {|{"pattern":"acgt","deadline":"soon"}|}
    (J.equal J.Null);
  (* limits *)
  Alcotest.(check bool) "pattern over max_pattern" true
    (is_bad_input (P.parse_request ~limits {|{"pattern":"acgtacgtacgt"}|}));
  Alcotest.(check bool) "k over max_k" true
    (is_bad_input (P.parse_request ~limits {|{"pattern":"acgt","k":4}|}));
  Alcotest.(check bool) "k at max_k admitted" true
    (match P.parse_request ~limits {|{"pattern":"acgt","k":3}|} with
    | Ok _ -> true
    | Error _ -> false);
  let oversize =
    Printf.sprintf {|{"pattern":"ac","note":%S}|} (String.make 200 'x')
  in
  Alcotest.(check bool) "frame over max_frame" true
    (is_bad_input (P.parse_request ~limits oversize));
  (* engine-owned validation is NOT duplicated at the frame layer *)
  Alcotest.(check bool) "empty pattern admitted by frame layer" true
    (match P.parse_request ~limits {|{"pattern":""}|} with
    | Ok _ -> true
    | Error _ -> false)

let reply_roundtrip () =
  let hits = [ (12, 0); (40, 2); (77, 1) ] in
  (match P.parse_reply (P.ok_hits_response ~id:(J.Int 9) ~truncated:true hits) with
  | Ok (P.Hits { id = J.Int 9; hits = h; truncated = true }) ->
      Alcotest.(check string) "hits roundtrip" (P.render_hits hits) (P.render_hits h)
  | _ -> Alcotest.fail "hits reply");
  (match P.parse_reply (P.error_response ~id:J.Null (Kmm_error.Bad_input "nope")) with
  | Ok (P.Error_reply { code = 2; _ }) -> ()
  | _ -> Alcotest.fail "error reply carries exit code");
  match P.parse_reply "<html>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage reply must not parse"

(* --- live daemon ---------------------------------------------------- *)

let server_roundtrip () =
  with_server (fun _t path ->
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      (match S.Client.command c "ping" with
      | Ok (P.Ok_obj _) -> ()
      | _ -> Alcotest.fail "ping");
      (match S.Client.command c "info" with
      | Ok (P.Ok_obj { fields; _ }) ->
          Alcotest.(check bool) "info reports length" true
            (match List.assoc_opt "length" fields with
            | Some (J.Int n) -> n = String.length text
            | _ -> false)
      | _ -> Alcotest.fail "info");
      let pattern, k = List.nth queries 0 in
      let expected =
        P.render_hits
          (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits
      in
      match S.Client.query c ~pattern ~k () with
      | Ok (P.Hits { hits; truncated = false; _ }) ->
          Alcotest.(check string) "wire hits = sequential" expected (P.render_hits hits)
      | _ -> Alcotest.fail "query")

let server_typed_errors () =
  with_server (fun _t path ->
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let expect_code name frame code =
        match P.parse_reply (rpc_exn c frame) with
        | Ok (P.Error_reply { code = c'; _ }) ->
            Alcotest.(check int) (name ^ " code") code c'
        | _ -> Alcotest.fail (name ^ ": expected error reply")
      in
      (* engine-owned validation surfaces over the wire as Bad_input *)
      expect_code "empty pattern" {|{"pattern":""}|} 2;
      expect_code "invalid base" {|{"pattern":"acgx"}|} 2;
      expect_code "negative k" {|{"pattern":"acgt","k":-1}|} 2;
      (* frame-layer admission *)
      expect_code "malformed json" "][ nope" 2;
      expect_code "unknown cmd" {|{"cmd":"evict"}|} 2;
      (* ...and the connection still works after every rejection *)
      match S.Client.command c "ping" with
      | Ok (P.Ok_obj _) -> ()
      | _ -> Alcotest.fail "connection must survive rejected frames")

let server_limits () =
  let limits = { P.max_pattern = 20; max_k = 2; max_hits = 3; max_frame = 256 } in
  with_server ~limits (fun _t path ->
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let expect_reject name frame =
        match P.parse_reply (rpc_exn c frame) with
        | Ok (P.Error_reply { code = 2; _ }) -> ()
        | _ -> Alcotest.fail (name ^ ": expected a code-2 rejection")
      in
      expect_reject "pattern over limit"
        (P.query_request ~pattern:(String.make 21 'a') ~k:0 ());
      expect_reject "k over limit" (P.query_request ~pattern:"acgt" ~k:3 ());
      (* oversized frame: rejected, then the connection resyncs *)
      expect_reject "oversize frame"
        (P.query_request ~pattern:"acgt" ~k:0
           ~id:(J.String (String.make 300 'x')) ());
      (* a short pattern matches everywhere: hits must be truncated at 3 *)
      (match S.Client.query c ~pattern:"acgt" ~k:2 () with
      | Ok (P.Hits { hits; truncated = true; _ }) ->
          Alcotest.(check int) "hits cut at max_hits" 3 (List.length hits)
      | _ -> Alcotest.fail "expected a truncated hit list");
      match S.Client.command c "ping" with
      | Ok (P.Ok_obj _) -> ()
      | _ -> Alcotest.fail "connection must survive limit rejections")

let server_resync_and_truncated () =
  with_server (fun _t path ->
      (* A client that closes mid-frame must not hurt the daemon... *)
      let dirty = S.Client.connect path in
      S.Client.send_line dirty {|{"pattern":"acg|} |> ignore;
      S.Client.close dirty;
      (* ...nor may one that sends binary garbage. *)
      let garbage = S.Client.connect path in
      S.Client.send_line garbage "\x00\xff\xfe not json";
      (match P.parse_reply (Option.get (S.Client.recv_line garbage)) with
      | Ok (P.Error_reply { code = 2; _ }) -> ()
      | _ -> Alcotest.fail "garbage line: expected typed rejection");
      S.Client.close garbage;
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      match S.Client.command c "ping" with
      | Ok (P.Ok_obj _) -> ()
      | _ -> Alcotest.fail "daemon must keep serving after dirty disconnects")

let server_client_killed_mid_response () =
  with_server (fun t path ->
      (* Fire a wide query and slam the connection without reading the
         answer: the write side sees EPIPE/ECONNRESET, which must stay a
         per-connection event. *)
      for _ = 1 to 4 do
        let victim = S.Client.connect path in
        S.Client.send_line victim (P.query_request ~pattern:"acgt" ~k:2 ());
        S.Client.close victim
      done;
      (* give the handler threads time to hit the dead sockets *)
      Thread.delay 0.2;
      Alcotest.(check bool) "daemon not stopping" false (S.stopping t);
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let pattern, k = List.nth queries 1 in
      let expected =
        P.render_hits
          (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits
      in
      match S.Client.query c ~pattern ~k () with
      | Ok (P.Hits { hits; _ }) ->
          Alcotest.(check string) "daemon still answers correctly" expected
            (P.render_hits hits)
      | _ -> Alcotest.fail "daemon must survive clients killed mid-response")

let server_concurrent_identity () =
  let expected = Array.of_list (sequential_answers ()) in
  with_server ~domains:3 (fun _t path ->
      let n = List.length queries in
      let got = Array.make n "" in
      let failure = Atomic.make None in
      let qarr = Array.of_list queries in
      let clients = 6 in
      let threads =
        List.init clients (fun ci ->
            Thread.create
              (fun () ->
                try
                  let c = S.Client.connect path in
                  Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
                  let i = ref ci in
                  while !i < n do
                    let pattern, k = qarr.(!i) in
                    (match S.Client.query c ~pattern ~k () with
                    | Ok (P.Hits { hits; _ }) -> got.(!i) <- P.render_hits hits
                    | Ok _ | Error _ -> failwith "bad reply");
                    i := !i + clients
                  done
                with e -> Atomic.set failure (Some e))
              ())
      in
      List.iter Thread.join threads;
      (match Atomic.get failure with
      | Some e -> Alcotest.fail ("client thread failed: " ^ Printexc.to_string e)
      | None -> ());
      Array.iteri
        (fun i exp ->
          Alcotest.(check string) (Printf.sprintf "query %d byte-identical" i) exp got.(i))
        expected)

let server_socket_path_too_long () =
  (* AF_UNIX sun_path holds 108 bytes including the NUL; a longer path
     must be refused up front as a typed Bad_input naming the limit, not
     surface as a raw Unix_error (or worse, bind to a silently truncated
     path). *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (String.make (S.max_socket_path + 1) 'x' ^ ".sock")
  in
  let cfg = { (S.default_config ~socket_path:path) with domains = 1 } in
  match S.start cfg (Core.Corpus.mono (Lazy.force index)) with
  | exception Kmm_error.Error (Kmm_error.Bad_input msg) ->
      Alcotest.(check bool) "message names the 107-byte limit" true
        (let needle = "107" in
         let n = String.length msg and l = String.length needle in
         let rec scan i = i + l <= n && (String.sub msg i l = needle || scan (i + 1)) in
         scan 0)
  | exception e ->
      Alcotest.fail ("expected typed Bad_input, got " ^ Printexc.to_string e)
  | t ->
      S.stop t;
      Alcotest.fail "over-long socket path accepted"

let server_shutdown_command () =
  with_server (fun t path ->
      let c = S.Client.connect path in
      (match S.Client.command c "shutdown" with
      | Ok (P.Ok_obj _) -> ()
      | _ -> Alcotest.fail "shutdown ack");
      S.Client.close c;
      (* drain must complete promptly *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while not (S.stopping t) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "stop requested over the wire" true (S.stopping t))

let server_drain_answers_then_refuses () =
  (* The SIGTERM path (request_stop is exactly what the signal handler
     calls): queries admitted before the stop are answered, frames
     arriving after it get typed Overloaded refusals — never a silent
     close — and the socket file is gone once [stop] returns. *)
  with_server (fun t path ->
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let pattern, k = List.nth queries 2 in
      (* Admitted before the stop: answered with real hits.  The frame
         sent right after the stop lands within the read tick the
         handler keeps open after it, so it is refused, not dropped. *)
      (match S.Client.query c ~pattern ~k () with
      | Ok (P.Hits _) -> ()
      | _ -> Alcotest.fail "pre-drain query must be answered");
      S.request_stop t;
      S.Client.send_line c (P.query_request ~id:(J.Int 99) ~pattern ~k ());
      (match S.Client.recv_line c with
      | Some line -> (
          match P.parse_reply line with
          | Ok (P.Error_reply { id = J.Int 99; code = 10; message }) ->
              Alcotest.(check bool) "refusal says it is draining" true
                (let needle = "shutting down" in
                 let n = String.length message and l = String.length needle in
                 let rec scan i =
                   i + l <= n && (String.sub message i l = needle || scan (i + 1))
                 in
                 scan 0)
          | _ -> Alcotest.fail "late frame: expected a code-10 Overloaded refusal")
      | None -> Alcotest.fail "late frame: expected a refusal before the close");
      (* After the refusal the connection is hung up at the frame
         boundary... *)
      (match S.Client.recv_line c with
      | None -> ()
      | Some _ -> Alcotest.fail "connection must close after the drain refusal");
      (* ...and a full stop removes the socket file. *)
      S.stop t;
      Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path))

(* --- worker domains ---------------------------------------------------- *)

(* The value of one sample line [kmm_<name> <v>] of a Prometheus
   exposition; [None] when absent. *)
let prom_value text name =
  let prefix = "kmm_" ^ name ^ " " in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        int_of_string_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    (String.split_on_char '\n' text)

let live_metrics c =
  match S.Client.command c "metrics" with
  | Ok (P.Ok_obj { fields; _ }) -> (
      match List.assoc_opt "metrics" fields with
      | Some (J.String text) -> text
      | _ -> Alcotest.fail "metrics reply without a metrics field")
  | _ -> Alcotest.fail "metrics command failed"

(* Run [clients] connections at once; client [ci] sends [send ci c].
   The first exception any of them raises fails the test. *)
let run_clients ~clients path send =
  let failure = Atomic.make None in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            try
              let c = S.Client.connect ~timeout:30. path in
              Fun.protect ~finally:(fun () -> S.Client.close c) (fun () -> send ci c)
            with e -> ignore (Atomic.compare_and_set failure None (Some e)))
          ())
  in
  List.iter Thread.join threads;
  Option.iter (fun e -> Alcotest.fail ("client failed: " ^ Printexc.to_string e)) (Atomic.get failure)

let server_metrics_add_up () =
  (* Every worker domain records into its own sink; the live [metrics]
     command and the --metrics-out tap written at drain must both count
     every query exactly once. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let metrics_out = Filename.temp_file "kmm-serve" ".prom" in
  let cfg = { (S.default_config ~socket_path:path) with domains = 2 } in
  let server =
    Thread.create
      (fun () -> S.serve ~metrics_out cfg (Core.Corpus.mono (Lazy.force index)))
      ()
  in
  let rec connect tries =
    match S.Client.connect ~timeout:30. path with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
        Thread.delay 0.01;
        connect (tries - 1)
  in
  let admin = connect 500 in
  let n = List.length queries and clients = 4 in
  let qarr = Array.of_list queries in
  run_clients ~clients path (fun ci c ->
      let i = ref ci in
      while !i < n do
        let pattern, k = qarr.(!i) in
        (match S.Client.query c ~pattern ~k () with
        | Ok (P.Hits _) -> ()
        | _ -> failwith "bad reply");
        i := !i + clients
      done);
  let expect where text =
    List.iter
      (fun name ->
        Alcotest.(check (option int)) (Printf.sprintf "%s %s" where name) (Some n)
          (prom_value text name))
      [ "serve_queries"; "pool_tasks"; "query_ns_count" ]
  in
  expect "live" (live_metrics admin);
  (match S.Client.command admin "shutdown" with
  | Ok (P.Ok_obj _) -> ()
  | _ -> Alcotest.fail "shutdown ack");
  S.Client.close admin;
  Thread.join server;
  let text = In_channel.with_open_bin metrics_out In_channel.input_all in
  Sys.remove metrics_out;
  expect "--metrics-out" text

(* An engine that raises on every query, registered in this test
   process only. *)
type K.engine += Raises

let () =
  K.Engine_registry.register
    {
      K.Engine_registry.engine = Raises;
      name = "raises-test";
      doc = "test double: raises on every query";
      caps = { online = false; needs_tree = false; scales = false };
      prepare = ignore;
      run = (fun _ _ -> failwith "engine bug");
    }

let server_engine_exception_isolated () =
  (* Raising queries interleaved with good ones on two worker domains:
     each raising query costs exactly its own answer (a typed Internal
     frame), every good one is answered as in-process, and the daemon
     still drains and stops. *)
  let corpus = Core.Corpus.mono (Lazy.force index) in
  let qarr = Array.of_list queries in
  let expected =
    Array.map
      (fun (pattern, k) ->
        match Core.Corpus.try_run corpus (K.Query.make ~engine:K.M_tree ~pattern ~k ()) with
        | Ok r -> P.render_hits r.K.Response.hits
        | Error e -> Alcotest.fail (Kmm_error.to_string e))
      qarr
  in
  let internal = Kmm_error.exit_code (Kmm_error.Internal "") in
  with_server (fun t path ->
      let n = Array.length qarr and clients = 3 in
      run_clients ~clients path (fun ci c ->
          let i = ref ci in
          while !i < n do
            let pattern, k = qarr.(!i) in
            (match S.Client.query c ~engine:Raises ~pattern ~k () with
            | Ok (P.Error_reply { code; _ }) when code = internal -> ()
            | _ -> failwith (Printf.sprintf "raising query %d: expected an Internal frame" !i));
            (match S.Client.query c ~pattern ~k () with
            | Ok (P.Hits { hits; _ }) when P.render_hits hits = expected.(!i) -> ()
            | _ -> failwith (Printf.sprintf "good query %d: hits differ from in-process" !i));
            i := !i + clients
          done);
      (* [stop] is idempotent, so [with_server]'s own stop is a no-op. *)
      let stopped = Atomic.make false in
      let stopper = Thread.create (fun () -> S.stop t; Atomic.set stopped true) () in
      let deadline = Unix.gettimeofday () +. 10. in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "drained and stopped" true (Atomic.get stopped);
      Thread.join stopper)

(* The CI serve-bench smoke: a headless end-to-end load run on a tiny
   index with 2 connections, raising on any divergence from sequential. *)
let bench_smoke () = Serve_bench.smoke ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "json rejects" `Quick json_rejects;
          Alcotest.test_case "request frames" `Quick parse_request_frames;
          Alcotest.test_case "reply roundtrip" `Quick reply_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "roundtrip" `Quick server_roundtrip;
          Alcotest.test_case "typed errors" `Quick server_typed_errors;
          Alcotest.test_case "limits" `Quick server_limits;
          Alcotest.test_case "resync after garbage" `Quick server_resync_and_truncated;
          Alcotest.test_case "client killed mid-response" `Quick
            server_client_killed_mid_response;
          Alcotest.test_case "concurrent = sequential" `Quick server_concurrent_identity;
          Alcotest.test_case "shutdown command" `Quick server_shutdown_command;
          Alcotest.test_case "drain answers then refuses" `Quick
            server_drain_answers_then_refuses;
          Alcotest.test_case "socket path over sun_path" `Quick server_socket_path_too_long;
          Alcotest.test_case "metrics add up across worker domains" `Quick
            server_metrics_add_up;
          Alcotest.test_case "engine exception costs one answer" `Quick
            server_engine_exception_isolated;
        ] );
      ("bench", [ Alcotest.test_case "serve bench smoke" `Quick bench_smoke ]);
    ]
