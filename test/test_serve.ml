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
let with_server ?(limits = P.default_limits) ?(domains = 2) ?send_timeout f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let base = S.default_config ~socket_path:path in
  let send_timeout = Option.value send_timeout ~default:base.send_timeout in
  let cfg = { base with domains; limits; send_timeout } in
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

(* --- wire codec properties ------------------------------------------- *)

let scalar_gen =
  let open QCheck2.Gen in
  oneof
    [
      pure J.Null;
      map (fun b -> J.Bool b) bool;
      map (fun i -> J.Int i) int;
      map (fun f -> J.Float (if Float.is_finite f then f else 0.5)) float;
      map (fun i -> J.Float (float_of_int i)) small_signed_int;
      map (fun s -> J.String s) (string_size ~gen:char (int_bound 12));
    ]

(* Values up to 5 levels of lists and objects, plus single chains that
   reach [max_depth] (64) exactly. *)
let json_gen =
  let open QCheck2.Gen in
  let key = string_size ~gen:char (int_bound 6) in
  let rec value depth =
    if depth = 0 then scalar_gen
    else
      frequency
        [
          (3, scalar_gen);
          (1, map (fun l -> J.List l) (list_size (int_bound 4) (value (depth - 1))));
          (1, map (fun l -> J.Obj l) (list_size (int_bound 4) (pair key (value (depth - 1)))));
        ]
  in
  let rec chain d v = if d = 0 then v else chain (d - 1) (J.List [ v ]) in
  frequency [ (4, value 5); (1, map2 chain (int_range 0 64) scalar_gen) ]

let prop_json_roundtrip =
  Test_util.qtest ~count:500 "json: of_string (to_string v) = Ok v" json_gen (fun v ->
      J.of_string (J.to_string v) = Ok v)

(* Every frame shape the daemon parses, with random fields. *)
let frame_gen =
  let open QCheck2.Gen in
  let* pattern = Test_util.dna_gen ~hi:30 () in
  let* k = int_range (-1) 5 in
  let* engine = oneofl (K.all_engines ()) in
  let* deadline = opt (float_range 0.001 5.) in
  let* id = scalar_gen in
  oneofl
    [
      P.query_request ~id ~engine ?deadline ~pattern ~k ();
      P.query_request ~pattern ~k ();
      P.command_request ~id "ping";
      P.command_request "metrics";
      P.command_request ~id "shutdown";
    ]

(* Overwrite, insert or delete bytes at random positions. *)
let mutate_frame frame edits =
  List.fold_left
    (fun s (op, pos, c) ->
      let n = String.length s in
      let i = pos mod (n + 1) in
      match op with
      | 0 when i < n -> String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> s)
    frame edits

let tight = { P.max_pattern = 20; max_k = 2; max_hits = 3; max_frame = 96 }

let parses_without_raising frame =
  List.for_all
    (fun limits -> match P.parse_request ~limits frame with Ok _ | Error _ -> true)
    [ P.default_limits; tight ]

let prop_parse_request_bytes =
  Test_util.qtest ~count:1000 "parse_request never raises on arbitrary bytes"
    QCheck2.Gen.(string_size ~gen:char (int_bound 200))
    parses_without_raising

let prop_parse_request_mutated =
  Test_util.qtest ~count:1000 "parse_request never raises on mutated frames"
    QCheck2.Gen.(
      pair frame_gen
        (list_size (int_range 1 6) (triple (int_bound 2) (int_bound 200) char)))
    (fun (frame, edits) -> parses_without_raising (mutate_frame frame edits))

let prop_hits_reply_roundtrip =
  Test_util.qtest ~count:300 "parse_reply (ok_hits_response ~id hits) = id, hits"
    QCheck2.Gen.(triple scalar_gen bool (list_size (int_bound 40) (pair nat small_nat)))
    (fun (id, truncated, hits) ->
      match P.parse_reply (P.ok_hits_response ~id ~truncated hits) with
      | Ok (P.Hits { id = id'; hits = hits'; truncated = t' }) ->
          id' = id && hits' = hits && t' = truncated
      | _ -> false)

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

(* --- pipelining ----------------------------------------------------------- *)

let sequential_hits ~pattern ~k =
  P.render_hits (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits

(* ~35 ms of m-tree work on the fixture: long enough that a 5 ms budget
   queued behind it on one worker domain expires before it runs. *)
let slow_pattern = String.concat "" (List.init 10 (fun _ -> "acgt"))
let slow_k = 16

type expect = Hits_of of string * int | Pong | Code of int

let server_pipelined_frames () =
  (* One write carries every kind of frame.  The replies must come back
     in frame order, each with its own id and code, and every hit list
     must equal a sequential run. *)
  let limits = { P.default_limits with max_frame = 512 } in
  with_server ~limits ~domains:1 (fun _t path ->
      let q = Array.of_list queries in
      let query id (pattern, k) =
        (P.query_request ~id:(J.Int id) ~pattern ~k (), Some (J.Int id, Hits_of (pattern, k)))
      in
      let ping id = (P.command_request ~id:(J.Int id) "ping", Some (J.Int id, Pong)) in
      let error line id code = (line, Some (id, Code code)) in
      let frames =
        [
          query 0 q.(0);
          query 1 q.(1);
          ("", None) (* an empty line gets no reply *);
          ping 2;
          error "][ nope" J.Null 2;
          error {|{"cmd":"evict","id":4}|} (J.Int 4) 2;
          query 5 q.(2);
          error (P.query_request ~id:(J.Int 6) ~pattern:(String.make 600 'a') ~k:0 ()) J.Null 2;
          query 7 q.(3);
          query 8 (slow_pattern, slow_k);
          error (P.query_request ~id:(J.Int 9) ~deadline:0.005 ~pattern:"acgtacgt" ~k:1 ()) (J.Int 9) 9;
          ping 10;
        ]
        @ List.init 9 (fun j -> query (11 + j) q.(4 + j))
      in
      let wire = List.map fst frames and expected = List.filter_map snd frames in
      let c = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      S.Client.send_line c (String.concat "\n" wire);
      List.iteri
        (fun n (id, e) ->
          let line =
            match S.Client.recv_line c with
            | Some l -> l
            | None -> Alcotest.failf "reply %d missing" n
          in
          let where = Printf.sprintf "reply %d (id %s)" n (J.to_string id) in
          match (P.parse_reply line, e) with
          | Ok (P.Hits { id = id'; hits; truncated = false }), Hits_of (pattern, k) ->
              Alcotest.(check string) (where ^ " id") (J.to_string id) (J.to_string id');
              Alcotest.(check string) (where ^ " hits = sequential") (sequential_hits ~pattern ~k)
                (P.render_hits hits)
          | Ok (P.Ok_obj { id = id'; fields }), Pong ->
              Alcotest.(check string) (where ^ " id") (J.to_string id) (J.to_string id');
              Alcotest.(check bool) (where ^ " pong") true (List.mem_assoc "pong" fields)
          | Ok (P.Error_reply { id = id'; code; _ }), Code want ->
              Alcotest.(check string) (where ^ " id") (J.to_string id) (J.to_string id');
              Alcotest.(check int) (where ^ " code") want code
          | _ -> Alcotest.failf "%s: unexpected reply %s" where line)
        expected)

let server_pipelined_stall_dropped () =
  (* A connection pipelines wide queries (every position matches, ~120
     KB per reply) and never reads.  Its output cannot drain, so it is
     dropped as stalled within the send budget, while a second client
     is served throughout. *)
  with_server ~send_timeout:0.5 (fun t path ->
      let stalled = Core.Fault.Socket.connect path in
      Fun.protect ~finally:(fun () -> Core.Fault.Socket.close stalled) @@ fun () ->
      Core.Fault.Socket.send stalled
        (String.concat ""
           (List.init 16 (fun i -> P.query_request ~id:(J.Int i) ~pattern:"acgt" ~k:3 () ^ "\n")));
      let c = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let pattern, k = List.nth queries 5 in
      let expected = sequential_hits ~pattern ~k in
      let serve_one () =
        match S.Client.query c ~pattern ~k () with
        | Ok (P.Hits { hits; _ }) ->
            Alcotest.(check string) "served while another connection stalls" expected
              (P.render_hits hits)
        | _ -> Alcotest.fail "polite client not served"
      in
      let t0 = Unix.gettimeofday () in
      let stalled_count () = Option.value ~default:0 (prom_value (live_metrics c) "serve_conns_stalled") in
      while stalled_count () = 0 && Unix.gettimeofday () -. t0 < 5. do
        serve_one ();
        Thread.delay 0.02
      done;
      Alcotest.(check int) "stalled connection dropped" 1 (stalled_count ());
      Alcotest.(check bool) "daemon not stopping" false (S.stopping t);
      serve_one ())

let server_query_then_shutdown () =
  (* A query pipelined before [shutdown] in one write was sent before the
     stop, so it is answered; only frames after the stop are refused. *)
  with_server (fun t path ->
      let pattern, k = List.nth queries 7 in
      let c = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      S.Client.send_line c
        (String.concat "\n"
           [
             P.query_request ~id:(J.Int 1) ~pattern ~k ();
             P.command_request ~id:(J.Int 2) "shutdown";
             P.query_request ~id:(J.Int 3) ~pattern ~k ();
           ]);
      let next () = Option.map P.parse_reply (S.Client.recv_line c) in
      (match next () with
      | Some (Ok (P.Hits { id = J.Int 1; hits; _ })) ->
          Alcotest.(check string) "query before the stop answered" (sequential_hits ~pattern ~k)
            (P.render_hits hits)
      | _ -> Alcotest.fail "query before shutdown not answered with hits");
      (match next () with
      | Some (Ok (P.Ok_obj { id = J.Int 2; fields })) ->
          Alcotest.(check bool) "stopping" true (List.assoc_opt "stopping" fields = Some (J.Bool true))
      | _ -> Alcotest.fail "shutdown not acknowledged");
      (match next () with
      | Some (Ok (P.Error_reply { id = J.Int 3; code; _ })) ->
          Alcotest.(check int) "query after the stop refused" 10 code
      | _ -> Alcotest.fail "query after shutdown not refused");
      Alcotest.(check bool) "daemon stopping" true (S.stopping t))

(* An engine that blocks until the test opens its gate (or 10 s pass),
   registered in this test process only. *)
type K.engine += Gated

let gate_entered = Atomic.make false
let gate_open = Atomic.make false

let () =
  K.Engine_registry.register
    {
      K.Engine_registry.engine = Gated;
      name = "gated-test";
      doc = "test double: blocks until the test opens its gate";
      caps = { online = false; needs_tree = false; scales = false };
      prepare = ignore;
      run =
        (fun _ _ ->
          Atomic.set gate_entered true;
          let t0 = Unix.gettimeofday () in
          while (not (Atomic.get gate_open)) && Unix.gettimeofday () -. t0 < 10. do
            Thread.delay 0.002
          done;
          []);
    }

let server_metrics_beside_busy_worker () =
  (* With the only worker domain inside a query, a [metrics] request on
     one connection must not hold up a [ping] on another: the ping is
     answered while the query is still running, and the metrics reply
     follows once it finishes. *)
  Atomic.set gate_entered false;
  Atomic.set gate_open false;
  with_server ~domains:1 (fun _t path ->
      let busy = S.Client.connect ~timeout:30. path in
      let scraper = S.Client.connect ~timeout:30. path in
      let pinger = S.Client.connect ~timeout:5. path in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate_open true;
          List.iter S.Client.close [ busy; scraper; pinger ])
      @@ fun () ->
      S.Client.send_line busy (P.query_request ~id:(J.Int 1) ~engine:Gated ~pattern:"acgt" ~k:0 ());
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get gate_entered)) && Unix.gettimeofday () -. t0 < 5. do
        Thread.delay 0.002
      done;
      Alcotest.(check bool) "gated query running" true (Atomic.get gate_entered);
      S.Client.send_line scraper (P.command_request ~id:(J.Int 2) "metrics");
      Thread.delay 0.05;
      (match S.Client.command pinger "ping" with
      | Ok (P.Ok_obj { fields; _ }) when List.mem_assoc "pong" fields -> ()
      | _ -> Alcotest.fail "ping not answered");
      Alcotest.(check bool) "ping answered while the query runs" false (Atomic.get gate_open);
      Atomic.set gate_open true;
      (match Option.map P.parse_reply (S.Client.recv_line busy) with
      | Some (Ok (P.Hits { id = J.Int 1; hits = []; _ })) -> ()
      | _ -> Alcotest.fail "gated query not answered");
      match Option.map P.parse_reply (S.Client.recv_line scraper) with
      | Some (Ok (P.Ok_obj { id = J.Int 2; fields })) -> (
          match List.assoc_opt "metrics" fields with
          | Some (J.String text) ->
              Alcotest.(check bool) "metrics count the running query" true
                (prom_value text "serve_queries" = Some 1)
          | _ -> Alcotest.fail "metrics reply has no text")
      | _ -> Alcotest.fail "metrics not answered")

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
          prop_json_roundtrip;
          prop_parse_request_bytes;
          prop_parse_request_mutated;
          prop_hits_reply_roundtrip;
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
      ( "pipelining",
        [
          Alcotest.test_case "frames answered in order" `Quick server_pipelined_frames;
          Alcotest.test_case "never-reading pipeliner dropped" `Quick
            server_pipelined_stall_dropped;
          Alcotest.test_case "query before shutdown answered" `Quick server_query_then_shutdown;
          Alcotest.test_case "metrics beside a busy worker" `Quick
            server_metrics_beside_busy_worker;
        ] );
      ("bench", [ Alcotest.test_case "serve bench smoke" `Quick bench_smoke ]);
    ]
