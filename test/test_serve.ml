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
     including the accepted replies of the headless serve-bench
     overload smoke.  *)

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
let with_server ?(limits = P.default_limits) ?(domains = 2) ?send_timeout
    ?(index = Lazy.force index) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let base = S.default_config ~socket_path:path in
  let send_timeout = Option.value send_timeout ~default:base.send_timeout in
  let cfg = { base with domains; limits; send_timeout } in
  let t = S.start cfg index in
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

(* Integers stay exact within [int]; a fraction, an exponent or an
   integer beyond [int] reads as a float; leading zeros are accepted. *)
let json_numbers () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check bool) text true
        (match J.of_string text with Ok v -> J.equal v want | Error _ -> false))
    [
      ("0", J.Int 0);
      ("-0", J.Int 0);
      ("007", J.Int 7);
      ("4611686018427387903", J.Int max_int);
      ("-4611686018427387904", J.Int min_int);
      ("4611686018427387904", J.Float 4611686018427387904.);
      ("-4611686018427387905", J.Float (-4611686018427387905.));
      ("99999999999999999999", J.Float 1e20);
      ("2.0", J.Float 2.);
      ("-0.5e1", J.Float (-5.));
      ("1E+2", J.Float 100.);
      ("1e999", J.Float infinity);
    ];
  List.iter
    (fun text ->
      Alcotest.(check bool) ("reject " ^ text) true (Result.is_error (J.of_string text)))
    [ "-"; "1."; ".5"; "1e"; "1e+"; "+1"; "--1"; "0x10"; "1_000" ]

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
        body = P.Query { pattern = "acgt"; k = 0; engine = K.Bidir; deadline = None };
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
  let* engine = oneofl (P.servable_engines ()) in
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

(* --- encoder bytes and the readers' field logic ------------------------ *)

(* Every encoder on frames that reach its corners: absent and present
   optional fields, a float deadline, escapes in ids and messages,
   extreme integers.  [fixtures/wire_frames.txt] holds one
   "name<TAB>frame" line per case, recorded from the tree-printing
   codec this one replaced; the encoders must still write exactly
   those bytes. *)
let wire_cases =
  let escaped = J.String "a\"b\\c/d\ne\rf\tg\x01\x1fh\x7f\xc3\xa9" in
  let q = P.query_request and hits = P.ok_hits_response in
  [
    ("query", fun () -> q ~pattern:"acgtacgt" ~k:2 ());
    ("query id", fun () -> q ~id:(J.Int 7) ~pattern:"acgt" ~k:0 ());
    ("query id escaped", fun () -> q ~id:escaped ~pattern:"ACGTN" ~k:1 ());
    ("query id list", fun () -> q ~id:(J.List [ J.Int 1; J.Obj [ ("x", J.Null) ] ]) ~pattern:"a" ~k:3 ());
    ("query engine", fun () -> q ~engine:K.M_tree ~pattern:"acgt" ~k:1 ());
    ("query engine bidir", fun () -> q ~id:(J.Int 0) ~engine:K.Bidir ~pattern:"acgt" ~k:1 ());
    ("query deadline", fun () -> q ~deadline:0.25 ~pattern:"acgt" ~k:1 ());
    ("query deadline integral", fun () -> q ~deadline:3. ~pattern:"acgt" ~k:1 ());
    ("query deadline tiny", fun () -> q ~deadline:1e-7 ~pattern:"acgt" ~k:1 ());
    ("query deadline huge", fun () -> q ~deadline:1e300 ~pattern:"acgt" ~k:1 ());
    ("query deadline inf", fun () -> q ~deadline:infinity ~pattern:"acgt" ~k:1 ());
    ( "query all",
      fun () -> q ~id:(J.String "q-1") ~engine:K.S_tree_no_delta ~deadline:0.1 ~pattern:"acgt" ~k:2 () );
    ("query k extremes", fun () -> q ~id:(J.Int min_int) ~pattern:"" ~k:max_int ());
    ("query k negative", fun () -> q ~id:(J.Float 2.5) ~pattern:"acgt" ~k:(-1) ());
    ("query id bool", fun () -> q ~id:(J.Bool false) ~pattern:"acgt" ~k:(-10) ());
    ("query escaped pattern", fun () -> q ~pattern:"ac\"gt\\\n" ~k:0 ());
    ("command ping", fun () -> P.command_request "ping");
    ("command id", fun () -> P.command_request ~id:(J.Int 42) "metrics");
    ("command escaped", fun () -> P.command_request ~id:escaped "sh\"ut\tdown");
    ("hits empty", fun () -> hits ~id:J.Null ~truncated:false []);
    ("hits empty truncated", fun () -> hits ~id:(J.Int 3) ~truncated:true []);
    ("hits", fun () -> hits ~id:(J.Int 9) ~truncated:false [ (12, 0); (40, 2); (77, 1) ]);
    ("hits truncated", fun () -> hits ~id:(J.Int 9) ~truncated:true [ (0, 0); (1, 1) ]);
    ( "hits extremes",
      fun () ->
        hits ~id:(J.Int (-1)) ~truncated:false
          [ (max_int, 0); (min_int, max_int); (-1, -9); (-10, 10); (1_000_000, 99) ] );
    ("hits id escaped", fun () -> hits ~id:escaped ~truncated:true [ (5, 1) ]);
    ("hits id float", fun () -> hits ~id:(J.Float (-0.5)) ~truncated:false [ (5, 1) ]);
    ("hits many", fun () -> hits ~id:(J.Int 1) ~truncated:false (List.init 40 (fun i -> (i * 977, i mod 4))));
    ("error", fun () -> P.error_response ~id:J.Null (Kmm_error.Bad_input "nope"));
    ( "error escaped",
      fun () -> P.error_response ~id:escaped (Kmm_error.Bad_input "say \"hi\"\n\tand \\ \x02") );
    ("error timeout", fun () -> P.error_response ~id:(J.Int 11) (Kmm_error.Timeout "deadline 0.5s expired"));
    ("error overloaded", fun () -> P.error_response ~id:(J.Int 12) (Kmm_error.Overloaded "queue full"));
    ("error internal", fun () -> P.error_response ~id:(J.String "x") (Kmm_error.Internal "boom"));
    ("obj empty", fun () -> P.ok_obj_response ~id:J.Null []);
    ("obj pong", fun () -> P.ok_obj_response ~id:(J.Int 4) [ ("pong", J.Bool true) ]);
    ( "obj metrics",
      fun () -> P.ok_obj_response ~id:J.Null [ ("metrics", J.String "# TYPE a counter\na 1\nb{le=\"2\"} 3\n") ] );
    ( "obj nested",
      fun () ->
        P.ok_obj_response ~id:escaped
          [
            ("version", J.Int 1);
            ("ratio", J.Float 0.1);
            ("whole", J.Float 2.);
            ("nan", J.Float nan);
            ("engines", J.List [ J.String "bidir"; J.String "m-tree" ]);
            ("limits", P.limits_to_json P.default_limits);
            ("k\"ey", J.Null);
          ] );
  ]

let wire_fixture () =
  let ic = open_in_bin "fixtures/wire_frames.txt" in
  let recorded =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           let tab = String.index line '\t' in
           (String.sub line 0 tab, String.sub line (tab + 1) (String.length line - tab - 1)))
  in
  Alcotest.(check (list string)) "cases" (List.map fst wire_cases) (List.map fst recorded);
  List.iter2
    (fun (name, frame) (_, want) -> Alcotest.(check string) name want (frame ()))
    wire_cases recorded

(* The readers' field logic as the codec had it when every frame was
   first parsed into a [Json.t] and its members looked up with
   [Json.member]: the direct readers must agree with it on every frame,
   valid or not — the same request or reply, or the same error with the
   same id and message. *)
let reference_parse_request ~limits line =
  let bad fmt = Printf.ksprintf (fun m -> Kmm_error.Bad_input m) fmt in
  if String.length line > limits.P.max_frame then
    Error
      (J.Null, bad "frame of %d bytes exceeds max_frame %d" (String.length line) limits.max_frame)
  else
    match J.of_string line with
    | Error m -> Error (J.Null, bad "malformed request: %s" m)
    | Ok (J.Obj _ as obj) -> (
        let id = Option.value ~default:J.Null (J.member "id" obj) in
        let reject e = Error (id, e) in
        let field name = J.member name obj in
        match field "cmd" with
        | Some (J.String "ping") -> Ok { P.id; body = P.Ping }
        | Some (J.String "metrics") -> Ok { id; body = P.Metrics }
        | Some (J.String "info") -> Ok { id; body = P.Info }
        | Some (J.String "shutdown") -> Ok { id; body = P.Shutdown }
        | None | Some (J.String "query") -> (
            match field "pattern" with
            | None -> reject (bad "missing \"pattern\"")
            | Some (J.String pattern) when String.length pattern > limits.max_pattern ->
                reject
                  (bad "pattern of %d bp exceeds max_pattern %d" (String.length pattern)
                     limits.max_pattern)
            | Some (J.String pattern) -> (
                match field "k" with
                | Some (J.Int _) | None -> (
                    let k = match field "k" with Some (J.Int k) -> k | _ -> 0 in
                    if k > limits.max_k then reject (bad "k=%d exceeds max_k %d" k limits.max_k)
                    else
                      let deadline =
                        match field "deadline" with
                        | None -> Ok None
                        | Some (J.Int s) when s > 0 -> Ok (Some (float_of_int s))
                        | Some (J.Float s) when s > 0. && Float.is_finite s -> Ok (Some s)
                        | Some (J.Int _ | J.Float _) -> Error (bad "\"deadline\" must be positive")
                        | Some _ -> Error (bad "\"deadline\" must be a number of seconds")
                      in
                      match (deadline, field "engine") with
                      | Error e, _ -> reject e
                      | Ok deadline, None ->
                          Ok { id; body = P.Query { pattern; k; engine = K.default_engine; deadline } }
                      | Ok deadline, Some (J.String name) -> (
                          let module R = K.Engine_registry in
                          let refuse m =
                            reject
                              (bad "%s (servable: %s)" m
                                 (String.concat ", "
                                    (List.filter_map
                                       (fun e -> if e.R.caps.R.scales then Some e.R.name else None)
                                       (R.all ()))))
                          in
                          match R.find_name name with
                          | Some e when e.R.caps.R.scales ->
                              Ok { id; body = P.Query { pattern; k; engine = e.R.engine; deadline } }
                          | Some e ->
                              refuse
                                (Printf.sprintf
                                   "engine %s is not served: it needs state the index file does not hold"
                                   e.R.name)
                          | None -> refuse (Printf.sprintf "unknown engine %S" name))
                      | Ok _, Some _ -> reject (bad "\"engine\" must be a string"))
                | Some _ -> reject (bad "\"k\" must be an integer"))
            | Some _ -> reject (bad "\"pattern\" must be a string"))
        | Some (J.String other) ->
            reject
              (bad "unknown cmd %S (expected one of: query, ping, metrics, info, shutdown)" other)
        | Some _ -> reject (bad "\"cmd\" must be a string"))
    | Ok _ -> Error (J.Null, bad "request must be a JSON object")

let reference_parse_reply line =
  match J.of_string line with
  | Error m -> Error (Printf.sprintf "malformed reply: %s" m)
  | Ok (J.Obj fields as obj) -> (
      let id = Option.value ~default:J.Null (J.member "id" obj) in
      match J.member "status" obj with
      | Some (J.String "error") ->
          let code = match J.member "code" obj with Some (J.Int c) -> c | _ -> 8 in
          let message =
            match J.member "error" obj with Some (J.String m) -> m | _ -> "unknown error"
          in
          Ok (P.Error_reply { id; code; message })
      | Some (J.String "ok") -> (
          match J.member "hits" obj with
          | Some (J.List items) -> (
              let truncated =
                match J.member "truncated" obj with Some (J.Bool b) -> b | _ -> false
              in
              match
                List.map (function J.List [ J.Int p; J.Int d ] -> (p, d) | _ -> raise Exit) items
              with
              | hits -> Ok (P.Hits { id; hits; truncated })
              | exception Exit -> Error "malformed hit entry in reply")
          | Some _ -> Error "\"hits\" must be a list"
          | None ->
              Ok
                (P.Ok_obj
                   { id; fields = List.filter (fun (k, _) -> k <> "status" && k <> "id") fields }))
      | _ -> Error "reply carries no \"status\"")
  | Ok _ -> Error "reply is not a JSON object"

let same_request a b =
  match (a, b) with
  | Ok { P.id; body }, Ok { P.id = id'; body = body' } -> (
      J.equal id id'
      &&
      match (body, body') with
      | P.Query q, P.Query q' ->
          q.pattern = q'.pattern && q.k = q'.k && q.engine == q'.engine && q.deadline = q'.deadline
      | b, b' -> b = b')
  | Error (id, e), Error (id', e') -> J.equal id id' && Kmm_error.to_string e = Kmm_error.to_string e'
  | _ -> false

let same_reply a b =
  match (a, b) with
  | Ok (P.Hits h), Ok (P.Hits h') -> J.equal h.id h'.id && h.hits = h'.hits && h.truncated = h'.truncated
  | Ok (P.Ok_obj o), Ok (P.Ok_obj o') -> J.equal o.id o'.id && J.equal (J.Obj o.fields) (J.Obj o'.fields)
  | Ok (P.Error_reply e), Ok (P.Error_reply e') ->
      J.equal e.id e'.id && e.code = e'.code && e.message = e'.message
  | Error m, Error m' -> m = m'
  | _ -> false

(* Reply frames of every shape, and objects assembled from the members
   both readers look for, in any order, repeated, of any JSON type. *)
let reply_gen =
  let open QCheck2.Gen in
  let* id = scalar_gen in
  let* truncated = bool in
  let* hits = list_size (int_bound 6) (pair int small_signed_int) in
  oneofl
    [
      P.ok_hits_response ~id ~truncated hits;
      P.error_response ~id (Kmm_error.Bad_input "bad \"x\"");
      P.error_response ~id (Kmm_error.Overloaded "full");
      P.ok_obj_response ~id [ ("pong", J.Bool true) ];
      P.ok_obj_response ~id [ ("version", J.Int 1); ("engines", J.List [ J.String "bidir" ]) ];
    ]

let member_frame_gen =
  let open QCheck2.Gen in
  let quoted l = oneofl l >|= fun s -> "\"" ^ s ^ "\"" in
  let text =
    quoted
      [ "query"; "ping"; "metrics"; "info"; "shutdown"; "evict"; "ok"; "error"; "acgt";
        "bidir"; "m-tree"; "m_tree"; "cole"; "warp"; "S-TREE"; "a\\\"b"; "\\u00e9"; "p\\u0069ng" ]
  in
  let number =
    oneofl
      [ "0"; "1"; "3"; "-1"; "64"; "65"; "0.25"; "-0.5"; "1e2"; "1E-3"; "2.0"; "007"; "-0";
        "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
        "-4611686018427387905"; "1e999"; "-1e999"; "99999999999999999999" ]
  in
  let hit = map2 (Printf.sprintf "[%s,%s]") number number in
  let list_of l = l >|= fun l -> "[" ^ String.concat ", " l ^ "]" in
  let any =
    frequency
      [
        (3, text);
        (3, number);
        (1, oneofl [ "true"; "false"; "null"; "[]"; "{}"; "[1]"; "[1,2,3]"; "[[1,2],3]"; "{\"a\":[]}"; "[[[]]]" ]);
        (2, list_of (list_size (int_bound 4) hit));
        (1, list_of (list_size (int_bound 3) (oneof [ hit; text; number ])));
      ]
  in
  (* Mostly the JSON type a reader wants under that key. *)
  let typed = function
    | "cmd" -> quoted [ "query"; "ping"; "metrics"; "info"; "shutdown"; "evict" ]
    | "pattern" | "pat\\u0074ern" -> quoted [ "acgt"; "acgtacgtacgtacgtacgtacgt"; "" ]
    | "engine" -> quoted [ "bidir"; "m-tree"; "s_tree"; "cole"; "warp" ]
    | "status" -> quoted [ "ok"; "error"; "fine" ]
    | "error" -> text
    | "truncated" -> oneofl [ "true"; "false" ]
    | "hits" ->
        list_of
          (list_size (int_bound 4)
             (frequency
                [ (6, hit); (1, oneofl [ "[1,2,3]"; "[1]"; "[]"; "[1,[2]]"; "[[1,2]]"; "[1, 2 ,[]]" ]); (1, any) ]))
    | _ -> number
  in
  let member =
    let* key =
      oneofl
        [ "id"; "cmd"; "pattern"; "k"; "engine"; "deadline"; "status"; "code"; "error";
          "truncated"; "hits"; "count"; "note"; "pat\\u0074ern"; "" ]
    in
    let* value = frequency [ (3, typed key); (1, any) ] in
    pure (Printf.sprintf "\"%s\" : %s" key value)
  in
  (* A member that makes the frame a query or a reply, somewhere. *)
  let* lead =
    oneofl [ []; [ {|"pattern":"acgt"|} ]; [ {|"status":"ok"|} ]; [ {|"status":"error"|} ] ]
  in
  let* ms = list_size (int_bound 6) member in
  shuffle_l (lead @ ms) >|= fun ms -> " {" ^ String.concat "," ms ^ "} "

(* Edits drawn from all bytes and from JSON's own punctuation; half the
   frames go unedited. *)
let edits_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, pure []);
        ( 1,
          list_size (int_range 1 4)
            (triple (int_bound 2) (int_bound 200)
               (oneof
                  [ char; oneofl [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; '-'; '.'; 'e'; '0'; '9'; ' '; 't'; 'n' ] ])) );
      ])

let prop_readers_match_reference =
  Test_util.qtest ~count:3000 "parse_request, parse_reply = tree-based reference"
    QCheck2.Gen.(pair (oneof [ frame_gen; reply_gen; member_frame_gen ]) edits_gen)
    (fun (frame, edits) ->
      let frame = mutate_frame frame edits in
      List.for_all
        (fun limits -> same_request (P.parse_request ~limits frame) (reference_parse_request ~limits frame))
        [ P.default_limits; tight ]
      && same_reply (P.parse_reply frame) (reference_parse_reply frame))

(* The client's reader against a peer that writes raw bytes: frames
   split across reads, several in one read, a CRLF ending, an empty
   line, a frame longer than the reader's 8 KiB buffer, and EOF. *)
let client_line_reader () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let c = S.Client.connect path in
  Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
  let peer, _ = Unix.accept listener in
  let send s = ignore (Unix.write_substring peer s 0 (String.length s)) in
  let expect want = Alcotest.(check (option string)) "line" want (S.Client.recv_line c) in
  let long = String.init 20_000 (fun i -> "acgt".[i mod 4]) in
  send "one\r\ntw";
  expect (Some "one");
  send "o\nthree\n\nfour\r";
  expect (Some "two");
  expect (Some "three");
  expect (Some "");
  send ("\n" ^ long ^ "\nlast");
  expect (Some "four");
  expect (Some long);
  send "\r\n";
  Unix.close peer;
  expect (Some "last");
  expect None

(* --- live daemon ---------------------------------------------------- *)

let server_roundtrip () =
  let pattern, k = List.nth queries 0 in
  let expected =
    P.render_hits
      (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits
  in
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
  let pattern, k = List.nth queries 1 in
  let expected =
    P.render_hits
      (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits
  in
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
  match S.start cfg (Lazy.force index) with
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

let server_domains_over_limit () =
  (* The event loop's domain counts against the runtime's domain limit,
     so [max_domains] query domains are one too many: refused before the
     socket is bound. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-limit-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (S.default_config ~socket_path:path) with domains = Core.Work_pool.max_domains }
  in
  match S.start cfg (Lazy.force index) with
  | exception Invalid_argument _ ->
      Alcotest.(check bool) "no socket file" false (Sys.file_exists path)
  | t ->
      S.stop t;
      Alcotest.fail "domains above the limit accepted"

let server_start_prepares_default_engine () =
  (* The default engine's one-off build (bidir's prefix table) runs in
     [start], so it is done before the first query arrives. *)
  let idx = K.build_index text in
  let table_built () = Fmindex.Bidir.prefix_table_built (K.bidir idx) in
  Alcotest.(check bool) "no table before start" false (table_built ());
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-warm-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let t = S.start { (S.default_config ~socket_path:path) with domains = 1 } idx in
  Fun.protect
    ~finally:(fun () -> S.stop t)
    (fun () -> Alcotest.(check bool) "table built once start returns" true (table_built ()))

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
     every query exactly once, and both carry the FM-index and
     verification taps of a bidir query that verifies candidates. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let metrics_out = Filename.temp_file "kmm-serve" ".prom" in
  let cfg = { (S.default_config ~socket_path:path) with domains = 2 } in
  let server =
    Thread.create
      (fun () -> S.serve ~metrics_out cfg (Lazy.force index))
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
  (match S.Client.query admin ~engine:K.Bidir ~pattern:(String.sub text 1000 40) ~k:2 () with
  | Ok (P.Hits _) -> ()
  | _ -> Alcotest.fail "bidir query");
  let expect where text =
    List.iter
      (fun name ->
        Alcotest.(check (option int)) (Printf.sprintf "%s %s" where name) (Some (n + 1))
          (prom_value text name))
      [ "serve_queries"; "query_ns_count" ];
    (* Each query ran once: on a worker, or on the loop, which queues a
       lone query its budget cuts (pulled, so counted in pool_tasks). *)
    let value name = Option.value ~default:0 (prom_value text name) in
    Alcotest.(check int) (where ^ " pool_tasks + serve_inline") (n + 1)
      (value "pool_tasks" + value "serve_inline");
    List.iter
      (fun name ->
        Alcotest.(check bool) (Printf.sprintf "%s %s > 0" where name) true
          (Option.value ~default:0 (prom_value text name) > 0))
      [ "fm_rank_ops"; "verify_calls" ]
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
      caps = { scales = true };
      prepare = ignore;
      run = (fun _ _ -> failwith "engine bug");
    }

let server_engine_exception_isolated () =
  (* Raising queries interleaved with good ones on two worker domains:
     each raising query costs exactly its own answer (a typed Internal
     frame), every good one is answered as in-process, and the daemon
     still drains and stops. *)
  let idx = Lazy.force index in
  let qarr = Array.of_list queries in
  let expected =
    Array.map
      (fun (pattern, k) ->
        match K.try_run idx (K.Query.make ~engine:K.M_tree ~pattern ~k ()) with
        | Ok r -> P.render_hits r.K.Response.hits
        | Error e -> Alcotest.fail (Kmm_error.to_string e))
      qarr
  in
  let internal = Kmm_error.exit_code (Kmm_error.Internal "") in
  with_server (fun t path ->
      (* One client alone on an idle daemon: its third raising query
         in a row is answered on the event loop, which keeps serving. *)
      (let c = S.Client.connect ~timeout:30. path in
       Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
       for _ = 1 to S.solo_streak do
         match S.Client.query c ~engine:Raises ~pattern:"acgt" ~k:0 () with
         | Ok (P.Error_reply { code; _ }) when code = internal -> ()
         | _ -> Alcotest.fail "lone raising query: expected an Internal frame"
       done;
       let text = live_metrics c in
       List.iter
         (fun (name, want) -> Alcotest.(check (option int)) name (Some want) (prom_value text name))
         [ ("serve_inline", 1); ("pool_tasks", S.solo_streak - 1); ("serve_errors", S.solo_streak) ]);
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

(* The daemon refuses an engine whose state is not in the index file
   with a typed Bad_input before the engine runs, so the refusals leave
   nothing live behind them.  The live heap is bounded from above only:
   it may not grow by [heap_margin_words], a quarter of the 25,000 words
   that forcing the unpacked 200 kbp text costs (Cole's suffix tree
   would cost ~480 B/base).  [Gc.stat] runs a full major collection
   first, so its [live_words] counts what every domain keeps.  The heap
   top is no such measure: it can fall as domains come and go, and an
   allocation that fits the free heap does not raise it.  [info] lists
   only the servable engines. *)
let heap_margin_words = 25_000 / 4

let server_refuses_unservable_engine () =
  let st = Random.State.make [| 0xc01e |] in
  let idx = K.build_index (random_text ~st 200_000) in
  with_server ~domains:1 ~index:idx (fun _t path ->
      let c = S.Client.connect path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let servable = List.map K.engine_name (P.servable_engines ()) in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " servable") true (List.mem name servable))
        [ "bidir"; "m-tree"; "s-tree"; "s-tree-nodelta" ];
      (match S.Client.command c "info" with
      | Ok (P.Ok_obj { fields; _ }) ->
          Alcotest.(check (list string)) "info lists the servable engines" servable
            (match List.assoc_opt "engines" fields with
            | Some (J.List names) ->
                List.map (function J.String n -> n | _ -> "?") names
            | _ -> [])
      | _ -> Alcotest.fail "info");
      let live () = (Gc.stat ()).Gc.live_words in
      let live0 = live () in
      List.iter
        (fun engine ->
          match S.Client.query c ~engine ~pattern:(String.make 40 'a') ~k:2 () with
          | Ok (P.Error_reply { code = 2; message; _ }) ->
              Alcotest.(check bool) "refusal names bidir" true
                (let needle = "bidir" in
                 let n = String.length message and l = String.length needle in
                 let rec scan i =
                   i + l <= n && (String.sub message i l = needle || scan (i + 1))
                 in
                 scan 0)
          | _ -> Alcotest.failf "%s: expected a code-2 refusal" (K.engine_name engine))
        K.[ Cole; Amir; Naive ];
      let live1 = live () in
      if live1 > live0 + heap_margin_words then
        Alcotest.failf "live heap grew from %d to %d words (margin %d)" live0 live1
          heap_margin_words;
      match S.Client.query c ~engine:K.M_tree ~pattern:(String.make 40 'a') ~k:2 () with
      | Ok (P.Hits _) -> ()
      | _ -> Alcotest.fail "a servable engine still answers")

(* --- pipelining ----------------------------------------------------------- *)

let sequential_hits ~pattern ~k =
  P.render_hits (K.run (Lazy.force index) (K.Query.make ~engine:K.M_tree ~pattern ~k ())).K.Response.hits

(* ~35 ms of m-tree work on the fixture: long enough that a 5 ms budget
   queued behind it on one worker domain expires before it runs. *)
let slow_pattern = String.concat "" (List.init 10 (fun _ -> "acgt"))
let slow_k = 16

type expect = Hits_of of string | Pong | Code of int

let server_pipelined_frames () =
  (* One write carries every kind of frame.  The replies must come back
     in frame order, each with its own id and code, and every hit list
     must equal a sequential run, computed before the daemon starts. *)
  let limits = { P.default_limits with max_frame = 512 } in
  let q = Array.of_list queries in
  let query id (pattern, k) =
    (P.query_request ~id:(J.Int id) ~engine:K.M_tree ~pattern ~k (),
     Some (J.Int id, Hits_of (sequential_hits ~pattern ~k)))
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
  with_server ~limits ~domains:1 (fun _t path ->
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
          | Ok (P.Hits { id = id'; hits; truncated = false }), Hits_of want ->
              Alcotest.(check string) (where ^ " id") (J.to_string id) (J.to_string id');
              Alcotest.(check string) (where ^ " hits = sequential") want (P.render_hits hits)
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
  let pattern, k = List.nth queries 5 in
  let expected = sequential_hits ~pattern ~k in
  with_server ~send_timeout:0.5 (fun t path ->
      let stalled = Core.Fault.Socket.connect path in
      Fun.protect ~finally:(fun () -> Core.Fault.Socket.close stalled) @@ fun () ->
      Core.Fault.Socket.send stalled
        (String.concat ""
           (List.init 16 (fun i -> P.query_request ~id:(J.Int i) ~pattern:"acgt" ~k:3 () ^ "\n")));
      let c = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
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
  let pattern, k = List.nth queries 7 in
  let expected = sequential_hits ~pattern ~k in
  with_server (fun t path ->
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
          Alcotest.(check string) "query before the stop answered" expected (P.render_hits hits)
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

(* Put [c] on a streak one short of [S.solo_streak] with queries the
   workers answer, so its next lone query runs on the loop. *)
let warm_streak c =
  for _ = 2 to S.solo_streak do
    match S.Client.query c ~pattern:"acgtacgt" ~k:0 () with
    | Ok (P.Hits _) -> ()
    | _ -> Alcotest.fail "warm-up query not answered"
  done

(* An engine that spins on [Deadline.poll] until the test opens its
   gate (or 10 s pass), noting the domain of every run; registered in
   this test process only.  Its answer is the naive one.  Alone on an
   idle daemon it runs on the event loop until other input reaches the
   loop, which cuts it there and queues it for a worker. *)
type K.engine += Gated

let gate_runs = Atomic.make []
let gate_open = Atomic.make false

let () =
  K.Engine_registry.register
    {
      K.Engine_registry.engine = Gated;
      name = "gated-test";
      doc = "test double: polls until the test opens its gate";
      caps = { scales = true };
      prepare = ignore;
      run =
        (fun idx a ->
          let rec note () =
            let l = Atomic.get gate_runs in
            if not (Atomic.compare_and_set gate_runs l ((Domain.self () :> int) :: l)) then note ()
          in
          note ();
          let t0 = Unix.gettimeofday () in
          while (not (Atomic.get gate_open)) && Unix.gettimeofday () -. t0 < 10. do
            Deadline.poll ();
            Domain.cpu_relax ()
          done;
          Stringmatch.Hamming.search ~pattern:a.K.Engine_registry.pattern ~text:(K.text idx)
            ~k:a.K.Engine_registry.k);
    }

let close_gate () =
  Atomic.set gate_runs [];
  Atomic.set gate_open false

(* The event loop runs on the domain that started the daemon: this one. *)
let loop_domain = (Domain.self () :> int)

(* The domains the gated engine has run on, oldest first, once [n] runs
   have started (or 10 s passed). *)
let gated_runs n =
  let t0 = Unix.gettimeofday () in
  while List.length (Atomic.get gate_runs) < n && Unix.gettimeofday () -. t0 < 10. do
    Thread.delay 0.001
  done;
  List.rev (Atomic.get gate_runs)

let server_metrics_beside_busy_worker () =
  (* With the only worker domain inside a query, a [metrics] request on
     one connection must not hold up a [ping] on another: the ping is
     answered while the query is still running, and the metrics reply
     follows once it finishes.  The gated query starts on the loop; a
     first ping cuts it there, and the worker runs it. *)
  close_gate ();
  with_server ~domains:1 (fun _t path ->
      let busy = S.Client.connect ~timeout:30. path in
      let scraper = S.Client.connect ~timeout:30. path in
      let pinger = S.Client.connect ~timeout:5. path in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate_open true;
          List.iter S.Client.close [ busy; scraper; pinger ])
      @@ fun () ->
      let ping what =
        match S.Client.command pinger "ping" with
        | Ok (P.Ok_obj { fields; _ }) when List.mem_assoc "pong" fields -> ()
        | _ -> Alcotest.fail (what ^ ": ping not answered")
      in
      warm_streak busy;
      S.Client.send_line busy (P.query_request ~id:(J.Int 1) ~engine:Gated ~pattern:"acgt" ~k:0 ());
      Alcotest.(check int) "gated query started" 1 (List.length (gated_runs 1));
      ping "beside the loop's search";
      (match gated_runs 2 with
      | [ _; worker ] -> Alcotest.(check bool) "gated query on the worker" true (worker <> loop_domain)
      | _ -> Alcotest.fail "gated query not handed to the worker");
      S.Client.send_line scraper (P.command_request ~id:(J.Int 2) "metrics");
      Thread.delay 0.05;
      ping "beside the scrape";
      Alcotest.(check bool) "ping answered while the query runs" false (Atomic.get gate_open);
      Atomic.set gate_open true;
      (match Option.map P.parse_reply (S.Client.recv_line busy) with
      | Some (Ok (P.Hits { id = J.Int 1; _ })) -> ()
      | _ -> Alcotest.fail "gated query not answered");
      match Option.map P.parse_reply (S.Client.recv_line scraper) with
      | Some (Ok (P.Ok_obj { id = J.Int 2; fields })) -> (
          match List.assoc_opt "metrics" fields with
          | Some (J.String text) ->
              Alcotest.(check bool) "metrics count the running query" true
                (prom_value text "serve_queries" = Some S.solo_streak)
          | _ -> Alcotest.fail "metrics reply has no text")
      | _ -> Alcotest.fail "metrics not answered")

(* --- lone queries on the event loop ------------------------------------- *)

let server_lone_query_inline () =
  (* One client sending queries one at a time to an idle daemon: once it
     has sent [S.solo_streak] in a row, the event loop answers them
     itself and no worker pulls them.  Nothing else reaches the loop
     meanwhile, so its budget is renewed until each search ends.  A
     query from a second connection breaks the streak. *)
  let qs = List.filteri (fun i _ -> i >= 3 && i < 3 + S.solo_streak + 2) queries in
  let expected = List.map (fun (pattern, k) -> sequential_hits ~pattern ~k) qs in
  with_server (fun _t path ->
      let c = S.Client.connect ~timeout:30. path in
      let other = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> List.iter S.Client.close [ c; other ]) @@ fun () ->
      let ask c (pattern, k) want =
        match S.Client.query c ~pattern ~k () with
        | Ok (P.Hits { hits; _ }) -> Alcotest.(check string) "hits = sequential" want (P.render_hits hits)
        | _ -> Alcotest.fail "lone query not answered"
      in
      let counts names =
        let text = live_metrics c in
        List.map (fun name -> Option.value ~default:0 (prom_value text name)) names
      in
      let stream = List.combine qs expected in
      List.iteri (fun i (q, want) -> if i <= S.solo_streak then ask c q want) stream;
      Alcotest.(check (list int)) "inline, cut, pool"
        [ 2; 0; S.solo_streak - 1 ]
        (counts [ "serve_inline"; "serve_inline_cut"; "pool_tasks" ]);
      List.iter
        (fun name -> Alcotest.(check (option int)) name (Some (S.solo_streak + 1)) (prom_value (live_metrics c) name))
        [
          "serve_queries";
          (* The loop's answers are dispatches too, so the layer view sees them. *)
          "serve_batch_size_count";
          "pool_queue_wait_ns_count";
          "pool_task_ns_count";
        ];
      let q, want = List.nth stream (S.solo_streak + 1) in
      ask other q want;
      ask c q want;
      Alcotest.(check (list int)) "after another connection's query: the pool"
        [ 2; S.solo_streak + 1 ]
        (counts [ "serve_inline"; "pool_tasks" ]))

let server_cut_query_handed_to_pool () =
  (* A lone query runs on the loop for as long as nothing else arrives.
     A ping on another connection cuts it there: the ping is answered
     while the search still runs, so the loop's stall is bounded by its
     budget, not by the search, and a worker finishes the query. *)
  close_gate ();
  let pattern, k = List.nth queries 4 in
  let expected = sequential_hits ~pattern ~k in
  with_server ~domains:1 (fun _t path ->
      let c = S.Client.connect ~timeout:30. path in
      let pinger = S.Client.connect ~timeout:30. path in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate_open true;
          List.iter S.Client.close [ c; pinger ])
      @@ fun () ->
      warm_streak c;
      S.Client.send_line c (P.query_request ~id:(J.Int 1) ~engine:Gated ~pattern ~k ());
      Alcotest.(check (list int)) "started on the loop" [ loop_domain ] (gated_runs 1);
      (* Many budgets later, still there: an idle loop renews it. *)
      Thread.delay 0.02;
      Alcotest.(check (list int)) "still on the loop" [ loop_domain ] (List.rev (Atomic.get gate_runs));
      (match S.Client.command pinger "ping" with
      | Ok (P.Ok_obj { fields; _ }) when List.mem_assoc "pong" fields -> ()
      | _ -> Alcotest.fail "ping not answered");
      Alcotest.(check bool) "ping answered while the search runs" false (Atomic.get gate_open);
      (match gated_runs 2 with
      | [ first; second ] ->
          Alcotest.(check int) "first run on the loop" loop_domain first;
          Alcotest.(check bool) "second run on a worker" true (second <> loop_domain)
      | l -> Alcotest.failf "%d runs of the gated engine" (List.length l));
      Atomic.set gate_open true;
      (match Option.map P.parse_reply (S.Client.recv_line c) with
      | Some (Ok (P.Hits { id = J.Int 1; hits; _ })) ->
          Alcotest.(check string) "hits = sequential" expected (P.render_hits hits)
      | _ -> Alcotest.fail "cut query not answered");
      let text = live_metrics pinger in
      List.iter
        (fun (name, want) ->
          Alcotest.(check (option int)) name (Some want) (prom_value text name))
        [
          ("serve_inline_cut", 1);
          ("serve_inline", 0);
          ("serve_queries", S.solo_streak);
          ("pool_tasks", S.solo_streak);
          ("query_ns_count", S.solo_streak);
          ("serve_timeouts", 0);
          (* The workers' runs only: the cut attempt left no sample. *)
          ("serve_batch_size_count", S.solo_streak);
          ("pool_queue_wait_ns_count", S.solo_streak);
          ("pool_task_ns_count", S.solo_streak);
        ])

(* --- polling after replies --------------------------------------------- *)

let poll_rule () =
  (* Each row changes one input of a case that polls: a reply 10 us ago,
     a gap inside the window, an idle pool, no stop and no timer due. *)
  let now = 1_000_000_000 and w = S.poll_ns in
  let poll ?(gap = w / 5) ?(busy = 0) ?(queue_empty = true) ?(stopping = false)
      ?(replied = now - 10_000) ?(next = max_int) () =
    S.should_poll ~gap ~busy ~queue_empty ~stopping ~replied ~next ~now
  in
  List.iter
    (fun (name, want, got) -> Alcotest.(check bool) name want got)
    [
      ("a quick client on an idle daemon", true, poll ());
      ("no gap measured yet", true, poll ~gap:0 ());
      ("gap just inside the window", true, poll ~gap:(w - 1) ());
      ("gap as long as the window", false, poll ~gap:w ());
      ("a client that paused", false, poll ~gap:5_000_000 ());
      ("a worker busy", false, poll ~busy:1 ());
      ("two workers busy", false, poll ~busy:2 ());
      ("queries queued", false, poll ~queue_empty:false ());
      ("stop requested", false, poll ~stopping:true ());
      ("timer due now", false, poll ~next:now ());
      ("timer overdue", false, poll ~next:(now - 1) ());
      ("timer due next", true, poll ~next:(now + 1) ());
      ("window just open", true, poll ~replied:(now - w + 1) ());
      ("window run out", false, poll ~replied:(now - w) ());
      ("no reply since the last frame", false, poll ~replied:min_int ());
    ]

let poll_counts c =
  let text = live_metrics c in
  let value name = Option.value ~default:(-1) (prom_value text name) in
  (value "serve_poll_ns", value "serve_poll_hits")

let server_paused_client_polled_once () =
  (* A client that pauses 5 ms before each of its frames: 20 queries
     and two [metrics] reads.  The first reply is polled for, since no
     gap has been measured yet, and that poll runs out; every later
     reply follows a measured 5 ms gap, so the loop sleeps at once and
     the poll counters stand still. *)
  let qs = List.filteri (fun i _ -> i < 20) queries in
  let expected = List.map (fun (pattern, k) -> sequential_hits ~pattern ~k) qs in
  with_server (fun _t path ->
      let c = S.Client.connect ~timeout:30. path in
      Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
      let paused f =
        let r = f () in
        Thread.delay 0.005;
        r
      in
      let first = ref (0, 0) in
      List.iteri
        (fun i ((pattern, k), want) ->
          (match paused (fun () -> S.Client.query c ~pattern ~k ()) with
          | Ok (P.Hits { hits; _ }) -> Alcotest.(check string) "hits = sequential" want (P.render_hits hits)
          | _ -> Alcotest.fail "query not answered");
          if i = 0 then first := paused (fun () -> poll_counts c))
        (List.combine qs expected);
      let ns, hits = !first in
      Alcotest.(check bool) "the first reply polled" true (ns > 0);
      Alcotest.(check int) "that poll ran out" 0 hits;
      Alcotest.(check (pair int int)) "no poll after the pause" !first (poll_counts c))

let server_completion_ends_poll () =
  (* A scrape's reply comes back through the completion list and the
     self-pipe, like a worker's.  A ping and a [metrics] in one write
     to a fresh daemon: the ping's reply is its first, so the loop
     polls after it, and a scrape that finishes within that window
     readies the pipe during the poll, which ends there, and the round
     writes the [metrics] reply.  The client then pauses, so the next
     poll runs out and only the pipe's hit is counted.  The scrape runs
     on a thread of its own, which the kernel may not schedule within
     the window on a loaded host, so a fresh daemon tries again, up to
     30 times; every attempt's replies must come back in order. *)
  let attempt () =
    with_server (fun _t path ->
        let c = S.Client.connect ~timeout:30. path in
        Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
        S.Client.send_line c
          (P.command_request ~id:(J.Int 1) "ping" ^ "\n" ^ P.command_request ~id:(J.Int 2) "metrics");
        (match Option.map P.parse_reply (S.Client.recv_line c) with
        | Some (Ok (P.Ok_obj { id = J.Int 1; fields })) when List.mem_assoc "pong" fields -> ()
        | _ -> Alcotest.fail "ping not answered first");
        (match Option.map P.parse_reply (S.Client.recv_line c) with
        | Some (Ok (P.Ok_obj { id = J.Int 2; fields })) when List.mem_assoc "metrics" fields -> ()
        | _ -> Alcotest.fail "metrics not answered second");
        Thread.delay 0.005;
        snd (poll_counts c))
  in
  let rec go n = n < 30 && (attempt () = 1 || go (n + 1)) in
  Alcotest.(check bool) "a poll ended on the completion" true (go 0)

(* Random texts and queries through one daemon per case, one at a time
   (the loop answers them) and in pipelined bursts of 8 (the workers
   do), every reply against [Hamming.search].  The references are
   computed before the daemon starts: [Hamming.search] polls the
   ambient deadline, which inline searches set on this domain. *)
let daemon_case_gen =
  let open QCheck2.Gen in
  let* text = Test_util.dna_gen ~lo:40 ~hi:1500 () in
  let query =
    let* len = int_range 4 24 in
    let* planted = bool in
    let* pattern =
      if planted && len <= String.length text then
        let* pos = int_bound (String.length text - len) in
        let* edits = list_size (int_bound 2) (pair (int_bound (len - 1)) Test_util.dna_gen_char) in
        pure
          (String.mapi
             (fun i c -> match List.assoc_opt i edits with Some e -> e | None -> c)
             (String.sub text pos len))
      else Test_util.dna_gen ~lo:len ~hi:len ()
    in
    let* k = int_bound 2 in
    let* engine = oneofl K.[ Bidir; M_tree; S_tree; S_tree_no_delta ] in
    pure (pattern, k, engine)
  in
  pair (pure text) (list_repeat 16 query)

let prop_daemon_matches_naive =
  Test_util.qtest ~count:20 "daemon = Hamming.search, both paths" daemon_case_gen
    (fun (text, qs) ->
      let expected =
        List.map (fun (pattern, k, _) -> Stringmatch.Hamming.search ~pattern ~text ~k) qs
      in
      let frames = List.mapi (fun i (pattern, k, engine) -> P.query_request ~id:(J.Int i) ~engine ~pattern ~k ()) qs in
      with_server ~index:(K.build_index text) (fun _t path ->
          let c = S.Client.connect ~timeout:30. path in
          Fun.protect ~finally:(fun () -> S.Client.close c) @@ fun () ->
          let reply i =
            match Option.map P.parse_reply (S.Client.recv_line c) with
            | Some (Ok (P.Hits { id = J.Int i'; hits; truncated = false })) when i' = i -> hits
            | _ -> failwith (Printf.sprintf "reply %d: not its hits" i)
          in
          let alone = List.mapi (fun i f -> S.Client.send_line c f; reply i) frames in
          let rec bursts i = function
            | [] -> []
            | fs ->
                let burst = List.filteri (fun j _ -> j < 8) fs in
                S.Client.send_line c (String.concat "\n" burst);
                let got = List.mapi (fun j _ -> reply (i + j)) burst in
                got @ bursts (i + 8) (List.filteri (fun j _ -> j >= 8) fs)
          in
          let pooled = bursts 0 frames in
          let text = live_metrics c in
          let value name = Option.value ~default:0 (prom_value text name) in
          alone = expected && pooled = expected && value "serve_inline" > 0 && value "pool_tasks" > 0))

(* The serve-bench smoke: a tiny overload round, raising if an accepted
   reply diverges from a sequential run or an offered query goes
   unaccounted. *)
let bench_smoke () = Serve_bench.smoke ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "json rejects" `Quick json_rejects;
          Alcotest.test_case "json numbers" `Quick json_numbers;
          Alcotest.test_case "request frames" `Quick parse_request_frames;
          Alcotest.test_case "reply roundtrip" `Quick reply_roundtrip;
          prop_json_roundtrip;
          prop_parse_request_bytes;
          prop_parse_request_mutated;
          prop_hits_reply_roundtrip;
          Alcotest.test_case "encoders = recorded frames" `Quick wire_fixture;
          Alcotest.test_case "client splits replies at newlines" `Quick client_line_reader;
          prop_readers_match_reference;
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
          Alcotest.test_case "domains over the limit" `Quick server_domains_over_limit;
          Alcotest.test_case "start builds the prefix table" `Quick
            server_start_prepares_default_engine;
          Alcotest.test_case "metrics add up across worker domains" `Quick
            server_metrics_add_up;
          Alcotest.test_case "engine exception costs one answer" `Quick
            server_engine_exception_isolated;
          Alcotest.test_case "unservable engine refused" `Quick
            server_refuses_unservable_engine;
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
      ( "inline",
        [
          Alcotest.test_case "lone query answered on the loop" `Quick server_lone_query_inline;
          Alcotest.test_case "cut query finished by a worker" `Quick
            server_cut_query_handed_to_pool;
          prop_daemon_matches_naive;
        ] );
      ( "poll",
        [
          Alcotest.test_case "poll rule" `Quick poll_rule;
          Alcotest.test_case "paused client polled once" `Quick server_paused_client_polled_once;
          Alcotest.test_case "completion ends a poll" `Quick server_completion_ends_poll;
        ] );
      ("bench", [ Alcotest.test_case "serve bench smoke" `Quick bench_smoke ]);
    ]
