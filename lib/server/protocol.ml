(* Newline-JSON wire protocol: see protocol.mli for the frame grammar.
   The JSON layer is hand-rolled (the repo is dependency-free by policy)
   and hardened the same way the index parser is: explicit bounds
   (depth, frame length), no exceptions escaping, and every rejection a
   typed [Kmm_error.Bad_input] the daemon can answer with. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* --- printer ----------------------------------------------------- *)

  let escape_into buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f ->
          (* JSON has no NaN/Inf; clamp to null like most encoders. *)
          if Float.is_finite f then begin
            let s = Printf.sprintf "%.17g" f in
            Buffer.add_string buf s;
            (* Keep an integral float a float: "3" would parse back as
               [Int 3]. *)
            if not (String.exists (fun c -> c = '.' || c = 'e') s) then
              Buffer.add_string buf ".0"
          end
          else Buffer.add_string buf "null"
      | String s -> escape_into buf s
      | List l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            l;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              escape_into buf k;
              Buffer.add_char buf ':';
              go x)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  (* --- parser ------------------------------------------------------ *)

  exception Parse_error of string

  let of_string ?(max_depth = 64) s =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "%s at byte %d" m !pos))) fmt
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> incr pos
      | Some c' -> fail "expected %C, found %C" c c'
      | None -> fail "expected %C, found end of input" c
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "invalid literal"
    in
    (* Encode one code point as UTF-8 (for \uXXXX escapes). *)
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = ref 0 in
      for _ = 1 to 4 do
        let d =
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | c -> fail "invalid hex digit %C in \\u escape" c
        in
        v := (!v * 16) + d;
        incr pos
      done;
      !v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'; incr pos
                 | '\\' -> Buffer.add_char buf '\\'; incr pos
                 | '/' -> Buffer.add_char buf '/'; incr pos
                 | 'b' -> Buffer.add_char buf '\b'; incr pos
                 | 'f' -> Buffer.add_char buf '\012'; incr pos
                 | 'n' -> Buffer.add_char buf '\n'; incr pos
                 | 'r' -> Buffer.add_char buf '\r'; incr pos
                 | 't' -> Buffer.add_char buf '\t'; incr pos
                 | 'u' ->
                     incr pos;
                     add_utf8 buf (hex4 ())
                 | c -> fail "invalid escape \\%C" c);
              go ()
          | c when Char.code c < 0x20 -> fail "raw control character in string"
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let digits () =
        let d0 = !pos in
        while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
          incr pos
        done;
        if !pos = d0 then fail "invalid number"
      in
      digits ();
      let fractional = ref false in
      if peek () = Some '.' then begin
        fractional := true;
        incr pos;
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
          fractional := true;
          incr pos;
          (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
          digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if !fractional then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text) (* out of int range *)
    in
    let rec parse_value depth =
      if depth > max_depth then fail "nesting deeper than %d" max_depth;
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> lit "null" Null
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let items = ref [] in
            let rec go () =
              items := parse_value (depth + 1) :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; go ()
              | Some ']' -> incr pos
              | _ -> fail "expected ',' or ']'"
            in
            go ();
            List (List.rev !items)
          end
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec go () =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              fields := (key, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> incr pos; go ()
              | Some '}' -> incr pos
              | _ -> fail "expected ',' or '}'"
            in
            go ();
            Obj (List.rev !fields)
          end
      | Some c -> fail "unexpected character %C" c
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error m -> Error m

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let rec equal a b =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y
    | String x, String y -> String.equal x y
    | List x, List y -> ( try List.for_all2 equal x y with Invalid_argument _ -> false)
    | Obj x, Obj y -> (
        try List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
        with Invalid_argument _ -> false)
    | _ -> false
end

(* ------------------------------------------------------------------ *)

type limits = { max_pattern : int; max_k : int; max_hits : int; max_frame : int }

let default_limits =
  { max_pattern = 4096; max_k = 64; max_hits = 100_000; max_frame = 65_536 }

let limits_to_json l =
  Json.Obj
    [
      ("max_pattern", Json.Int l.max_pattern);
      ("max_k", Json.Int l.max_k);
      ("max_hits", Json.Int l.max_hits);
      ("max_frame", Json.Int l.max_frame);
    ]

type body =
  | Query of {
      pattern : string;
      k : int;
      engine : Core.Kmismatch.engine;
      deadline : float option;
    }
  | Ping
  | Metrics
  | Info
  | Shutdown

type request = { id : Json.t; body : body }

let bad fmt = Printf.ksprintf (fun m -> Kmm_error.Bad_input m) fmt


let parse_request ~limits line =
  if String.length line > limits.max_frame then
    Error
      ( Json.Null,
        bad "frame of %d bytes exceeds max_frame %d" (String.length line)
          limits.max_frame )
  else
    match Json.of_string line with
    | Error m -> Error (Json.Null, bad "malformed request: %s" m)
    | Ok (Json.Obj _ as obj) -> (
        let id = Option.value ~default:Json.Null (Json.member "id" obj) in
        let reject e = Error (id, e) in
        let cmd =
          match Json.member "cmd" obj with
          | None -> Ok "query"
          | Some (Json.String c) -> Ok c
          | Some _ -> Error (bad "\"cmd\" must be a string")
        in
        match cmd with
        | Error e -> reject e
        | Ok "ping" -> Ok { id; body = Ping }
        | Ok "metrics" -> Ok { id; body = Metrics }
        | Ok "info" -> Ok { id; body = Info }
        | Ok "shutdown" -> Ok { id; body = Shutdown }
        | Ok "query" -> (
            match Json.member "pattern" obj with
            | None -> reject (bad "missing \"pattern\"")
            | Some (Json.String pattern) -> (
                if String.length pattern > limits.max_pattern then
                  reject
                    (bad "pattern of %d bp exceeds max_pattern %d"
                       (String.length pattern) limits.max_pattern)
                else
                  let k =
                    match Json.member "k" obj with
                    | None -> Ok 0
                    | Some (Json.Int k) -> Ok k
                    | Some _ -> Error (bad "\"k\" must be an integer")
                  in
                  match k with
                  | Error e -> reject e
                  | Ok k when k > limits.max_k ->
                      reject (bad "k=%d exceeds max_k %d" k limits.max_k)
                  | Ok k -> (
                      (* Relative compute budget in seconds; the server
                         anchors it to its monotonic clock at admission.
                         Relative (not absolute wall time) so client and
                         server clocks never need to agree. *)
                      let deadline =
                        match Json.member "deadline" obj with
                        | None -> Ok None
                        | Some (Json.Int s) when s > 0 ->
                            Ok (Some (float_of_int s))
                        | Some (Json.Float s) when s > 0. && Float.is_finite s
                          ->
                            Ok (Some s)
                        | Some (Json.Int _ | Json.Float _) ->
                            Error (bad "\"deadline\" must be positive")
                        | Some _ ->
                            Error
                              (bad "\"deadline\" must be a number of seconds")
                      in
                      match deadline with
                      | Error e -> reject e
                      | Ok deadline -> (
                          match Json.member "engine" obj with
                          | None ->
                              Ok
                                {
                                  id;
                                  body =
                                    Query
                                      {
                                        pattern;
                                        k;
                                        engine = Core.Kmismatch.M_tree;
                                        deadline;
                                      };
                                }
                          | Some (Json.String name) -> (
                              (* Typed rejection straight from the
                                 registry: the message lists every
                                 valid name, and [-]/[_] spellings are
                                 both accepted. *)
                              match Core.Kmismatch.engine_of_string_err name with
                              | Ok engine ->
                                  Ok
                                    {
                                      id;
                                      body =
                                        Query { pattern; k; engine; deadline };
                                    }
                              | Error e -> reject e)
                          | Some _ -> reject (bad "\"engine\" must be a string"))))
            | Some _ -> reject (bad "\"pattern\" must be a string"))
        | Ok other ->
            reject
              (bad "unknown cmd %S (expected one of: query, ping, metrics, info, shutdown)"
                 other))
    | Ok _ -> Error (Json.Null, bad "request must be a JSON object")

(* --- encoding ------------------------------------------------------ *)

let with_id id fields =
  match id with Json.Null -> fields | id -> ("id", id) :: fields

let query_request ?(id = Json.Null) ?engine ?deadline ~pattern ~k () =
  let engine_field =
    match engine with
    | None -> []
    | Some e -> [ ("engine", Json.String (Core.Kmismatch.engine_name e)) ]
  in
  let deadline_field =
    match deadline with
    | None -> []
    | Some s -> [ ("deadline", Json.Float s) ]
  in
  Json.to_string
    (Json.Obj
       (with_id id
          ([ ("pattern", Json.String pattern); ("k", Json.Int k) ]
          @ deadline_field @ engine_field)))

let command_request ?(id = Json.Null) cmd =
  Json.to_string (Json.Obj (with_id id [ ("cmd", Json.String cmd) ]))

let ok_hits_response ~id ~truncated hits =
  Json.to_string
    (Json.Obj
       (with_id id
          [
            ("status", Json.String "ok");
            ("count", Json.Int (List.length hits));
            ("truncated", Json.Bool truncated);
            ( "hits",
              Json.List
                (List.map (fun (p, d) -> Json.List [ Json.Int p; Json.Int d ]) hits) );
          ]))

let ok_obj_response ~id fields =
  Json.to_string (Json.Obj (with_id id (("status", Json.String "ok") :: fields)))

let error_response ~id e =
  Json.to_string
    (Json.Obj
       (with_id id
          [
            ("status", Json.String "error");
            ("code", Json.Int (Kmm_error.exit_code e));
            ("error", Json.String (Kmm_error.to_string e));
          ]))

(* --- replies ------------------------------------------------------- *)

type reply =
  | Hits of { id : Json.t; hits : (int * int) list; truncated : bool }
  | Ok_obj of { id : Json.t; fields : (string * Json.t) list }
  | Error_reply of { id : Json.t; code : int; message : string }

let parse_reply line =
  match Json.of_string line with
  | Error m -> Error (Printf.sprintf "malformed reply: %s" m)
  | Ok (Json.Obj fields as obj) -> (
      let id = Option.value ~default:Json.Null (Json.member "id" obj) in
      match Json.member "status" obj with
      | Some (Json.String "error") ->
          let code =
            match Json.member "code" obj with Some (Json.Int c) -> c | _ -> 8
          in
          let message =
            match Json.member "error" obj with
            | Some (Json.String m) -> m
            | _ -> "unknown error"
          in
          Ok (Error_reply { id; code; message })
      | Some (Json.String "ok") -> (
          match Json.member "hits" obj with
          | Some (Json.List items) -> (
              let truncated =
                match Json.member "truncated" obj with
                | Some (Json.Bool b) -> b
                | _ -> false
              in
              let hit = function
                | Json.List [ Json.Int p; Json.Int d ] -> Some (p, d)
                | _ -> None
              in
              match
                List.fold_right
                  (fun item acc ->
                    match (acc, hit item) with
                    | Some tl, Some h -> Some (h :: tl)
                    | _ -> None)
                  items (Some [])
              with
              | Some hits -> Ok (Hits { id; hits; truncated })
              | None -> Error "malformed hit entry in reply")
          | Some _ -> Error "\"hits\" must be a list"
          | None ->
              Ok
                (Ok_obj
                   {
                     id;
                     fields =
                       List.filter (fun (k, _) -> k <> "status" && k <> "id") fields;
                   }))
      | _ -> Error "reply carries no \"status\"")
  | Ok _ -> Error "reply is not a JSON object"

let render_hits hits =
  String.concat " " (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) hits)
