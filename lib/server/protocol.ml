(* Newline-JSON wire protocol: see protocol.mli for the frame grammar.
   The JSON layer is hand-rolled (the repo is dependency-free by policy)
   and hardened the same way the index parser is: explicit bounds
   (depth, frame length), no exceptions escaping, and every rejection a
   typed [Kmm_error.Bad_input] the daemon can answer with.

   One scanner reads every frame: a cursor over the string that takes a
   string without escapes as one [String.sub], accumulates integers in
   place and compares literals in place.  [Json.of_string] builds a tree
   on it; the frame readers below read their members straight into a
   request or a hit list and build a tree only for an id and for the
   members of an [Ok_obj] reply.  The encoders write into one [Buffer]
   with the same writers the tree printer uses. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* --- writers ----------------------------------------------------- *)

  let hex = "0123456789abcdef"

  (* Runs that need no escape are copied whole. *)
  let add_escaped buf s =
    Buffer.add_char buf '"';
    let run = ref 0 in
    String.iteri
      (fun i c ->
        if c = '"' || c = '\\' || Char.code c < 0x20 then begin
          Buffer.add_substring buf s !run (i - !run);
          run := i + 1;
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c ->
              Buffer.add_string buf "\\u00";
              Buffer.add_char buf hex.[Char.code c lsr 4];
              Buffer.add_char buf hex.[Char.code c land 15]
        end)
      s;
    Buffer.add_substring buf s !run (String.length s - !run);
    Buffer.add_char buf '"'

  (* Decimal digits of [-m] for [m <= 0], so [min_int] needs no case. *)
  let rec add_digits buf m =
    if m <= -10 then add_digits buf (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))

  let add_int buf n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf n
    end
    else add_digits buf (-n)

  let add_float buf f =
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

  let rec add_value buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> add_int buf n
    | Float f -> add_float buf f
    | String s -> add_escaped buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            add_value buf x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            add_value buf x)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    add_value buf v;
    Buffer.contents buf

  (* --- scanner ----------------------------------------------------- *)

  exception Parse_error of string

  type cursor = {
    s : string;
    mutable pos : int;
    max_depth : int;
    mutable whole : bool;  (* the last number read was an int *)
    mutable frac : float;  (* ... and if not, its value *)
  }

  let cursor ?(max_depth = 64) s = { s; pos = 0; max_depth; whole = true; frac = 0. }

  let fail c fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "%s at byte %d" m c.pos))) fmt

  let more c = c.pos < String.length c.s

  let skip_ws c =
    let s = c.s and i = ref c.pos in
    while
      !i < String.length s
      && match String.unsafe_get s !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr i
    done;
    c.pos <- !i

  (* The byte a value starts with, past any blanks. *)
  let next c =
    skip_ws c;
    if more c then String.unsafe_get c.s c.pos else fail c "unexpected end of input"

  let expect c ch =
    if not (more c) then fail c "expected %C, found end of input" ch
    else if c.s.[c.pos] = ch then c.pos <- c.pos + 1
    else fail c "expected %C, found %C" ch c.s.[c.pos]

  (* [k] equals the [String.length k] bytes of [s] from [start + i] on,
     which exist. *)
  let rec same_bytes k s start i =
    i = String.length k
    || (String.unsafe_get k i = String.unsafe_get s (start + i) && same_bytes k s start (i + 1))

  let literal c word =
    let l = String.length word in
    if c.pos + l <= String.length c.s && same_bytes word c.s c.pos 0 then c.pos <- c.pos + l
    else fail c "invalid literal"

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

  let hex4 c =
    if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match c.s.[c.pos] with
        | '0' .. '9' as ch -> Char.code ch - Char.code '0'
        | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
        | ch -> fail c "invalid hex digit %C in \\u escape" ch
      in
      v := (!v * 16) + d;
      c.pos <- c.pos + 1
    done;
    !v

  (* A string that holds an escape: its bytes from [start] up to the
     cursor, which is at the first backslash, are plain. *)
  let escaped_string c start =
    let buf = Buffer.create (c.pos - start + 16) in
    Buffer.add_substring buf c.s start (c.pos - start);
    let rec go () =
      if not (more c) then fail c "unterminated string"
      else
        match c.s.[c.pos] with
        | '"' -> c.pos <- c.pos + 1
        | '\\' ->
            c.pos <- c.pos + 1;
            if not (more c) then fail c "unterminated escape";
            (match c.s.[c.pos] with
            | 'u' ->
                c.pos <- c.pos + 1;
                add_utf8 buf (hex4 c)
            | ch ->
                Buffer.add_char buf
                  (match ch with
                  | '"' | '\\' | '/' -> ch
                  | 'b' -> '\b'
                  | 'f' -> '\012'
                  | 'n' -> '\n'
                  | 'r' -> '\r'
                  | 't' -> '\t'
                  | ch -> fail c "invalid escape \\%C" ch);
                c.pos <- c.pos + 1);
            go ()
        | ch when Char.code ch < 0x20 -> fail c "raw control character in string"
        | _ ->
            Buffer.add_char buf c.s.[c.pos];
            c.pos <- c.pos + 1;
            go ()
    in
    go ();
    Buffer.contents buf

  (* The [len] bytes of [s] from [start]: the element of [known] they
     spell if there is one, else a copy. *)
  let rec shared known s start len j =
    if j = Array.length known then String.sub s start len
    else
      let k = Array.unsafe_get known j in
      if String.length k = len && same_bytes k s start 0 then k else shared known s start len (j + 1)

  (* A string without escapes is read in place: a key or a value a
     reader expects (listed in [known]) costs no allocation, any other
     one [String.sub]. *)
  let string_in known c =
    expect c '"';
    let s = c.s and start = c.pos in
    let i = ref start in
    while
      !i < String.length s
      &&
      let ch = String.unsafe_get s !i in
      ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
    do
      incr i
    done;
    c.pos <- !i;
    if not (more c) then fail c "unterminated string"
    else
      match String.unsafe_get s !i with
      | '"' ->
          c.pos <- !i + 1;
          shared known s start (!i - start) 0
      | '\\' -> escaped_string c start
      | _ -> fail c "raw control character in string"

  let string c = string_in [||] c

  let is_digit s i =
    i < String.length s && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

  let digits c =
    let d0 = c.pos in
    while is_digit c.s c.pos do
      c.pos <- c.pos + 1
    done;
    if c.pos = d0 then fail c "invalid number"

  (* [Stdlib.min_int] is a global, not a constant: dividing it in the
     digit loop would cost a division per digit. *)
  let min_int_tenth = min_int / 10

  (* A number's value when [c.whole] is left set; otherwise (a fraction,
     an exponent, or an integer beyond [int]) its value is [c.frac]. *)
  let number c =
    let s = c.s and start = c.pos in
    let negative = more c && String.unsafe_get s start = '-' in
    let d0 = if negative then start + 1 else start in
    (* Accumulated as a non-positive int, so [min_int] fits.  The loop
       calls nothing, so its state stays in registers. *)
    let i = ref d0 and acc = ref 0 and fits = ref true in
    while
      !i < String.length s && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      let d = Char.code (String.unsafe_get s !i) - Char.code '0' in
      if !acc >= min_int_tenth && !acc * 10 >= min_int + d then acc := (!acc * 10) - d
      else fits := false;
      incr i
    done;
    c.pos <- !i;
    if !i = d0 then fail c "invalid number";
    let whole = ref (!fits && (negative || !acc <> min_int)) in
    if more c && s.[c.pos] = '.' then begin
      whole := false;
      c.pos <- c.pos + 1;
      digits c
    end;
    if more c && (s.[c.pos] = 'e' || s.[c.pos] = 'E') then begin
      whole := false;
      c.pos <- c.pos + 1;
      if more c && (s.[c.pos] = '+' || s.[c.pos] = '-') then c.pos <- c.pos + 1;
      digits c
    end;
    c.whole <- !whole;
    if !whole then if negative then !acc else - !acc
    else begin
      c.frac <- float_of_string (String.sub s start (c.pos - start));
      0
    end

  (* At a '[' or '{': step in; [false] when the container is empty. *)
  let enter c close =
    c.pos <- c.pos + 1;
    skip_ws c;
    if more c && c.s.[c.pos] = close then begin
      c.pos <- c.pos + 1;
      false
    end
    else true

  (* After an element or a member: [true] when another one follows. *)
  let continues c close =
    skip_ws c;
    if more c && c.s.[c.pos] = ',' then begin
      c.pos <- c.pos + 1;
      true
    end
    else if more c && c.s.[c.pos] = close then begin
      c.pos <- c.pos + 1;
      false
    end
    else fail c "expected ',' or %C" close

  (* A member's key; the cursor is left at its value. *)
  let key_in known c =
    skip_ws c;
    let k = string_in known c in
    skip_ws c;
    expect c ':';
    k

  (* The value at depth [depth]: its tree when [build], else [Null]
     once the value has been checked to its end. *)
  let rec value ~build c depth =
    if depth > c.max_depth then fail c "nesting deeper than %d" c.max_depth;
    match next c with
    | 'n' -> literal c "null"; Null
    | 't' -> literal c "true"; Bool true
    | 'f' -> literal c "false"; Bool false
    | '"' ->
        let s = string c in
        if build then String s else Null
    | '-' | '0' .. '9' ->
        let n = number c in
        if not build then Null else if c.whole then Int n else Float c.frac
    | '[' ->
        let items = ref [] and go = ref (enter c ']') in
        while !go do
          let v = value ~build c (depth + 1) in
          if build then items := v :: !items;
          go := continues c ']'
        done;
        if build then List (List.rev !items) else Null
    | '{' ->
        let fields = ref [] and go = ref (enter c '}') in
        while !go do
          let k = key_in [||] c in
          let v = value ~build c (depth + 1) in
          if build then fields := (k, v) :: !fields;
          go := continues c '}'
        done;
        if build then Obj (List.rev !fields) else Null
    | ch -> fail c "unexpected character %C" ch

  let tree c depth = value ~build:true c depth
  let skip c depth = ignore (value ~build:false c depth)

  (* Only blanks may follow the document's value. *)
  let finish c =
    skip_ws c;
    if more c then fail c "trailing garbage"

  let of_string ?max_depth s =
    let c = cursor ?max_depth s in
    match
      let v = tree c 0 in
      finish c;
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

module Registry = Core.Kmismatch.Engine_registry

(* The daemon serves the engines that answer from what the index file
   holds: [caps.scales] marks exactly those. *)
let servable () = List.filter (fun e -> e.Registry.caps.Registry.scales) (Registry.all ())

let servable_engines () = List.map (fun e -> e.Registry.engine) (servable ())

(* A query frame's engine: one registry lookup, whose entry's [caps]
   decide whether the daemon serves it. *)
let resolve_engine name =
  let refuse m =
    Error
      (bad "%s (servable: %s)" m
         (String.concat ", " (List.map (fun e -> e.Registry.name) (servable ()))))
  in
  match Registry.find_name name with
  | Some e when e.Registry.caps.Registry.scales -> Ok e.Registry.engine
  | Some e ->
      refuse
        (Printf.sprintf "engine %s is not served: it needs state the index file does not hold"
           e.Registry.name)
  | None -> refuse (Printf.sprintf "unknown engine %S" name)

(* A member a reader looks for: absent, read as the frame needs it, or
   of another JSON type.  The first occurrence of a key is the one read;
   later ones are only checked. *)
type 'a member = Absent | Read of 'a | Wrong

let absent = function Absent -> true | Read _ | Wrong -> false

(* Members sit at depth 1, below the frame's object. *)
let string_member known c =
  match Json.next c with
  | '"' -> Read (Json.string_in known c)
  | _ ->
      Json.skip c 1;
      Wrong

(* An int, or [Wrong] for a number with a fraction or beyond [int]. *)
let int_member c =
  match Json.next c with
  | '-' | '0' .. '9' ->
      let n = Json.number c in
      if c.Json.whole then Read n else Wrong
  | _ ->
      Json.skip c 1;
      Wrong

let number_member c =
  match Json.next c with
  | '-' | '0' .. '9' ->
      let n = Json.number c in
      Read (if c.Json.whole then float_of_int n else c.Json.frac)
  | _ ->
      Json.skip c 1;
      Wrong

(* The frame's object, one member at a time through [member c key]
   ([keys] are the keys [member] looks for); [false] (the value checked
   to its end) for any other JSON value.  Either way only blanks may
   follow. *)
let read_object c keys member =
  let is_object = Json.next c = '{' in
  if is_object then begin
    let go = ref (Json.enter c '}') in
    while !go do
      member c (Json.key_in keys c);
      go := Json.continues c '}'
    done
  end
  else Json.skip c 0;
  Json.finish c;
  is_object

let request_keys = [| "id"; "cmd"; "pattern"; "k"; "deadline"; "engine" |]
let commands = [| "query"; "ping"; "metrics"; "info"; "shutdown" |]

let parse_request ~limits line =
  if String.length line > limits.max_frame then
    Error
      ( Json.Null,
        bad "frame of %d bytes exceeds max_frame %d" (String.length line)
          limits.max_frame )
  else
    let id = ref None and cmd = ref Absent and pattern = ref Absent and k = ref Absent in
    let deadline = ref Absent and engine = ref Absent in
    let member c = function
      | "id" when Option.is_none !id -> id := Some (Json.tree c 1)
      | "cmd" when absent !cmd -> cmd := string_member commands c
      | "pattern" when absent !pattern -> pattern := string_member [||] c
      | "k" when absent !k -> k := int_member c
      | "deadline" when absent !deadline -> deadline := number_member c
      | "engine" when absent !engine -> engine := string_member [||] c
      | _ -> Json.skip c 1
    in
    (* The whole frame is read before any member is judged, so a syntax
       error anywhere is the one reported. *)
    match read_object (Json.cursor line) request_keys member with
    | exception Json.Parse_error m -> Error (Json.Null, bad "malformed request: %s" m)
    | false -> Error (Json.Null, bad "request must be a JSON object")
    | true -> (
        let id = Option.value ~default:Json.Null !id in
        let reject e = Error (id, e) in
        match !cmd with
        | Wrong -> reject (bad "\"cmd\" must be a string")
        | Read "ping" -> Ok { id; body = Ping }
        | Read "metrics" -> Ok { id; body = Metrics }
        | Read "info" -> Ok { id; body = Info }
        | Read "shutdown" -> Ok { id; body = Shutdown }
        | Absent | Read "query" -> (
            match !pattern with
            | Absent -> reject (bad "missing \"pattern\"")
            | Wrong -> reject (bad "\"pattern\" must be a string")
            | Read pattern when String.length pattern > limits.max_pattern ->
                reject
                  (bad "pattern of %d bp exceeds max_pattern %d" (String.length pattern)
                     limits.max_pattern)
            | Read pattern -> (
                let k = match !k with Absent -> Some 0 | Read k -> Some k | Wrong -> None in
                match k with
                | None -> reject (bad "\"k\" must be an integer")
                | Some k when k > limits.max_k -> reject (bad "k=%d exceeds max_k %d" k limits.max_k)
                | Some k -> (
                    (* Relative compute budget in seconds; the server
                       anchors it to its monotonic clock at admission.
                       Relative (not absolute wall time) so client and
                       server clocks never need to agree. *)
                    match !deadline with
                    | Wrong -> reject (bad "\"deadline\" must be a number of seconds")
                    | Read s when not (s > 0. && Float.is_finite s) ->
                        reject (bad "\"deadline\" must be positive")
                    | (Absent | Read _) as d -> (
                        let deadline = match d with Read s -> Some s | _ -> None in
                        let query engine = Ok { id; body = Query { pattern; k; engine; deadline } } in
                        match !engine with
                        | Absent -> query Core.Kmismatch.default_engine
                        | Wrong -> reject (bad "\"engine\" must be a string")
                        | Read name -> (
                            (* [-]/[_] spellings are both accepted; a
                               rejection lists the servable names. *)
                            match resolve_engine name with
                            | Ok engine -> query engine
                            | Error e -> reject e)))))
        | Read other ->
            reject
              (bad "unknown cmd %S (expected one of: query, ping, metrics, info, shutdown)"
                 other))

(* --- encoding ------------------------------------------------------ *)

(* A frame's bytes: ["{"], the id member unless it is [Null], then what
   [members] writes. *)
let frame ?(size = 128) id members =
  let buf = Buffer.create size in
  Buffer.add_char buf '{';
  (match id with
  | Json.Null -> ()
  | id ->
      Buffer.add_string buf "\"id\":";
      Json.add_value buf id;
      Buffer.add_char buf ',');
  members buf;
  Buffer.add_char buf '}';
  Buffer.contents buf

let query_request ?(id = Json.Null) ?engine ?deadline ~pattern ~k () =
  frame ~size:(String.length pattern + 64) id (fun buf ->
      Buffer.add_string buf "\"pattern\":";
      Json.add_escaped buf pattern;
      Buffer.add_string buf ",\"k\":";
      Json.add_int buf k;
      Option.iter
        (fun s ->
          Buffer.add_string buf ",\"deadline\":";
          Json.add_float buf s)
        deadline;
      Option.iter
        (fun e ->
          Buffer.add_string buf ",\"engine\":";
          Json.add_escaped buf (Core.Kmismatch.engine_name e))
        engine)

let command_request ?(id = Json.Null) cmd =
  frame id (fun buf ->
      Buffer.add_string buf "\"cmd\":";
      Json.add_escaped buf cmd)

let ok_hits_response ~id ~truncated hits =
  let count = List.length hits in
  frame ~size:(64 + (16 * count)) id (fun buf ->
      Buffer.add_string buf "\"status\":\"ok\",\"count\":";
      Json.add_int buf count;
      Buffer.add_string buf
        (if truncated then ",\"truncated\":true,\"hits\":[" else ",\"truncated\":false,\"hits\":[");
      List.iteri
        (fun i (p, d) ->
          Buffer.add_string buf (if i = 0 then "[" else ",[");
          Json.add_int buf p;
          Buffer.add_char buf ',';
          Json.add_int buf d;
          Buffer.add_char buf ']')
        hits;
      Buffer.add_char buf ']')

let ok_obj_response ~id fields =
  frame id (fun buf ->
      Buffer.add_string buf "\"status\":\"ok\"";
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Json.add_escaped buf k;
          Buffer.add_char buf ':';
          Json.add_value buf v)
        fields)

let error_response ~id e =
  frame id (fun buf ->
      Buffer.add_string buf "\"status\":\"error\",\"code\":";
      Json.add_int buf (Kmm_error.exit_code e);
      Buffer.add_string buf ",\"error\":";
      Json.add_escaped buf (Kmm_error.to_string e))

(* --- replies ------------------------------------------------------- *)

type reply =
  | Hits of { id : Json.t; hits : (int * int) list; truncated : bool }
  | Ok_obj of { id : Json.t; fields : (string * Json.t) list }
  | Error_reply of { id : Json.t; code : int; message : string }

(* One element of a hit entry (depth 3); [ok] is cleared unless it is an
   int. *)
let hit_int c ok =
  match Json.next c with
  | '-' | '0' .. '9' ->
      let n = Json.number c in
      if not c.Json.whole then ok := false;
      n
  | _ ->
      Json.skip c 3;
      ok := false;
      0

(* One entry of a hits list (depth 2): its [(position, distance)] when
   it is a list of exactly two ints; otherwise [ok] is cleared and the
   entry checked to its end. *)
let hit_entry c ok =
  if Json.next c <> '[' then begin
    Json.skip c 2;
    ok := false;
    (0, 0)
  end
  else if not (Json.enter c ']') then begin
    ok := false;
    (0, 0)
  end
  else
    let p = hit_int c ok in
    if not (Json.continues c ']') then begin
      ok := false;
      (0, 0)
    end
    else
      let d = hit_int c ok in
      let go = ref (Json.continues c ']') in
      if !go then ok := false;
      while !go do
        Json.skip c 3;
        go := Json.continues c ']'
      done;
      (p, d)

let[@tail_mod_cons] rec hit_entries c ok =
  let h = hit_entry c ok in
  h :: (if Json.continues c ']' then hit_entries c ok else [])

(* The [hits] member: [Read (Some hits)], [Read None] when an entry is
   not a pair of ints, [Wrong] when it is not a list. *)
let hits_member c =
  if Json.next c <> '[' then begin
    Json.skip c 1;
    Wrong
  end
  else if not (Json.enter c ']') then Read (Some [])
  else
    let ok = ref true in
    let hits = hit_entries c ok in
    Read (if !ok then Some hits else None)

let reply_keys = [| "id"; "status"; "count"; "truncated"; "hits"; "code"; "error" |]
let statuses = [| "ok"; "error" |]

let parse_reply line =
  (* [others] holds every member but [id], [status] and [hits], newest
     first: an [Ok_obj]'s fields, and where [code], [error] and
     [truncated] are looked up. *)
  let id = ref None and status = ref Absent and hits = ref Absent and others = ref [] in
  let member c = function
    | "id" -> if Option.is_none !id then id := Some (Json.tree c 1) else Json.skip c 1
    | "status" -> if absent !status then status := string_member statuses c else Json.skip c 1
    | "hits" -> if absent !hits then hits := hits_member c else Json.skip c 1
    | key -> others := (key, Json.tree c 1) :: !others
  in
  match read_object (Json.cursor line) reply_keys member with
  | exception Json.Parse_error m -> Error (Printf.sprintf "malformed reply: %s" m)
  | false -> Error "reply is not a JSON object"
  | true -> (
      let id = Option.value ~default:Json.Null !id in
      (* The first [key] member in frame order, the last in [others]. *)
      let first key =
        List.fold_left (fun found (k, v) -> if String.equal k key then Some v else found) None !others
      in
      match !status with
      | Read "error" ->
          let code = match first "code" with Some (Json.Int c) -> c | _ -> 8 in
          let message =
            match first "error" with
            | Some (Json.String m) -> m
            | _ -> "unknown error"
          in
          Ok (Error_reply { id; code; message })
      | Read "ok" -> (
          match !hits with
          | Read (Some hits) ->
              let truncated =
                match first "truncated" with Some (Json.Bool b) -> b | _ -> false
              in
              Ok (Hits { id; hits; truncated })
          | Read None -> Error "malformed hit entry in reply"
          | Wrong -> Error "\"hits\" must be a list"
          | Absent -> Ok (Ok_obj { id; fields = List.rev !others }))
      | _ -> Error "reply carries no \"status\"")

let render_hits hits =
  String.concat " " (List.map (fun (p, d) -> Printf.sprintf "%d:%d" p d) hits)
