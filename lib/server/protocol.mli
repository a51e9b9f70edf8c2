(** Wire protocol of the [kmm serve] daemon: newline-delimited JSON.

    One request per line, one response per line.  A frame is a single
    [\n]-terminated line of UTF-8 JSON no longer than
    {!limits.max_frame} bytes; responses never contain a raw newline
    (the encoder escapes them), so framing can never desynchronize on
    well-formed traffic, and a malformed line costs exactly one typed
    error response — never the connection, never the daemon.

    {2 Requests}

    A request is a JSON object.  [cmd] selects the operation (default
    ["query"]); [id] is an arbitrary scalar echoed verbatim in the
    response so clients may pipeline:

    {v
    {"cmd":"query","id":7,"pattern":"acgtacgt","k":2,"engine":"m-tree"}
    {"cmd":"query","id":8,"pattern":"acgtacgt","k":2,"deadline":0.25}
    {"cmd":"ping"}
    {"cmd":"metrics"}
    {"cmd":"info"}
    {"cmd":"shutdown"}
    v}

    [pattern] is required for queries; [k] defaults to [0]; [engine]
    defaults to {!Core.Kmismatch.default_engine} (["bidir"]) and
    accepts the names of {!servable_engines}: the registered engines
    whose [caps.scales] holds, which answer from what the index file
    holds.  Any other
    registered engine (cole's suffix tree, the online scans) is refused
    with [Bad_input] before it could build per-index state inside a
    request.  [deadline] (optional) is the query's
    compute budget in {e relative} seconds — relative so client and
    server clocks never need to agree; the server anchors it to its own
    monotonic clock the moment the frame is admitted, and the budget
    covers queue wait as well as search.  A query whose budget expires
    answers with a typed [Timeout] error frame (code 9) and discards all
    partial work; a non-positive or non-numeric [deadline] is
    [Bad_input].

    {2 Responses}

    {v
    {"id":7,"status":"ok","count":3,"truncated":false,"hits":[[12,0],[40,2],[77,1]]}
    {"id":7,"status":"error","code":2,"error":"bad input: ..."}
    v}

    [hits] are [[position, distance]] pairs ascending by position —
    exactly {!Core.Kmismatch.Response.t.hits}.  [truncated] is [true]
    when the hit list was cut at {!limits.max_hits}.  Error responses
    carry the {!Kmm_error.exit_code} of the typed failure as [code], so
    a client can react exactly as a [kmm] CLI caller would to the
    process exit code. *)

(** A minimal JSON value, parser and printer — just enough for the wire
    protocol, so the repo stays dependency-free.  Integers are kept
    exact ([Int]); anything with a fraction or exponent, or an integer
    beyond [int], parses as [Float].  The parser enforces a
    nesting-depth bound (stack safety on adversarial frames) and rejects
    trailing garbage.  It runs on the same scanner as {!parse_request}
    and {!parse_reply}, so those reject exactly the frames [of_string]
    rejects, with the same message. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped so the output never
      contains a control character (in particular, never a raw
      newline).  A finite [Float] always prints with a fraction or an
      exponent, so [of_string (to_string v) = Ok v] for every value
      within the depth bound that holds no NaN or infinity. *)

  val of_string : ?max_depth:int -> string -> (t, string) result
  (** Parse one JSON value spanning the whole input (leading/trailing
      whitespace allowed).  [max_depth] (default 64) bounds list/object
      nesting.  The error string says what failed and where. *)

  val member : string -> t -> t option
  (** [member key (Obj _)] — [None] on absent key or non-object. *)

  val equal : t -> t -> bool
end

(** {1 Admission limits} *)

type limits = {
  max_pattern : int;  (** longest admissible pattern, in bases *)
  max_k : int;  (** largest admissible mismatch budget *)
  max_hits : int;
      (** hits per response; longer hit lists are truncated and flagged *)
  max_frame : int;  (** longest admissible request line, in bytes *)
}

val default_limits : limits
(** [{ max_pattern = 4096; max_k = 64; max_hits = 100_000;
    max_frame = 65_536 }]. *)

val limits_to_json : limits -> Json.t
(** The object embedded in [info] responses. *)

(** {1 Requests} *)

type body =
  | Query of {
      pattern : string;
      k : int;
      engine : Core.Kmismatch.engine;
      deadline : float option;  (** relative seconds, validated positive *)
    }
  | Ping
  | Metrics
  | Info
  | Shutdown

type request = { id : Json.t;  (** [Null] when absent *) body : body }

val servable_engines : unit -> Core.Kmismatch.engine list
(** The engines a query frame may name, in registration order: those
    whose registry entry has [caps.scales]. *)

val parse_request :
  limits:limits -> string -> (request, Json.t * Kmm_error.t) result
(** Parse and admit one frame.  Every failure is typed — malformed JSON,
    a non-object, a missing or mistyped field, an unknown [cmd], an
    unknown or unservable [engine] (the message names the servable
    ones), a pattern longer than [max_pattern], [k > max_k], or a
    frame longer than [max_frame] all map to [Kmm_error.Bad_input] —
    paired with the request [id] when one could be recovered ([Null]
    otherwise), so the server can echo it on the rejection.  Validation
    the engines already own (empty pattern, non-ACGT bases, negative
    [k]) is deliberately {e not} duplicated here: those flow through
    {!Core.Kmismatch.try_run}'s typed channel.

    The frame's members are read straight into the request, with no
    intermediate tree (one is built only for [id]); the first occurrence
    of a repeated key is the one read, and the whole frame is scanned
    before any member is judged, so a syntax error anywhere in it is the
    error reported. *)

(** {1 Encoding} *)

val query_request :
  ?id:Json.t ->
  ?engine:Core.Kmismatch.engine ->
  ?deadline:float ->
  pattern:string ->
  k:int ->
  unit ->
  string
(** One query frame (no trailing newline).  [deadline] is the relative
    compute budget in seconds (see the frame grammar above). *)

val command_request : ?id:Json.t -> string -> string
(** A bare-command frame: [command_request "ping"] etc. *)

val ok_hits_response :
  id:Json.t -> truncated:bool -> (int * int) list -> string

val ok_obj_response : id:Json.t -> (string * Json.t) list -> string

val error_response : id:Json.t -> Kmm_error.t -> string

(** {1 Replies (client side)} *)

type reply =
  | Hits of { id : Json.t; hits : (int * int) list; truncated : bool }
  | Ok_obj of { id : Json.t; fields : (string * Json.t) list }
  | Error_reply of { id : Json.t; code : int; message : string }

val parse_reply : string -> (reply, string) result
(** Read one reply frame (client side).  Its members go straight into
    the reply: [hits] into the pair list, with no intermediate tree;
    a tree is built only for [id] and for the fields of an [Ok_obj].
    As in {!parse_request}, the first occurrence of a repeated key is
    the one read.  A frame that is not JSON, not an object, has no
    [status], or has a [hits] that is not a list of integer pairs is an
    [Error] naming what failed. *)

val render_hits : (int * int) list -> string
(** Canonical ["pos:dist pos:dist ..."] rendering — the form the
    byte-identity tests and the serve bench compare. *)
