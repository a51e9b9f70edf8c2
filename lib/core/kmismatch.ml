type engine = ..

type engine +=
  | M_tree
  | S_tree
  | S_tree_no_delta
  | Cole
  | Amir
  | Naive
  | Bidir

let default_engine = Bidir

(* The forward text and the suffix tree are derived views: the FM-index
   of the reversed text is the only component persisted, and an index
   loaded by mmap should not pay O(n) materialization up front.  All
   memos are domain-safe ([Storage.Memo], not [Lazy.t], whose concurrent
   forcing is undefined), so a mapper fan-out may race on the first
   force without corruption. *)
type index = {
  text : string Fmindex.Storage.Memo.t;
  fm_rev : Fmindex.Fm_index.t;
  tree : Suffix.Suffix_tree.t Fmindex.Storage.Memo.t;
  bidir : Fmindex.Bidir.t;
      (* [fm_rev] paired with the forward rank side it carries.  That
         side is built with the index and persisted in it (format v5),
         so pairing them costs nothing at load. *)
}

(* The FM component's payload, the reversed text, is the index's only
   text: the forward string is unpacked from it back to front on first
   use, so an mmap'd load stays O(1) and a built index does not hold
   its caller's genome. *)
let of_fm fm_rev =
  let text =
    Fmindex.Storage.Memo.make (fun () ->
        let p = Fmindex.Fm_index.packed_text fm_rev in
        let n = Fmindex.Packed_text.length p in
        String.init n (fun i -> Fmindex.Packed_text.(base_of_code (unsafe_get p (n - 1 - i)))))
  in
  let tree =
    Fmindex.Storage.Memo.make (fun () ->
        Suffix.Suffix_tree.build (Fmindex.Storage.Memo.force text))
  in
  { text; fm_rev; tree; bidir = Fmindex.Bidir.make fm_rev }

(* The reverse is derived from the validated sequence, never re-parsed,
   and the FM component keeps it only 2-bit packed. *)
let of_sequence seq =
  of_fm (Fmindex.Fm_index.build (Dna.Sequence.to_string (Dna.Sequence.rev seq)))

let build_index raw = of_sequence (Dna.Sequence.of_string raw)
let text t = Fmindex.Storage.Memo.force t.text
let length t = Fmindex.Fm_index.length t.fm_rev
let fm_rev t = t.fm_rev
let suffix_tree t = Fmindex.Storage.Memo.force t.tree

let packed_text t =
  let p = Fmindex.Fm_index.packed_text t.fm_rev in
  let n = Fmindex.Packed_text.length p in
  Fmindex.Packed_text.init n (fun i -> Fmindex.Packed_text.unsafe_get p (n - 1 - i))

let bidir t = t.bidir

(* ------------------------------------------------------------------ *)
(* The engine registry                                                  *)

module Engine_registry = struct
  type caps = { scales : bool }

  type run_args = {
    pattern : string;
    k : int;
    obs : Obs.t;
  }

  type entry = {
    engine : engine;
    name : string;
    doc : string;
    caps : caps;
    prepare : index -> unit;
    run : index -> run_args -> (int * int) list;
  }

  (* Registration order is presentation order everywhere (CLI help,
     oracle subjects, benches), so the table is an append-only list.
     Each entry is stored with its [Some], so a lookup allocates
     nothing. *)
  type slot = { entry : entry; found : entry option }

  let table : slot list ref = ref []

  (* Entries by engine value.  Nullary extension constructors are
     singletons that hash and compare by their identity, so naming an
     engine is one hashed probe, not a walk.  Registration replaces the
     table with an extended copy, so a reader never sees one mid-resize. *)
  let by_engine : (engine, entry option) Hashtbl.t ref = ref (Hashtbl.create 16)

  (* Names coincide with separators skipped and ASCII case folded, so
     "s-tree-nodelta", "s_tree_no_delta" and "STreeNoDelta" do.  The
     daemon resolves every query frame's engine name, so the two names
     are compared in place, nothing normalized. *)
  let rec same_name a b i j =
    let sep s k = k < String.length s && (s.[k] = '-' || s.[k] = '_') in
    if sep a i then same_name a b (i + 1) j
    else if sep b j then same_name a b i (j + 1)
    else if i = String.length a || j = String.length b then
      i = String.length a && j = String.length b
    else
      Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[j] && same_name a b (i + 1) (j + 1)

  let rec find_slot name = function
    | [] -> None
    | s :: rest -> if same_name s.entry.name name 0 0 then s.found else find_slot name rest

  let find eng = try Hashtbl.find !by_engine eng with Not_found -> None
  let find_name name = find_slot name !table

  let register e =
    if e.name = "" then invalid_arg "Engine_registry.register: empty name";
    (match find_name e.name with
    | Some clash ->
        invalid_arg
          (Printf.sprintf
             "Engine_registry.register: name %S collides with registered %S"
             e.name clash.name)
    | None -> ());
    (match find e.engine with
    | Some clash ->
        invalid_arg
          (Printf.sprintf
             "Engine_registry.register: engine already registered as %S"
             clash.name)
    | None -> ());
    let found = Some e in
    let engines = Hashtbl.copy !by_engine in
    Hashtbl.replace engines e.engine found;
    by_engine := engines;
    table := !table @ [ { entry = e; found } ]

  let all () = List.map (fun s -> s.entry) !table
  let names () = List.map (fun s -> s.entry.name) !table
end

let all_engines () =
  List.map (fun e -> e.Engine_registry.engine) (Engine_registry.all ())

let engine_name e =
  match Engine_registry.find e with
  | Some en -> en.Engine_registry.name
  | None -> "unregistered-engine"

let engine_names () = Engine_registry.names ()

let engine_of_string s =
  Option.map
    (fun e -> e.Engine_registry.engine)
    (Engine_registry.find_name s)

let prepare engine t =
  match Engine_registry.find engine with
  | Some e -> e.Engine_registry.prepare t
  | None -> ()

let engine_of_string_err s =
  match Engine_registry.find_name s with
  | Some e -> Ok e.Engine_registry.engine
  | None ->
      Error
        (Kmm_error.Bad_input
           (Printf.sprintf "unknown engine %S (valid: %s)" s
              (String.concat ", " (engine_names ()))))

(* The built-in engines, in presentation order.  This is the single site
   a new built-in engine touches. *)
let () =
  let open Engine_registry in
  (* The BWT baseline is Algorithm A's explorer with nothing stored: no
     interval is wide enough to materialize a node, so nothing is ever
     derived.  The config is built once, not per query. *)
  let s_tree ~use_delta =
    let config = Some { M_tree.default_config with use_delta; store_width = max_int } in
    fun t a ->
      M_tree.search ?config ~obs:a.obs t.fm_rev ~pattern:a.pattern ~k:a.k
  in
  let nothing (_ : index) = () in
  register
    {
      engine = M_tree;
      name = "m-tree";
      doc = "the paper's Algorithm A: BWT search with mismatching-tree reuse";
      caps = { scales = true };
      prepare = nothing;
      run =
        (fun t a ->
          M_tree.search ~obs:a.obs t.fm_rev ~pattern:a.pattern ~k:a.k);
    };
  register
    {
      engine = S_tree;
      name = "s-tree";
      doc = "the BWT baseline of ref. [34] with the delta heuristic";
      caps = { scales = true };
      prepare = nothing;
      run = s_tree ~use_delta:true;
    };
  register
    {
      engine = S_tree_no_delta;
      name = "s-tree-nodelta";
      doc = "the BWT baseline without the delta heuristic";
      caps = { scales = true };
      prepare = nothing;
      run = s_tree ~use_delta:false;
    };
  register
    {
      engine = Cole;
      name = "cole";
      doc = "suffix-tree brute force (ref. [14])";
      caps = { scales = false };
      prepare = (fun t -> ignore (suffix_tree t));
      run =
        (fun t a ->
          Cole.search ~obs:a.obs (suffix_tree t) ~pattern:a.pattern ~k:a.k);
    };
  register
    {
      engine = Amir;
      name = "amir";
      doc = "online mark-and-verify (ref. [2])";
      caps = { scales = false };
      prepare = nothing;
      run =
        (* The payload holds the text reversed, so the filter scans it
           for the reversed pattern: payload window w is text window
           n - w - m, and reversing the list keeps the hits ascending. *)
        (fun t a ->
          let m = String.length a.pattern and n = length t in
          let pattern = String.init m (fun i -> a.pattern.[m - 1 - i]) in
          List.rev_map
            (fun (w, d) -> (n - w - m, d))
            (Amir.search ~ptext:(Fmindex.Fm_index.packed_text t.fm_rev) ~pattern ~k:a.k));
    };
  register
    {
      engine = Naive;
      name = "naive";
      doc = "online O(mn) scanning reference";
      caps = { scales = false };
      prepare = (fun t -> ignore (text t));
      run =
        (fun t a ->
          Stringmatch.Hamming.search ~pattern:a.pattern ~text:(text t) ~k:a.k);
    };
  register
    {
      engine = Bidir;
      name = "bidir";
      doc =
        "bidirectional FM-index executing optimum search schemes (Kianfar & \
         Pockrandt)";
      caps = { scales = true };
      prepare = (fun t -> ignore (Fmindex.Bidir.prefix_table (bidir t)));
      run =
        (fun t a ->
          Oss.search ~obs:a.obs (bidir t) ~pattern:a.pattern ~k:a.k);
    }

module Query = struct
  type t = {
    engine : engine;
    pattern : string;
    k : int;
    obs : Obs.t;
    deadline : Deadline.t;
  }

  let make ?(obs = Obs.noop) ?(deadline = Deadline.none) ~engine ~pattern
      ~k () =
    { engine; pattern; k; obs; deadline }
end

module Response = struct
  type t = { hits : (int * int) list }

  let positions r = List.map fst r.hits
end

(* Validation is the typed half of the entry point: every reason a query
   cannot run maps to [Kmm_error.Bad_input] carrying the message [run]
   raises as [Invalid_argument], so long-running callers (the server, the
   mapper) get a [result] they can answer with instead of a crash. *)
let validate (q : Query.t) =
  match
    try Ok (Dna.Sequence.to_string (Dna.Sequence.of_string q.pattern))
    with Invalid_argument msg -> Error msg
  with
  | Error msg -> Error (Kmm_error.Bad_input msg)
  | Ok "" -> Error (Kmm_error.Bad_input "Kmismatch.run: empty pattern")
  | Ok _ when q.k < 0 ->
      Error (Kmm_error.Bad_input "Kmismatch.run: negative k")
  | Ok pattern -> (
      match Engine_registry.find q.engine with
      | Some entry -> Ok (pattern, entry)
      | None ->
          Error
            (Kmm_error.Bad_input
               "Kmismatch.run: engine is not registered"))

let run_validated t (q : Query.t) ~obs ~pattern
    ~(entry : Engine_registry.entry) =
  (* Degenerate budgets are uniform across engines: a window holds at
     most m mismatches, so k >= m answers every window position at its
     true distance.  Clamping here (and in each engine, for direct
     callers) makes that explicit and keeps k-derived arithmetic such as
     the M-tree's 2k+3 merge horizon safely inside the word. *)
  let k = min q.k (String.length pattern) in
  let args =
    if not (Obs.tracing obs) then None
    else Some [ ("engine", entry.name); ("k", string_of_int k); ("m", string_of_int (String.length pattern)) ]
  in
  let hits =
    Obs.time ?args obs Obs.Hist.query_ns
      (fun () ->
        (* A pattern longer than the text can match nowhere.  Guard once
           for every engine: the tree/BWT engines are not written for
           this degenerate case and used to fall through to it. *)
        if String.length pattern > length t then []
        else
          entry.Engine_registry.run t
            { Engine_registry.pattern; k; obs })
  in
  if Obs.enabled obs then begin
    Obs.incr obs Obs.Counter.query_count;
    Obs.add obs Obs.Counter.query_hits (List.length hits)
  end;
  { Response.hits }

let try_run t (q : Query.t) =
  match validate q with
  | Error e -> Error e
  | Ok (pattern, entry) ->
      if Deadline.expired q.deadline then
        (* Admission check: an already-expired budget is answered without
           touching the index at all (the server relies on this to shed
           queries that aged out in its queue). *)
        Error (Kmm_error.Timeout "deadline expired before the search started")
      else (
        (* The engines poll [Deadline.poll] in their hot loops; install
           the query's budget as the ambient deadline so those polls see
           it without any signature change.  [Deadline.none] (the
           default) makes every poll a compare-and-return.  The query's
           sink is installed the same way, for the FM-index and
           verification taps under the engine. *)
        match
          Obs.with_ambient q.obs (fun () ->
              Deadline.with_ambient q.deadline (fun () ->
                  run_validated t q ~obs:q.obs ~pattern ~entry))
        with
        | r -> Ok r
        | exception Kmm_error.Error e -> Error e
        | exception Deadline.Expired ->
            Error
              (Kmm_error.Timeout
                 "deadline expired during the search; partial work discarded"))

let run t q =
  match try_run t q with
  | Ok r -> r
  | Error (Kmm_error.Bad_input msg) ->
      invalid_arg msg
  | Error e -> Kmm_error.raise_error e

let save_index t path = Fmindex.Fm_index.save t.fm_rev path

let try_load_index ?mode path =
  Result.map of_fm (Fmindex.Fm_index.try_load ?mode path)

let load_index ?mode path =
  match try_load_index ?mode path with
  | Ok t -> t
  | Error (Kmm_error.Io e) -> raise e
  | Error e -> failwith (path ^ ": " ^ Kmm_error.to_string e)
