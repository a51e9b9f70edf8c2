type engine = ..

type engine +=
  | M_tree
  | S_tree
  | S_tree_no_delta
  | Cole
  | Amir
  | Kangaroo
  | Naive
  | Bidir

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
  pforward : Fmindex.Packed_text.t Fmindex.Storage.Memo.t;
      (* forward text, 2-bit packed: what the online engines' verifiers
         run against.  Derived by reversing the FM component's packed
         payload — n/4 bytes, never the unpacked string. *)
  bidir : Fmindex.Bidir.t;
      (* [fm_rev] paired with the forward rank side it carries.  That
         side is built with the index and persisted in it (format v5),
         so pairing them costs nothing at load. *)
}

(* [text] is the forward string when the caller has it in hand.  A
   loaded index has only the 2-bit packed reverse, so its forward string
   is unpacked from [pforward] on demand: one pass, and an mmap'd load
   stays O(1). *)
let make_index ?text fm_rev =
  let pforward =
    Fmindex.Storage.Memo.make (fun () ->
        Fmindex.Packed_text.rev (Fmindex.Fm_index.packed_text fm_rev))
  in
  let text =
    Fmindex.Storage.Memo.make (fun () ->
        match text with
        | Some s -> s
        | None -> Fmindex.Packed_text.to_string (Fmindex.Storage.Memo.force pforward))
  in
  let tree =
    Fmindex.Storage.Memo.make (fun () ->
        Suffix.Suffix_tree.build (Fmindex.Storage.Memo.force text))
  in
  { text; fm_rev; tree; pforward; bidir = Fmindex.Bidir.make fm_rev }

let build_index ?occ_rate ?sa_rate ?parallel raw =
  (* Validate and normalize exactly once; the reverse is derived from
     the parsed sequence in place instead of being re-parsed through a
     second string round-trip. *)
  let seq = Dna.Sequence.of_string raw in
  let text = Dna.Sequence.to_string seq in
  let rev = Dna.Sequence.to_string (Dna.Sequence.rev seq) in
  make_index ~text (Fmindex.Fm_index.build ?occ_rate ?sa_rate ?parallel rev)

let of_sequence seq = build_index (Dna.Sequence.to_string seq)
let text t = Fmindex.Storage.Memo.force t.text
let length t = Fmindex.Fm_index.length t.fm_rev
let fm_rev t = t.fm_rev
let suffix_tree t = Fmindex.Storage.Memo.force t.tree
let packed_text t = Fmindex.Storage.Memo.force t.pforward
let bidir t = t.bidir

(* ------------------------------------------------------------------ *)
(* The engine registry                                                  *)

module Engine_registry = struct
  type caps = { scales : bool }

  type run_args = {
    pattern : string;
    k : int;
    stats : Stats.t;
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
     Each entry is stored with its name's lookup key, computed once. *)
  let table : (string * entry) list ref = ref []

  (* Names are compared with separators stripped and case folded, so
     "s-tree-nodelta", "s_tree_no_delta" and "STreeNoDelta" coincide.
     The daemon normalizes every query frame's engine name, hence the
     plain loop. *)
  let normalize name =
    let b = Buffer.create (String.length name) in
    String.iter
      (fun c -> if c <> '-' && c <> '_' then Buffer.add_char b (Char.lowercase_ascii c))
      name;
    Buffer.contents b

  (* Nullary extension constructors are singletons, so engine values
     compare by physical equality. *)
  let find eng =
    List.find_map (fun (_, e) -> if e.engine == eng then Some e else None) !table

  let find_name name =
    let key = normalize name in
    List.find_map (fun (k, e) -> if String.equal k key then Some e else None) !table

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
    table := !table @ [ (normalize e.name, e) ]

  let all () = List.map snd !table
  let names () = List.map (fun (_, e) -> e.name) !table
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
      M_tree.search ?config ~stats:a.stats ~obs:a.obs t.fm_rev ~pattern:a.pattern
        ~k:a.k
  in
  let nothing (_ : index) = () in
  let force_text t =
    ignore (text t);
    ignore (packed_text t)
  in
  register
    {
      engine = M_tree;
      name = "m-tree";
      doc = "the paper's Algorithm A: BWT search with mismatching-tree reuse";
      caps = { scales = true };
      prepare = nothing;
      run =
        (fun t a ->
          M_tree.search ~stats:a.stats ~obs:a.obs t.fm_rev
            ~pattern:a.pattern ~k:a.k);
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
          Cole.search ~stats:a.stats (suffix_tree t) ~pattern:a.pattern ~k:a.k);
    };
  register
    {
      engine = Amir;
      name = "amir";
      doc = "online mark-and-verify (ref. [2])";
      caps = { scales = false };
      prepare = force_text;
      run =
        (fun t a ->
          Amir.search ~stats:a.stats ~ptext:(packed_text t) ~pattern:a.pattern
            ~k:a.k (text t));
    };
  register
    {
      engine = Kangaroo;
      name = "kangaroo";
      doc = "online O(kn) Landau-Vishkin kangaroo jumps";
      caps = { scales = false };
      prepare = force_text;
      run =
        (fun t a ->
          Stringmatch.Kangaroo.search ~ptext:(packed_text t)
            ~pattern:a.pattern ~k:a.k (text t));
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
          Oss.search ~stats:a.stats ~obs:a.obs (bidir t) ~pattern:a.pattern
            ~k:a.k);
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
  type t = {
    hits : (int * int) list;
    stats : Stats.t;
    timings : (string * float) list;
  }

  let positions r = List.map fst r.hits
end

(* The query's [Stats] as [engine.*] counters: sums, so per-domain
   sinks merge to exactly the sequential totals. *)
let record_stats obs (s : Stats.t) =
  let module C = Obs.Counter in
  Obs.add obs C.engine_nodes s.nodes;
  Obs.add obs C.engine_leaves s.leaves;
  Obs.add obs C.engine_rank_calls s.rank_calls;
  Obs.add obs C.engine_derivations s.derivations;
  Obs.add obs C.engine_derived_leaves s.derived_leaves;
  Obs.add obs C.engine_resumes s.resumes

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

let run_validated t (q : Query.t) ~obs ~t0 ~pattern
    ~(entry : Engine_registry.entry) =
  (* Degenerate budgets are uniform across engines: a window holds at
     most m mismatches, so k >= m answers every window position at its
     true distance.  Clamping here (and in each engine, for direct
     callers) makes that explicit and keeps k-derived arithmetic such as
     the M-tree's 2k+3 merge horizon safely inside the word. *)
  let k = min q.k (String.length pattern) in
  let t1 = Obs.Clock.now_ns () in
  let stats = Stats.create () in
  let hits =
    Obs.span obs "query"
      ~args:
        [
          ("engine", entry.Engine_registry.name);
          ("k", string_of_int k);
          ("m", string_of_int (String.length pattern));
        ]
      (fun () ->
        (* A pattern longer than the text can match nowhere.  Guard once
           for every engine: the tree/BWT engines are not written for
           this degenerate case and used to fall through to it. *)
        if String.length pattern > length t then []
        else
          entry.Engine_registry.run t
            { Engine_registry.pattern; k; stats; obs })
  in
  let t2 = Obs.Clock.now_ns () in
  if Obs.enabled obs then begin
    record_stats obs stats;
    Obs.incr obs Obs.Counter.query_count;
    Obs.add obs Obs.Counter.query_hits (List.length hits)
  end;
  let s ns = float_of_int ns *. 1e-9 in
  {
    Response.hits;
    stats;
    timings = [ ("normalize", s (t1 - t0)); ("search", s (t2 - t1)) ];
  }

let try_run t (q : Query.t) =
  let t0 = Obs.Clock.now_ns () in
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
                  run_validated t q ~obs:q.obs ~t0 ~pattern ~entry))
        with
        | r -> Ok r
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

let of_fm fm_rev = make_index fm_rev

let load_index ?mode path = of_fm (Fmindex.Fm_index.load ?mode path)

let try_load_index ?mode path =
  Result.map of_fm (Fmindex.Fm_index.try_load ?mode path)
