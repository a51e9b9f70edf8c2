(* Bidirectional index, optimum search schemes, and the engine registry.

   - Search schemes: structural validity and exhaustive completeness of
     the generic pigeonhole family for every k <= 6 (every mismatch
     distribution with sum <= k admitted by some search).
   - The bidirectional extension invariant (QCheck): growing a pattern
     from a random split point in a random left/right interleaving lands
     on exactly the intervals two independent unidirectional FM searches
     compute, and locates exactly the naive occurrence positions.
   - The prefix table: every entry equals a q-step extend_right_all
     walk (empty entries included) on random and homopolymer texts, and
     q follows the text length.
   - Every extension is counted: over Oss searches that prepend, the
     rank ops less the locate steps equal bidir.extends.
   - The Bidir engine agrees with the naive scan on random cases, on
     texts long enough to carry a prefix table, with opening pieces
     shorter than, equal to and longer than q.
   - build_index parses its input exactly once: the indexed text is the
     normalized input byte for byte, and the reverse component is its
     exact mirror (regression for the double Dna.Sequence round-trip);
     of_sequence keeps no reference to the sequence it indexed.
   - Registry-derived parsing: spelling-insensitive engine_of_string,
     typed engine_of_string_err rejection listing every valid name.
   - Extending the engine enum: one register call makes a stub engine
     reachable from all_engines, engine_of_string, engine_names and the
     fuzz oracle's subject list, and runnable through Kmismatch.run.
   - The engines bench cross-check smoke (kmm bench engines --smoke). *)

open Core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let hits_t = Alcotest.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Search schemes                                                      *)

let test_schemes_complete () =
  for k = 0 to 4 do
    check bool (Printf.sprintf "valid k=%d" k) true (Oss.Scheme.valid ~k);
    check bool (Printf.sprintf "complete k=%d" k) true (Oss.Scheme.complete ~k)
  done

let test_generic_family () =
  (* Every budget runs the generic family; keep the exhaustive check to
     the sizes where enumeration stays cheap. *)
  List.iter
    (fun k ->
      check bool (Printf.sprintf "generic valid k=%d" k) true (Oss.Scheme.valid ~k);
      check bool
        (Printf.sprintf "generic complete k=%d" k)
        true (Oss.Scheme.complete ~k))
    [ 5; 6 ]

let test_scheme_exact_start () =
  (* Every search opens with an exact piece — the property the engine's
     early pruning relies on. *)
  for k = 0 to 6 do
    List.iter
      (fun s -> check int "U.(0) = 0" 0 s.Oss.Scheme.upper.(0))
      (Oss.Scheme.for_k ~k)
  done

(* ------------------------------------------------------------------ *)
(* Bidirectional extension == two unidirectional FM searches            *)

let rev_string s =
  String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

let naive_positions text pattern =
  let n = String.length text and m = String.length pattern in
  let out = ref [] in
  for i = n - m downto 0 do
    if String.sub text i m = pattern then out := i :: !out
  done;
  !out

let prop_bidir_matches_unidirectional =
  Test_util.qtest ~count:300 "bidir extension = fwd/rev FM searches"
    QCheck2.Gen.(
      triple
        (Test_util.dna_gen ~lo:1 ~hi:80 ())
        (Test_util.dna_gen ~lo:1 ~hi:12 ())
        (pair small_nat (int_bound 1000)))
    (fun (text, pattern, (split, seed)) ->
      let m = String.length pattern in
      let split = split mod (m + 1) in
      let st = Random.State.make [| seed |] in
      let fm_fwd = Fmindex.Fm_index.build text in
      let fm_rev = Fmindex.Fm_index.build (rev_string text) in
      let bd = Fmindex.Bidir.make fm_rev in
      (* Grow pattern.[split-1 .. 0] leftward and pattern.[split .. m-1]
         rightward, interleaved at random, reading each child pair off
         the cursor. *)
      let module B = Fmindex.Bidir in
      let cur = B.cursor () in
      let rows = String.length text + 1 in
      let f_lo = ref 0 and f_hi = ref rows and r_lo = ref 0 and r_hi = ref rows in
      let l = ref split and r = ref split in
      let same_width = ref true in
      while !f_lo < !f_hi && (!l > 0 || !r < m) do
        let go_left = !l > 0 && (!r >= m || Random.State.bool st) in
        let c =
          if go_left then begin
            decr l;
            B.extend_left_all bd cur ~f_lo:!f_lo ~f_hi:!f_hi ~r_lo:!r_lo ~r_hi:!r_hi;
            Dna.Alphabet.code pattern.[!l]
          end
          else begin
            B.extend_right_all bd cur ~f_lo:!f_lo ~f_hi:!f_hi ~r_lo:!r_lo ~r_hi:!r_hi;
            incr r;
            Dna.Alphabet.code pattern.[!r - 1]
          end
        in
        f_lo := B.f_lo cur c;
        f_hi := B.f_hi cur c;
        r_lo := B.r_lo cur c;
        r_hi := B.r_hi cur c;
        if !r_hi - !r_lo <> !f_hi - !f_lo then same_width := false
      done;
      let expected_fwd = Fmindex.Fm_index.search fm_fwd pattern in
      let expected_rev = Fmindex.Fm_index.search fm_rev (rev_string pattern) in
      !same_width
      &&
      if !f_lo >= !f_hi then
        (* Some prefix of the interleaving died: the full pattern must
           be absent from the text. *)
        naive_positions text pattern = []
      else
        !r - !l = m
        && expected_fwd = Some (!f_lo, !f_hi)
        && expected_rev = Some (!r_lo, !r_hi)
        &&
        (* Row [r_lo + i] locates where rev α starts in rev s; α starts
           [n - p - m] into s. *)
        let dst = Array.make (!f_hi - !f_lo) 0 in
        Fmindex.Fm_index.locate_into fm_rev (!r_lo, !r_hi) dst;
        let n = String.length text in
        List.sort compare (Array.to_list (Array.map (fun p -> n - p - m) dst))
        = naive_positions text pattern)

(* ------------------------------------------------------------------ *)
(* Oss.search vs the naive reference                                   *)

let naive_hits text pattern k =
  let n = String.length text and m = String.length pattern in
  let out = ref [] in
  for i = n - m downto 0 do
    let d = ref 0 in
    for j = 0 to m - 1 do
      if text.[i + j] <> pattern.[j] then incr d
    done;
    if !d <= k then out := (i, !d) :: !out
  done;
  !out

let bidir_of text = Fmindex.Bidir.make (Fmindex.Fm_index.build (rev_string text))

(* A pattern of [pieces] pieces of [piece] bases (plus [extra]), planted
   at a random offset of [text] with up to [muts] random substitutions,
   or drawn at random one time in four. *)
let planted st text ~pieces ~piece ~extra ~muts =
  let m = min (String.length text) ((pieces * piece) + extra) in
  if Random.State.int st 4 = 0 then Test_util.random_dna st m
  else begin
    let p = Bytes.of_string (String.sub text (Random.State.int st (String.length text - m + 1)) m) in
    for _ = 1 to Random.State.int st (muts + 1) do
      Bytes.set p (Random.State.int st m) "acgt".[Random.State.int st 4]
    done;
    Bytes.to_string p
  end

(* Texts of 256..5000 bp, so q is 1..3 and searches start from the
   prefix table; piece lengths 1..6 put the opening piece below, at and
   above q. *)
let prop_oss_matches_naive =
  Test_util.qtest ~count:300 "Oss.search = naive scan"
    QCheck2.Gen.(
      triple (Test_util.dna_gen ~lo:256 ~hi:5000 ()) (int_bound 5) (pair (int_range 1 6) int))
    (fun (text, k, (piece, seed)) ->
      let st = Random.State.make [| seed |] in
      let pattern = planted st text ~pieces:(k + 1) ~piece ~extra:(Random.State.int st (k + 1)) ~muts:(k + 1) in
      Oss.search (bidir_of text) ~pattern ~k = naive_hits text pattern k)

(* Every opening-piece length against q, on each text size that gives a
   different q: pieces of q - 1, q and q + 1 bases, k = 0..4. *)
let test_oss_opening_pieces () =
  let st = Random.State.make [| 41 |] in
  List.iter
    (fun n ->
      let text = Test_util.random_dna st n in
      let bd = bidir_of text in
      let q = Fmindex.Bidir.prefix_len bd in
      for k = 0 to 4 do
        List.iter
          (fun piece ->
            for _ = 1 to 8 do
              let pattern = planted st text ~pieces:(k + 1) ~piece ~extra:0 ~muts:k in
              check hits_t
                (Printf.sprintf "n=%d q=%d k=%d piece=%d %s" n q k piece pattern)
                (naive_hits text pattern k) (Oss.search bd ~pattern ~k)
            done)
          (List.filter (fun l -> l >= 1) [ q - 1; q; q + 1 ])
      done)
    [ 300; 1100; 4200 ]

(* ------------------------------------------------------------------ *)
(* The prefix table                                                    *)

(* Every entry against its own q-step walk of extend_right_all from the
   empty match; a walk that empties must meet a width-0 entry. *)
let check_prefix_table label text =
  let module B = Fmindex.Bidir in
  let bd = bidir_of text in
  let q = B.prefix_len bd and table = B.prefix_table bd in
  check int (label ^ ": table length") (if q = 0 then 0 else 3 lsl (2 * q)) (Array.length table);
  let cur = B.cursor () in
  let rows = String.length text + 1 in
  let empty = ref 0 in
  for key = 0 to Array.length table / 3 - 1 do
    let f_lo = ref 0 and f_hi = ref rows and r_lo = ref 0 and r_hi = ref rows in
    for d = q - 1 downto 0 do
      if !f_lo < !f_hi then begin
        B.extend_right_all bd cur ~f_lo:!f_lo ~f_hi:!f_hi ~r_lo:!r_lo ~r_hi:!r_hi;
        let c = 1 + ((key lsr (2 * d)) land 3) in
        f_lo := B.f_lo cur c;
        f_hi := B.f_hi cur c;
        r_lo := B.r_lo cur c;
        r_hi := B.r_hi cur c
      end
    done;
    let width = table.((3 * key) + 2) in
    if !f_lo >= !f_hi then begin
      incr empty;
      check int (Printf.sprintf "%s: key %d empty" label key) 0 width
    end
    else
      check (Alcotest.triple int int int)
        (Printf.sprintf "%s: key %d" label key)
        (!f_lo, !r_lo, !f_hi - !f_lo)
        (table.(3 * key), table.((3 * key) + 1), width)
  done;
  !empty

let test_prefix_table () =
  let st = Random.State.make [| 23 |] in
  List.iter
    (fun (n, q) ->
      let text = Test_util.random_dna st n in
      check int (Printf.sprintf "q at n=%d" n) q (Fmindex.Bidir.prefix_len (bidir_of text));
      ignore (check_prefix_table (Printf.sprintf "random %d" n) text))
    [ (255, 0); (256, 1); (1023, 1); (1024, 2); (5000, 3); (20_000, 4) ];
  (* Homopolymers: one q-mer occurs, every other entry is empty. *)
  let empty = check_prefix_table "poly-a" (String.make 1100 'a') in
  check int "poly-a: 15 of 16 entries empty" 15 empty;
  let runs =
    String.concat "" (List.init 400 (fun i -> String.make (1 + (i mod 7)) "acgt".[i mod 4]))
  in
  check bool "runs: some entries empty" true (check_prefix_table "runs" runs > 0)

let test_bidir_engine_agrees () =
  let idx = Kmismatch.build_index "acagacagacttgacagacatt" in
  List.iter
    (fun (pattern, k) ->
      check hits_t
        (Printf.sprintf "bidir %s k=%d" pattern k)
        (Test_util.run_hits idx ~engine:Kmismatch.Naive ~pattern ~k)
        (Test_util.run_hits idx ~engine:Kmismatch.Bidir ~pattern ~k))
    [
      ("acaga", 0);
      ("acaga", 1);
      ("acaga", 2);
      ("gacag", 3);
      ("tt", 1);
      ("acagacagacttgacagacatt", 4);
      ("acagacagacttgacagacattacgt", 2);
    ]

(* ------------------------------------------------------------------ *)
(* The per-domain scratch                                               *)

(* A repeat-rich genome (40 mutated copies of one 400 bp unit between
   random spacers) and 100 bp reads drawn from it with 3% substitutions,
   the first from inside the first copy of the unit: extension counts
   range over an order of magnitude, and reads from the repeat hit many
   windows. *)
let scratch_case =
  lazy
    (let st = Random.State.make [| 20 |] in
     let rnd n = Test_util.random_dna st n in
     let mutate s rate =
       String.map
         (fun c ->
           if Random.State.float st 1.0 < rate then "acgt".[Random.State.int st 4] else c)
         s
     in
     let unit = rnd 400 in
     let text = String.concat "" (List.init 40 (fun _ -> rnd 600 ^ mutate unit 0.04)) in
     let n = String.length text in
     let read at = mutate (String.sub text at 100) 0.03 in
     let pats =
       Array.init 60 (fun i -> read (if i = 0 then 750 else Random.State.int st (n - 100)))
     in
     let idx = Kmismatch.build_index text in
     (text, Kmismatch.bidir idx, pats))

(* Minor words one search allocates, and its hits.  No clock. *)
let words_of_search bd ~pattern ~k =
  let w0 = Gc.minor_words () in
  let hits = Oss.search bd ~pattern ~k in
  (Gc.minor_words () -. w0, hits)

(* What one search may allocate: per-pattern buffers (the code array
   and the packed pattern) and per-hit result cells, never anything per
   extension or per verified candidate. *)
let alloc_bound ~m ~hits = float_of_int ((5 * m) + (32 * List.length hits))

let test_search_allocation () =
  let _, bd, pats = Lazy.force scratch_case in
  let k = 4 in
  Array.iter (fun pattern -> ignore (Oss.search bd ~pattern ~k)) pats;
  let extends = ref [] in
  Array.iter
    (fun pattern ->
      let obs = Obs.create () in
      ignore (Oss.search ~obs bd ~pattern ~k);
      let x = Obs.counter_value obs "bidir.extends" in
      extends := x :: !extends;
      let words, hits = words_of_search bd ~pattern ~k in
      let bound = alloc_bound ~m:(String.length pattern) ~hits in
      if words > bound then
        Alcotest.failf "%.0f minor words for %d extensions and %d hits (bound %.0f)" words x
          (List.length hits) bound)
    pats;
  (* The bound must have been met across very different amounts of
     exploration, or it proves nothing about per-step garbage. *)
  let lo = List.fold_left min max_int !extends and hi = List.fold_left max 0 !extends in
  check bool (Printf.sprintf "extensions per search range over %d..%d" lo hi) true (hi >= 4 * lo)

(* Every extension reaches the rank taps, prepends included: over Oss
   searches whose later searches prepend (k >= 1), each of
   [bidir.extends] is one rank op, and the only other rank ops are the
   LF steps of the locate walks. *)
let test_every_extension_counted () =
  let _, bd, pats = Lazy.force scratch_case in
  for k = 1 to 4 do
    let obs = Obs.create () in
    Test_util.tapped_into obs (fun () ->
        Array.iter (fun pattern -> ignore (Oss.search ~obs bd ~pattern ~k)) pats);
    let v = Obs.counter_value obs in
    check int
      (Printf.sprintf "k=%d: fm.rank_ops - fm.locate_steps = bidir.extends" k)
      (v "bidir.extends")
      (v "fm.rank_ops" - v "fm.locate_steps")
  done

(* A search cut by its deadline part-way through the exploration leaves
   the domain's rows usable: the next searches are exact and reuse them
   (a scratch left marked busy would make the next search allocate a
   fresh row per pattern position, past the bound). *)
let test_cut_search_leaves_rows_usable () =
  let text, bd, pats = Lazy.force scratch_case in
  let cut = pats.(0) in
  ignore (Oss.search bd ~pattern:cut ~k:8);
  (* The deadline clock is read at the first poll and then every
     [Deadline.poll_stride] polls, so a budget that expires between two
     reads cuts the walk with nodes explored.  Grow the budget until
     that happens; a preempted attempt can overshoot into a finished
     search, so start over a few times before giving up. *)
  let rec cut_mid ~tries budget_ns =
    (* A cut search adds no counter, so count its extensions through
       the rank taps, which land as they happen. *)
    let obs = Obs.create () in
    match
      Test_util.tapped_into obs (fun () ->
          Deadline.with_ambient
            (Deadline.of_ns (Obs.Clock.now_ns () + budget_ns))
            (fun () -> Oss.search bd ~pattern:cut ~k:8))
    with
    | exception Deadline.Expired when Obs.counter_value obs "fm.rank_ops" > 0 -> ()
    | exception Deadline.Expired -> cut_mid ~tries (budget_ns * 3 / 2)
    | _ when tries > 1 -> cut_mid ~tries:(tries - 1) 1_000
    | _ -> Alcotest.fail "no budget cut the search mid-exploration"
  in
  cut_mid ~tries:20 1_000;
  (* Budgets above 4 build their generic scheme per search, so only the
     tabled budgets are held to the allocation bound. *)
  List.iter
    (fun (pattern, k) ->
      let words, hits = words_of_search bd ~pattern ~k in
      check hits_t (Printf.sprintf "k=%d after the cut" k) (naive_hits text pattern k) hits;
      let bound = alloc_bound ~m:(String.length pattern) ~hits in
      if k <= 4 then
        check bool (Printf.sprintf "%.0f words, rows reused (bound %.0f)" words bound) true
          (words <= bound))
    [ (pats.(1), 4); (cut, 8); (pats.(2), 2) ]

(* ------------------------------------------------------------------ *)
(* build_index normalizes exactly once                                 *)

let test_build_index_normalization () =
  let raw = "AcGtACgTacgTGGcca" in
  let idx = Kmismatch.build_index raw in
  let expected = String.lowercase_ascii raw in
  check Alcotest.string "text is the input, normalized, byte for byte"
    expected (Kmismatch.text idx);
  (* The reverse component really indexes the mirror of that same
     string: exact occurrences of a reversed probe through fm_rev are
     the mirrored occurrences of the probe in the forward text. *)
  let probe = "acgt" in
  let m = String.length probe in
  let n = String.length expected in
  let via_rev =
    match Fmindex.Fm_index.search (Kmismatch.fm_rev idx) (rev_string probe) with
    | None -> []
    | Some iv ->
        List.sort compare
          (List.map
             (fun p -> n - p - m)
             (Test_util.locate (Kmismatch.fm_rev idx) iv))
  in
  check Alcotest.(list int) "reverse component mirrors the text" via_rev
    (naive_positions expected probe)

(* The index holds no reference to the sequence it was built from: the
   forward text is unpacked from the FM component when an engine needs
   it. *)
let test_of_sequence_keeps_no_text () =
  let build () =
    let seq = Dna.Sequence.random ~state:(Random.State.make [| 9 |]) 5_000 in
    let w = Weak.create 1 in
    Weak.set w 0 (Some seq);
    (Kmismatch.of_sequence seq, w)
  in
  let idx, w = build () in
  Gc.full_major ();
  check bool "sequence collected" false (Weak.check w 0);
  check int "index live" 5_000 (Kmismatch.length idx);
  check int "text unpacked on demand" 5_000 (String.length (Kmismatch.text idx))

(* ------------------------------------------------------------------ *)
(* Registry-derived parsing                                            *)

let test_engine_spellings () =
  let e =
    Alcotest.testable
      (fun ppf e -> Format.pp_print_string ppf (Kmismatch.engine_name e))
      ( == )
  in
  List.iter
    (fun (s, expected) ->
      check (Alcotest.option e) s (Some expected) (Kmismatch.engine_of_string s))
    [
      ("bidir", Kmismatch.Bidir);
      ("m-tree", Kmismatch.M_tree);
      ("m_tree", Kmismatch.M_tree);
      ("MTree", Kmismatch.M_tree);
      ("s-tree-nodelta", Kmismatch.S_tree_no_delta);
      ("s_tree_no_delta", Kmismatch.S_tree_no_delta);
      ("S-Tree-No-Delta", Kmismatch.S_tree_no_delta);
      ("AMIR", Kmismatch.Amir);
    ];
  check bool "unknown rejected" true (Kmismatch.engine_of_string "warp" = None)

(* The daemon resolves every query frame's engine name: the lookup
   compares in place against each entry's name and allocates nothing,
   found or not. *)
let test_find_name_allocation () =
  let spellings =
    [ "bidir"; "m-tree"; "M_TREE"; "S-Tree-No-Delta"; "s_tree_no_delta"; "-"; ""; "warp";
      "bidirx"; "s-tre" ]
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = words (fun () -> ()) in
  List.iter
    (fun s ->
      let spent =
        words (fun () ->
            for _ = 1 to 100 do
              ignore (Sys.opaque_identity (Kmismatch.Engine_registry.find_name s))
            done)
      in
      check (Alcotest.float 0.) (Printf.sprintf "minor words for %S" s) idle spent)
    spellings

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_engine_of_string_err () =
  match Kmismatch.engine_of_string_err "warp" with
  | Ok _ -> Alcotest.fail "unknown engine accepted"
  | Error (Kmm_error.Bad_input msg) ->
      List.iter
        (fun name ->
          check bool (Printf.sprintf "message lists %S" name) true
            (contains msg name))
        (Kmismatch.engine_names ())
  | Error e ->
      Alcotest.failf "wrong error class: %s" (Kmm_error.to_string e)

(* ------------------------------------------------------------------ *)
(* One registration reaches every derived view                         *)

type Kmismatch.engine += Stub

let test_stub_engine_registration () =
  let naive =
    match Kmismatch.Engine_registry.find_name "naive" with
    | Some e -> e
    | None -> Alcotest.fail "naive not registered"
  in
  Kmismatch.Engine_registry.register
    {
      Kmismatch.Engine_registry.engine = Stub;
      name = "stub-demo";
      doc = "test double: delegates to the naive scan";
      caps = naive.Kmismatch.Engine_registry.caps;
      prepare = (fun _ -> ());
      run = naive.Kmismatch.Engine_registry.run;
    };
  (* ... and the single registration is visible everywhere at once. *)
  check bool "in all_engines" true
    (List.exists (fun e -> e == Stub) (Kmismatch.all_engines ()));
  check bool "parsed by engine_of_string" true
    (Kmismatch.engine_of_string "STUB_DEMO" = Some Stub);
  check Alcotest.string "named" "stub-demo" (Kmismatch.engine_name Stub);
  check bool "in engine_names (CLI help source)" true
    (List.mem "stub-demo" (Kmismatch.engine_names ()));
  check bool "in the oracle subject list" true
    (List.exists
       (fun s -> s.Oracle.sub_name = "stub-demo")
       (Oracle.default_subjects ()));
  (* Runnable through the standard dispatch, answers like any engine. *)
  let idx = Kmismatch.build_index "acagacagactt" in
  check hits_t "dispatches"
    (Test_util.run_hits idx ~engine:Kmismatch.Naive ~pattern:"acaga" ~k:2)
    (Test_util.run_hits idx ~engine:Stub ~pattern:"acaga" ~k:2);
  (* Duplicate registrations are rejected, by name and by engine. *)
  (match
     Kmismatch.Engine_registry.register
       { naive with Kmismatch.Engine_registry.name = "stub-demo" }
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate name accepted");
  match
    Kmismatch.Engine_registry.register
      { naive with Kmismatch.Engine_registry.name = "fresh-name" }
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate engine accepted"

(* ------------------------------------------------------------------ *)
(* The persisted forward side                                          *)

let with_saved idx f =
  let path = Filename.temp_file "kmm-bidir" ".fmi" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Kmismatch.save_index idx path;
      f path)

let genome size =
  Dna.Sequence.to_string
    (Dna.Genome_gen.generate { Dna.Genome_gen.default with size; seed = 3 })

let test_cold_start_allocation () =
  (* The forward side is adopted with the rest of the index, so a bidir
     cold start builds nothing: reaching the bidirectional index of an
     mmap-loaded index and taking one step each way allocates next to
     nothing (the SA-IS rebuild this replaced allocated ~12.9 n bytes
     here). *)
  let n = 200_000 in
  with_saved (Kmismatch.build_index (genome n)) (fun path ->
      let idx = Kmismatch.load_index ~mode:Fmindex.Fm_index.Mmap path in
      let cur = Fmindex.Bidir.cursor () in
      let rows = n + 1 in
      let a0 = Gc.allocated_bytes () in
      let bd = Kmismatch.bidir idx in
      Fmindex.Bidir.extend_left_all bd cur ~f_lo:0 ~f_hi:rows ~r_lo:0 ~r_hi:rows;
      Fmindex.Bidir.extend_right_all bd cur ~f_lo:0 ~f_hi:rows ~r_lo:0 ~r_hi:rows;
      let bytes = Gc.allocated_bytes () -. a0 in
      check bool
        (Printf.sprintf "%.0f bytes allocated, under n/8 = %d" bytes (n / 8))
        true
        (bytes < float_of_int (n / 8)))

(* Every interval pair met while growing each pattern from a seeded
   split point, in a seeded left/right order. *)
let interval_trace bd patterns =
  let module B = Fmindex.Bidir in
  let st = Random.State.make [| 17 |] in
  let cur = B.cursor () in
  let rows = B.length bd + 1 in
  List.concat_map
    (fun pattern ->
      let m = String.length pattern in
      let l = ref (Random.State.int st (m + 1)) in
      let r = ref !l in
      let f_lo = ref 0 and f_hi = ref rows and r_lo = ref 0 and r_hi = ref rows in
      let trace = ref [] in
      while (!l > 0 || !r < m) && !f_lo < !f_hi do
        let left = !l > 0 && (!r >= m || Random.State.bool st) in
        let c =
          if left then begin
            decr l;
            B.extend_left_all bd cur ~f_lo:!f_lo ~f_hi:!f_hi ~r_lo:!r_lo ~r_hi:!r_hi;
            Dna.Alphabet.code pattern.[!l]
          end
          else begin
            B.extend_right_all bd cur ~f_lo:!f_lo ~f_hi:!f_hi ~r_lo:!r_lo ~r_hi:!r_hi;
            incr r;
            Dna.Alphabet.code pattern.[!r - 1]
          end
        in
        f_lo := B.f_lo cur c;
        f_hi := B.f_hi cur c;
        r_lo := B.r_lo cur c;
        r_hi := B.r_hi cur c;
        trace := (!f_lo, !f_hi, !r_lo, !r_hi) :: !trace
      done;
      List.rev !trace)
    patterns

let test_pairs_across_load_modes () =
  let text = genome 50_000 in
  let st = Random.State.make [| 29 |] in
  (* Substrings, some with a base changed, and random patterns. *)
  let patterns =
    List.init 200 (fun i ->
        let len = 4 + Random.State.int st 40 in
        if i mod 4 = 3 then Test_util.random_dna st len
        else
          let p = Bytes.of_string (String.sub text (Random.State.int st (50_000 - len)) len) in
          if i mod 2 = 1 then Bytes.set p (Random.State.int st len) 'g';
          Bytes.to_string p)
  in
  let heap = Kmismatch.build_index text in
  let expected = interval_trace (Kmismatch.bidir heap) patterns in
  check bool "pairs traced" true (List.length expected > 1000);
  with_saved heap (fun path ->
      List.iter
        (fun (label, mode) ->
          let idx = Kmismatch.load_index ~mode path in
          check bool (label ^ ": same interval pairs") true
            (interval_trace (Kmismatch.bidir idx) patterns = expected))
        [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ])

(* ------------------------------------------------------------------ *)

let test_engines_bench_smoke () = Engines_bench.smoke ()

(* A divergence is a typed [Internal] error naming the engine, the
   baseline and the read index. *)
let test_cross_check_divergence () =
  let answers =
    [ ("m-tree", [ [ (3, 0) ]; [ (5, 1) ] ]); ("bidir", [ [ (3, 0) ]; [] ]) ]
  in
  match Bench_util.cross_check ~what:"probe" ~reads:[ "acgt"; "ttga" ] answers with
  | () -> Alcotest.fail "divergence not reported"
  | exception Kmm_error.Error (Kmm_error.Internal msg) ->
      List.iter
        (fun part ->
          check bool (Printf.sprintf "%S names %S" msg part) true
            (contains msg part))
        [ "bidir"; "m-tree"; "read 1" ]

let () =
  Alcotest.run "bidir"
    [
      ( "schemes",
        [
          Alcotest.test_case "scheme valid and complete k<=4" `Quick test_schemes_complete;
          Alcotest.test_case "generic family k=5,6" `Slow test_generic_family;
          Alcotest.test_case "exact first piece" `Quick test_scheme_exact_start;
        ] );
      ( "bidir",
        [
          prop_bidir_matches_unidirectional;
          prop_oss_matches_naive;
          Alcotest.test_case "opening pieces around q" `Quick test_oss_opening_pieces;
          Alcotest.test_case "engine agrees with naive" `Quick
            test_bidir_engine_agrees;
          Alcotest.test_case "prefix table = q-step walks" `Quick test_prefix_table;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "no garbage per extension" `Quick test_search_allocation;
          Alcotest.test_case "cut search leaves rows usable" `Quick
            test_cut_search_leaves_rows_usable;
          Alcotest.test_case "every extension counted" `Quick test_every_extension_counted;
        ] );
      ( "index",
        [
          Alcotest.test_case "build_index normalizes once" `Quick
            test_build_index_normalization;
          Alcotest.test_case "of_sequence keeps no text" `Quick
            test_of_sequence_keeps_no_text;
          Alcotest.test_case "cold start builds nothing" `Quick
            test_cold_start_allocation;
          Alcotest.test_case "pairs equal across load modes" `Quick
            test_pairs_across_load_modes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spelling-insensitive names" `Quick
            test_engine_spellings;
          Alcotest.test_case "find_name allocates nothing" `Quick
            test_find_name_allocation;
          Alcotest.test_case "typed unknown-engine error" `Quick
            test_engine_of_string_err;
          Alcotest.test_case "stub engine: one registration" `Quick
            test_stub_engine_registration;
        ] );
      ( "bench",
        [
          Alcotest.test_case "engines bench cross-check smoke" `Quick
            test_engines_bench_smoke;
          Alcotest.test_case "cross-check divergence is Internal" `Quick
            test_cross_check_divergence;
        ] );
    ]
