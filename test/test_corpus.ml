(* The reference a query runs against ([Corpus.t], one monolithic
   index): a saved index loaded by copy or by mmap answers, and maps
   reads, byte-identically to the index built in memory from the same
   text. *)

open Core

let check = Alcotest.check
let hits_t = Alcotest.(list (pair int int))

let text =
  let st = Random.State.make [| 0xc0de |] in
  Test_util.random_dna st 9_000

let built = lazy (Kmismatch.build_index text)

let q ?(engine = Kmismatch.M_tree) pattern k =
  Kmismatch.Query.make ~engine ~pattern ~k ()

let hits_of = function
  | Ok r -> r.Kmismatch.Response.hits
  | Error e -> Alcotest.fail ("query failed: " ^ Kmm_error.to_string e)

(* The built index saved to a temp file and loaded back in [mode]. *)
let with_loaded mode f =
  let path = Filename.temp_file "kmm-corpus" ".fmi" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Kmismatch.save_index (Lazy.force built) path;
      f (Corpus.load ~mode path))

(* Patterns at the text's ends, planted inside it, and mutated. *)
let probe_patterns =
  let st = Random.State.make [| 0xfeed |] in
  let sub pos len = String.sub text pos len in
  let mutated s =
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b / 2) "acgt".[Random.State.int st 4];
    Bytes.to_string b
  in
  [ sub 0 20; sub (String.length text - 20) 20; sub 100 300 ]
  @ List.init 6 (fun _ ->
        let len = 8 + Random.State.int st 56 in
        let p = sub (Random.State.int st (String.length text - len)) len in
        if Random.State.int st 2 = 0 then p else mutated p)

let assert_same_answers ~engines corpus name =
  List.iter
    (fun engine ->
      List.iter
        (fun pattern ->
          List.iter
            (fun k ->
              check hits_t
                (Printf.sprintf "%s %s: %d bp pattern, k=%d" name
                   (Kmismatch.engine_name engine) (String.length pattern) k)
                (hits_of (Kmismatch.try_run (Lazy.force built) (q ~engine pattern k)))
                (hits_of (Corpus.try_run corpus (q ~engine pattern k))))
            [ 0; 2 ])
        probe_patterns)
    engines

let test_loaded_equals_built () =
  List.iter
    (fun (name, mode) ->
      with_loaded mode (fun c ->
          assert_same_answers c name
            ~engines:[ Kmismatch.M_tree; Kmismatch.Amir; Kmismatch.Bidir ]))
    [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ]

let test_pattern_longer_than_corpus () =
  (* Longer than the whole text is an ordinary empty answer, not an
     error. *)
  let big = String.concat "" (List.init 5 (fun _ -> text)) in
  check hits_t "empty answer" [] (hits_of (Corpus.try_run (Lazy.force built) (q big 2)))

(* --- the mapper over a loaded corpus --------------------------------- *)

let test_mapper_target_equivalence () =
  let st = Random.State.make [| 0xabcd |] in
  let reads =
    List.init 24 (fun i ->
        let len = 20 + Random.State.int st 40 in
        let pos = Random.State.int st (String.length text - len) in
        (i, String.sub text pos len))
  in
  let render (hits, summary) =
    Mapper.to_tsv hits
    ^ Printf.sprintf "mapped %d/%d\n" summary.Mapper.mapped summary.Mapper.total
  in
  let map idx domains = render (Mapper.run { Mapper.default with domains } idx ~reads ~k:2) in
  let reference = map (Lazy.force built) 1 in
  with_loaded Fmindex.Fm_index.Mmap (fun c ->
      List.iter
        (fun domains ->
          check Alcotest.string
            (Printf.sprintf "loaded mapper = built mapper (domains=%d)" domains)
            reference (map c domains))
        [ 1; 4 ])

let () =
  Alcotest.run "corpus"
    [
      ( "equivalence",
        [
          Alcotest.test_case "loaded = built (3 engines)" `Quick test_loaded_equals_built;
          Alcotest.test_case "pattern longer than corpus" `Quick
            test_pattern_longer_than_corpus;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "loaded target maps as built" `Quick
            test_mapper_target_equivalence;
        ] );
    ]
