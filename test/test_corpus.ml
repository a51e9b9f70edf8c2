(* The sharded corpus layer: equivalence with a monolithic index,
   manifest persistence (copy and mmap adoption), typed refusals, and
   manifest corruption handling.

   The load-bearing invariant everywhere below: for any pattern up to
   [max_query], a sharded corpus — built in parallel, saved, reloaded,
   by copy or by mmap, at any domain count — answers byte-identically
   to [Kmismatch.try_run] on the one monolithic index of the same
   text.  This file is also the CI smoke for the 2-shard manifest path
   (it runs under [dune runtest]). *)

open Core

let check = Alcotest.check
let hits_t = Alcotest.(list (pair int int))

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmm-corpus-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Fixture: long enough for several shards, with a random tail so
   repeated patterns land on both sides of shard boundaries. *)
let text =
  let st = Random.State.make [| 0xc0de |] in
  Test_util.random_dna st 9_000

let mono_idx = lazy (Kmismatch.build_index text)
let mono_corpus = lazy (Corpus.mono (Lazy.force mono_idx))

(* 9000 bp at shard_size 2000, overlap 64: 5 shards, max_query 65. *)
let shard_size = 2_000
let ovl = 64
let sharded = lazy (Corpus.build ~shard_size ~overlap:ovl ~domains:2 text)

let q ?(engine = Kmismatch.M_tree) pattern k =
  Kmismatch.Query.make ~engine ~pattern ~k ()

let hits_of = function
  | Ok r -> r.Kmismatch.Response.hits
  | Error e -> Alcotest.fail ("query failed: " ^ Kmm_error.to_string e)

(* Patterns that matter: inside a shard, exactly straddling each
   boundary, at the corpus ends, at the max_query length, mutated. *)
let probe_patterns =
  let st = Random.State.make [| 0xfeed |] in
  let sub pos len = String.sub text pos len in
  let mutated s =
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b / 2) "acgt".[Random.State.int st 4];
    Bytes.to_string b
  in
  List.concat
    [
      [ sub 0 20; sub (String.length text - 20) 20; sub 100 (ovl + 1) ];
      (* straddle every shard boundary with the longest legal pattern *)
      List.init 4 (fun i ->
          let boundary = (i + 1) * shard_size in
          sub (boundary - ovl) (ovl + 1));
      List.init 6 (fun _ ->
          let len = 8 + Random.State.int st (ovl - 8) in
          let pos = Random.State.int st (String.length text - len) in
          let p = sub pos len in
          if Random.State.int st 2 = 0 then p else mutated p);
    ]

let assert_corpus_equals_mono ?(engines = [ Kmismatch.M_tree ]) corpus name =
  List.iter
    (fun engine ->
      List.iter
        (fun pattern ->
          List.iter
            (fun k ->
              let expected =
                hits_of (Kmismatch.try_run (Lazy.force mono_idx) (q ~engine pattern k))
              in
              let got = hits_of (Corpus.try_run corpus (q ~engine pattern k)) in
              check hits_t
                (Printf.sprintf "%s: %d bp pattern, k=%d" name (String.length pattern) k)
                expected got)
            [ 0; 2 ])
        probe_patterns)
    engines

(* --- in-memory equivalence ------------------------------------------- *)

let test_build_shape () =
  let c = Lazy.force sharded in
  check Alcotest.int "nshards" 5 (Corpus.nshards c);
  check Alcotest.int "length" (String.length text) (Corpus.length c);
  check Alcotest.(option int) "overlap" (Some ovl) (Corpus.overlap c);
  check Alcotest.int "max_query" (ovl + 1) (Corpus.max_query c);
  let m = Lazy.force mono_corpus in
  check Alcotest.int "mono nshards" 1 (Corpus.nshards m);
  check Alcotest.int "mono max_query" (String.length text) (Corpus.max_query m)

let test_sharded_equals_mono () =
  assert_corpus_equals_mono (Lazy.force sharded) "sharded"
    ~engines:[ Kmismatch.M_tree; Kmismatch.Kangaroo ]

let test_domain_count_deterministic () =
  (* The same text built at 1 and 3 domains must answer identically —
     shard [i] lands in slot [i] whatever domain built it. *)
  let c1 = Corpus.build ~shard_size ~overlap:ovl ~domains:1 text in
  let c3 = Corpus.build ~shard_size ~overlap:ovl ~domains:3 text in
  List.iter
    (fun pattern ->
      check hits_t "domains 1 = domains 3"
        (hits_of (Corpus.try_run c1 (q pattern 2)))
        (hits_of (Corpus.try_run c3 (q pattern 2))))
    probe_patterns

let test_overlong_pattern_refused () =
  let c = Lazy.force sharded in
  match Corpus.try_run c (q (String.sub text 10 (ovl + 2)) 1) with
  | Error (Kmm_error.Bad_input msg) ->
      check Alcotest.bool "message names the limit" true
        (let needle = string_of_int (ovl + 1) in
         let n = String.length msg and l = String.length needle in
         let rec scan i = i + l <= n && (String.sub msg i l = needle || scan (i + 1)) in
         scan 0)
  | Error e -> Alcotest.fail ("expected Bad_input, got " ^ Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail "boundary-straddling pattern length accepted"

let test_pattern_longer_than_corpus () =
  (* Longer than the whole corpus is an ordinary empty answer, exactly
     as for a monolithic index — not a limit error. *)
  let c = Lazy.force sharded in
  let big = String.concat "" (List.init 5 (fun _ -> text)) in
  check hits_t "empty answer" [] (hits_of (Corpus.try_run c (q big 2)))

let test_single_shard_unlimited () =
  (* One shard stores everything, so no boundary limit applies. *)
  let c = Corpus.build ~shard_size:(String.length text) ~overlap:16 text in
  check Alcotest.int "single shard" 1 (Corpus.nshards c);
  let pattern = String.sub text 500 300 in
  check hits_t "300 bp pattern on 16-overlap single shard"
    (hits_of (Kmismatch.try_run (Lazy.force mono_idx) (q pattern 1)))
    (hits_of (Corpus.try_run c (q pattern 1)))

(* --- persistence: manifest save/load, copy and mmap ------------------ *)

let saved_manifest dir =
  let path = Filename.concat dir "corpus.fmi" in
  Corpus.save (Lazy.force sharded) path;
  path

let test_manifest_roundtrip_copy_and_mmap () =
  with_temp_dir (fun dir ->
      let path = saved_manifest dir in
      check Alcotest.bool "sniffed as manifest" true (Corpus.is_manifest path);
      let copy = Corpus.load ~mode:Fmindex.Fm_index.Copy path in
      let mm = Corpus.load ~mode:Fmindex.Fm_index.Mmap path in
      check Alcotest.int "copy nshards" 5 (Corpus.nshards copy);
      check Alcotest.int "mmap nshards" 5 (Corpus.nshards mm);
      assert_corpus_equals_mono copy "copy-loaded";
      assert_corpus_equals_mono mm "mmap-loaded")

(* The CI 2-shard smoke: build, save, reload (mmap), compare — the
   acceptance path for sharded manifests in miniature. *)
let test_two_shard_smoke () =
  with_temp_dir (fun dir ->
      let two = Corpus.build ~shard_size:5_000 ~overlap:100 ~domains:2 text in
      check Alcotest.int "two shards" 2 (Corpus.nshards two);
      let path = Filename.concat dir "two.fmi" in
      Corpus.save two path;
      let loaded = Corpus.load ~mode:Fmindex.Fm_index.Mmap path in
      let pattern = String.sub text 4_950 101 (* straddles the one boundary *) in
      check hits_t "2-shard mmap = mono"
        (hits_of (Kmismatch.try_run (Lazy.force mono_idx) (q pattern 2)))
        (hits_of (Corpus.try_run loaded (q pattern 2))))

let test_read_manifest () =
  with_temp_dir (fun dir ->
      let path = saved_manifest dir in
      match Corpus.try_read_manifest path with
      | Error e -> Alcotest.fail (Kmm_error.to_string e)
      | Ok m ->
          check Alcotest.int "total" (String.length text) m.Corpus.m_total;
          check Alcotest.int "overlap" ovl m.Corpus.m_overlap;
          check Alcotest.int "entries" 5 (Array.length m.Corpus.m_entries);
          Array.iteri
            (fun i e ->
              check Alcotest.int (Printf.sprintf "shard %d offset" i)
                (i * shard_size) e.Corpus.e_off;
              check Alcotest.bool (Printf.sprintf "shard %d file exists" i) true
                (Sys.file_exists (Filename.concat dir e.Corpus.e_file)))
            m.Corpus.m_entries)

let expect_load_error ~name ~matches path =
  match Corpus.try_load path with
  | Error e when matches e -> ()
  | Error e -> Alcotest.fail (name ^ ": wrong error " ^ Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail (name ^ ": accepted")

let test_manifest_corruption () =
  with_temp_dir (fun dir ->
      let path = saved_manifest dir in
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let rewrite s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      (* flip a digit in a shard line: header CRC mismatch *)
      let b = Bytes.of_string pristine in
      let off = 1 + String.index pristine '\n' + String.length "shard " in
      Bytes.set b off (if Bytes.get b off = '0' then '1' else '0');
      rewrite (Bytes.to_string b);
      expect_load_error ~name:"flipped digit"
        ~matches:(function Kmm_error.Corrupt _ -> true | _ -> false)
        path;
      (* truncated mid-line *)
      rewrite (String.sub pristine 0 (String.length pristine - 7));
      expect_load_error ~name:"truncated manifest"
        ~matches:(function
          | Kmm_error.Truncated _ | Kmm_error.Corrupt _ -> true | _ -> false)
        path;
      (* trailing garbage after the hcrc line *)
      rewrite (pristine ^ "extra\n");
      expect_load_error ~name:"trailing garbage"
        ~matches:(function Kmm_error.Corrupt _ -> true | _ -> false)
        path;
      rewrite pristine;
      (* a shard file vanishes: typed Io *)
      let shard0 = Filename.concat dir "corpus.fmi.shard000.fmi" in
      let saved_shard = In_channel.with_open_bin shard0 In_channel.input_all in
      Sys.remove shard0;
      expect_load_error ~name:"missing shard"
        ~matches:(function Kmm_error.Io _ -> true | _ -> false)
        path;
      (* a shard file truncated: the shard's own loader reports it *)
      let oc = open_out_bin shard0 in
      output_string oc (String.sub saved_shard 0 (String.length saved_shard / 2));
      close_out oc;
      expect_load_error ~name:"truncated shard"
        ~matches:(function
          | Kmm_error.Truncated _ | Kmm_error.Corrupt _ -> true | _ -> false)
        path)

(* --- the mapper over a corpus target --------------------------------- *)

let test_mapper_target_equivalence () =
  with_temp_dir (fun dir ->
      let path = saved_manifest dir in
      let mm = Corpus.load ~mode:Fmindex.Fm_index.Mmap path in
      let st = Random.State.make [| 0xabcd |] in
      let short_reads =
        List.init 24 (fun i ->
            let len = 20 + Random.State.int st 40 in
            let pos = Random.State.int st (String.length text - len) in
            (i, String.sub text pos len))
      in
      (* one read over the corpus query limit: skipped with a typed
         reason, never answered wrongly *)
      let reads = short_reads @ [ (99, String.sub text 50 (ovl + 10)) ] in
      let run_on target domains =
        Mapper.run_target { Mapper.default with domains } target ~reads:short_reads ~k:2
      in
      let render (hits, summary) =
        Mapper.to_tsv hits
        ^ Printf.sprintf "mapped %d/%d\n" summary.Mapper.mapped summary.Mapper.total
      in
      let reference = render (run_on (Corpus.target (Lazy.force mono_corpus)) 1) in
      List.iter
        (fun corpus ->
          List.iter
            (fun domains ->
              check Alcotest.string
                (Printf.sprintf "corpus mapper = mono mapper (domains=%d)" domains)
                reference
                (render (run_on (Corpus.target corpus) domains)))
            [ 1; 4 ])
        [ Lazy.force sharded; mm ];
      (* the over-long read: typed skip naming the limit, short reads
         unaffected *)
      let hits, summary =
        Mapper.run_target Mapper.default (Corpus.target mm) ~reads ~k:2
      in
      check Alcotest.bool "no hits for the skipped read" false
        (List.exists (fun h -> h.Mapper.read_id = 99) hits);
      match summary.Mapper.skipped with
      | [ (99, Kmm_error.Bad_input msg) ] ->
          check Alcotest.bool "skip reason names the limit" true
            (let needle = string_of_int (ovl + 1) in
             let n = String.length msg and l = String.length needle in
             let rec scan i = i + l <= n && (String.sub msg i l = needle || scan (i + 1)) in
             scan 0)
      | _ -> Alcotest.fail "expected exactly one typed skip for read 99")

let () =
  Random.self_init ();
  Alcotest.run "corpus"
    [
      ( "equivalence",
        [
          Alcotest.test_case "build shape" `Quick test_build_shape;
          Alcotest.test_case "sharded = mono (3 engines)" `Quick test_sharded_equals_mono;
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_domain_count_deterministic;
          Alcotest.test_case "over-long pattern refused" `Quick test_overlong_pattern_refused;
          Alcotest.test_case "pattern longer than corpus" `Quick
            test_pattern_longer_than_corpus;
          Alcotest.test_case "single shard has no limit" `Quick test_single_shard_unlimited;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "roundtrip copy+mmap" `Quick test_manifest_roundtrip_copy_and_mmap;
          Alcotest.test_case "2-shard smoke" `Quick test_two_shard_smoke;
          Alcotest.test_case "read_manifest fields" `Quick test_read_manifest;
          Alcotest.test_case "corruption typed errors" `Quick test_manifest_corruption;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "corpus target = mono target" `Quick
            test_mapper_target_equivalence;
        ] );
    ]
