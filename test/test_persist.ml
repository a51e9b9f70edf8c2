(* Tests for index persistence and the batch read mapper. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_temp f =
  let path = Filename.temp_file "kmm" ".fmi" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* FM-index save/load                                                   *)

let prop_fm_roundtrip =
  Test_util.qtest ~count:100 "fm save/load roundtrip"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:6 ()))
    (fun (text, pattern) ->
      with_temp (fun path ->
          let fm = Fmindex.Fm_index.build text in
          Fmindex.Fm_index.save fm path;
          let fm' = Fmindex.Fm_index.load path in
          Fmindex.Fm_index.text fm' = text
          && Fmindex.Fm_index.bwt fm' = Fmindex.Fm_index.bwt fm
          && Fmindex.Fm_index.find_all fm' pattern = Fmindex.Fm_index.find_all fm pattern))

let prop_fm_roundtrip_rates =
  Test_util.qtest ~count:50 "roundtrip preserves nondefault rates"
    (Test_util.dna_gen ~lo:10 ~hi:200 ())
    (fun text ->
      with_temp (fun path ->
          let fm = Fmindex.Fm_index.build ~occ_rate:7 ~sa_rate:5 text in
          Fmindex.Fm_index.save fm path;
          let fm' = Fmindex.Fm_index.load path in
          let probe = String.sub text 0 (min 4 (String.length text)) in
          Fmindex.Fm_index.find_all fm' probe = Fmindex.Fm_index.find_all fm probe))

let test_fm_roundtrip_one_char () =
  with_temp (fun path ->
      let fm = Fmindex.Fm_index.build "a" in
      Fmindex.Fm_index.save fm path;
      let fm' = Fmindex.Fm_index.load path in
      check string "1-char text survives" "a" (Fmindex.Fm_index.text fm');
      check bool "1-char locate" true (Fmindex.Fm_index.find_all fm' "a" = [ 0 ]))

let test_fm_roundtrip_rates_exceed_text () =
  (* checkpoint / sample rates larger than the text: one checkpoint
     block, one sampled row — still a faithful roundtrip *)
  with_temp (fun path ->
      let text = "acgtacgt" in
      let fm = Fmindex.Fm_index.build ~occ_rate:1000 ~sa_rate:1000 text in
      Fmindex.Fm_index.save fm path;
      let fm' = Fmindex.Fm_index.load path in
      check string "text" text (Fmindex.Fm_index.text fm');
      check bool "find_all agrees" true
        (Fmindex.Fm_index.find_all fm' "acgt" = Fmindex.Fm_index.find_all fm "acgt"))

let expect_load_failure ?mode ~containing path =
  match Fmindex.Fm_index.load ?mode path with
  | exception Failure msg ->
      check bool
        (Printf.sprintf "message %S mentions %S" msg containing)
        true
        (let len = String.length containing in
         let n = String.length msg in
         let rec scan i = i + len <= n && (String.sub msg i len = containing || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "corrupt file accepted"

(* Each v4 header line must be rejected by the header field checks
   themselves (not by a later line), under both load modes, with the
   friendly header error. *)
let expect_header_rejected ?(detail = "field out of range") lines =
  List.iter
    (fun line ->
      with_temp (fun path ->
          let oc = open_out_bin path in
          output_string oc line;
          close_out oc;
          List.iter
            (fun mode ->
              expect_load_failure ~mode
                ~containing:("corrupt index header (" ^ detail ^ ")") path)
            [ Fmindex.Fm_index.Copy; Fmindex.Fm_index.Mmap ]))
    lines

let test_fm_load_negative_n () =
  (* a negative length in the header must be the friendly header error,
     not a raw Invalid_argument from an allocation *)
  expect_header_rejected [ "kmm-fm-index 4 -5 16 16 0 1 0 0 0 0 0 0\n" ]

let test_fm_load_bad_rates () =
  (* Fields: n occ_rate sa_rate sentinel_row nsamples blocks_bytes
     super_len a_total c_total g_total t_total; one bad field per line. *)
  expect_header_rejected
    [
      "kmm-fm-index 4 8 0 16 0 1 0 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 0 0 1 0 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 9 1 0 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 0 0 0 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 0 10 0 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 0 1 -1 0 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 0 1 0 -1 2 2 2 2\nxx";
      "kmm-fm-index 4 8 32 16 0 1 0 0 -2 2 4 4\nxx";
    ];
  expect_header_rejected ~detail:"character totals do not sum to length"
    [ "kmm-fm-index 4 8 32 16 0 1 0 0 2 2 2 3\nxx" ]

let test_fm_load_trailing_garbage () =
  with_temp (fun path ->
      let fm = Fmindex.Fm_index.build "acgtacgtacgtacgtacgt" in
      Fmindex.Fm_index.save fm path;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "Z";
      close_out oc;
      expect_load_failure ~containing:"trailing garbage" path)

let test_fm_load_garbage () =
  with_temp (fun path ->
      let oc = open_out path in
      output_string oc "definitely not an index\nxxxx";
      close_out oc;
      match Fmindex.Fm_index.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "garbage accepted")

let test_fm_load_truncated () =
  with_temp (fun path ->
      let fm = Fmindex.Fm_index.build "acgtacgtacgtacgtacgt" in
      Fmindex.Fm_index.save fm path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub content 0 (String.length content - 3));
      close_out oc;
      match Fmindex.Fm_index.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "truncated file accepted")

let test_index_file_size () =
  (* Format v4 serializes the index's own buffers — packed text (n/4),
     interleaved rank blocks (~n/2 at rate 32), SA marks (~n/8) and
     samples (~n/2 at rate 16) plus ~260 bytes of header, section table
     and checksums — trading ~1.4 bytes/base of file for a load that
     performs no reconstruction at all. *)
  with_temp (fun path ->
      let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 4 |]) 10_000) in
      Fmindex.Fm_index.save (Fmindex.Fm_index.build text) path;
      let size = (Unix.stat path).Unix.st_size in
      check bool "about 1.4 n" true (size < 14_500 && size > 13_000))

let test_v4_header () =
  (* [save] writes the current format: other tools (and these tests) may
     rely on the version token. *)
  with_temp (fun path ->
      Fmindex.Fm_index.save (Fmindex.Fm_index.build "acgtacgt") path;
      let line = In_channel.with_open_bin path In_channel.input_line in
      match line with
      | Some l ->
          check bool "v4 magic" true
            (String.length l > 14 && String.sub l 0 14 = "kmm-fm-index 4")
      | None -> Alcotest.fail "empty index file")

let test_v4_section_corruption () =
  (* Flip bytes inside the binary sections of a saved file; every
     corruption must be rejected (in v4 by the per-section CRCs and the
     whole-file trailer CRC), never loaded quietly. *)
  with_temp (fun path ->
      let st = Random.State.make [| 9 |] in
      let text = Test_util.random_dna st 400 in
      let fm = Fmindex.Fm_index.build text in
      Fmindex.Fm_index.save fm path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      let header_len = 1 + String.index content '\n' in
      let corrupt_at off =
        let b = Bytes.of_string content in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        match Fmindex.Fm_index.load path with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail (Printf.sprintf "corruption at byte %d accepted" off)
      in
      (* A byte of the section-offset table: caught by the header CRC. *)
      corrupt_at header_len;
      (* Last byte is part of the trailer CRC itself. *)
      corrupt_at (String.length content - 1);
      (* A byte in the binary sections: per-section CRC mismatch. *)
      corrupt_at (header_len + 300 + 8))

let test_v4_truncated_sections () =
  (* Truncate at several byte counts spanning every section boundary. *)
  with_temp (fun path ->
      let text = Test_util.random_dna (Random.State.make [| 11 |]) 300 in
      Fmindex.Fm_index.save (Fmindex.Fm_index.build text) path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length content in
      List.iter
        (fun keep ->
          if keep < n then begin
            let oc = open_out_bin path in
            output_string oc (String.sub content 0 keep);
            close_out oc;
            match Fmindex.Fm_index.load path with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail (Printf.sprintf "truncation to %d bytes accepted" keep)
          end)
        [ 0; 10; 40; 100; 200; 400; 600; n - 1 ])

let test_saved_file_permissions () =
  (* [write_atomic] builds the file under a 0o600 temp name; the final
     index must still be world-readable (0o644 masked by the process
     umask), or every build-as-root / serve-as-daemon split breaks. *)
  with_temp (fun path ->
      Fmindex.Fm_index.save (Fmindex.Fm_index.build "acgtacgtacgt") path;
      let um = Unix.umask 0 in
      ignore (Unix.umask um);
      let expected = 0o644 land lnot um in
      check int "mode is 0o644 & ~umask" expected
        ((Unix.stat path).Unix.st_perm land 0o777))

let test_load_proc_style_file () =
  (* Regression: the loader must not trust a stat/channel-length size
     probe.  /proc files report st_size = 0 while holding real content;
     a size-trusting reader sees an empty image (Truncated), the chunked
     reader reads the actual bytes and reports them for what they are:
     not an index at all (Bad_magic).  Either way the failure is a typed
     result, never a stray [End_of_file]. *)
  let path = "/proc/self/status" in
  if Sys.file_exists path then
    match Fmindex.Fm_index.try_load path with
    | Error Kmm_error.Bad_magic -> ()
    | Error e ->
        Alcotest.fail
          ("proc file content was not read: " ^ Kmm_error.to_string e)
    | Ok _ -> Alcotest.fail "proc file accepted as an index"

let test_load_directory_is_typed_io () =
  match Fmindex.Fm_index.try_load "." with
  | Error (Kmm_error.Io _) -> ()
  | Error e -> Alcotest.fail ("expected Io, got " ^ Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail "directory accepted as an index"

let test_load_missing_is_typed_io () =
  match Fmindex.Fm_index.try_load "/nonexistent/kmm/index.fmi" with
  | Error (Kmm_error.Io _) -> ()
  | Error e -> Alcotest.fail ("expected Io, got " ^ Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted as an index"

(* ------------------------------------------------------------------ *)
(* Mmap adoption: byte-identical answers to the copy loader. *)

let prop_mmap_equals_copy =
  Test_util.qtest ~count:60 "mmap load = copy load"
    QCheck2.Gen.(pair (Test_util.dna_gen ~lo:1 ~hi:400 ()) (Test_util.dna_gen ~lo:1 ~hi:8 ()))
    (fun (text, pattern) ->
      with_temp (fun path ->
          let fm = Fmindex.Fm_index.build text in
          Fmindex.Fm_index.save fm path;
          let heap = Fmindex.Fm_index.load ~mode:Fmindex.Fm_index.Copy path in
          let mm = Fmindex.Fm_index.load ~mode:Fmindex.Fm_index.Mmap path in
          Fmindex.Fm_index.text mm = Fmindex.Fm_index.text heap
          && Fmindex.Fm_index.bwt mm = Fmindex.Fm_index.bwt heap
          && Fmindex.Fm_index.find_all mm pattern = Fmindex.Fm_index.find_all heap pattern
          && Fmindex.Fm_index.count mm pattern = Fmindex.Fm_index.count heap pattern))

let test_mmap_detects_truncation_and_header_damage () =
  (* The mmap loader skips payload CRCs by design, but size/geometry and
     header-CRC checks must still catch truncation and header bytes. *)
  with_temp (fun path ->
      let text = Test_util.random_dna (Random.State.make [| 31 |]) 500 in
      Fmindex.Fm_index.save (Fmindex.Fm_index.build text) path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      let rewrite s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      rewrite (String.sub content 0 (String.length content - 5));
      (match Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated file accepted by the mmap loader");
      let b = Bytes.of_string content in
      Bytes.set b 20 'Z' (* inside the L1 header line *);
      rewrite (Bytes.to_string b);
      match Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "header damage accepted by the mmap loader")

(* ------------------------------------------------------------------ *)
(* Retired formats: v1–v3 files (the committed fixtures were written by
   old releases) fail with the typed [Unsupported_version] in both load
   modes; the index is rebuilt from its text instead. *)

let error_t = Alcotest.testable Kmm_error.pp Kmm_error.equal

let expect_unsupported ~version path =
  List.iter
    (fun (label, mode) ->
      match Fmindex.Fm_index.try_load ~mode path with
      | Error e ->
          check error_t (Printf.sprintf "%s: %s" label path)
            (Kmm_error.Unsupported_version version) e
      | Ok _ -> Alcotest.failf "%s: %s accepted" label path
      | exception e -> Alcotest.failf "%s: %s raised %s" label path (Printexc.to_string e))
    [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ]

(* A v3 header line (the v2 fields, no totals) over an unaligned body
   and the "kmm3" trailer. *)
let v3_image =
  "kmm-fm-index 3 7 32 16 3 2 16 4\n" ^ String.make 64 '\000' ^ "kmm3\000\000\000\000"

let test_mmap_rejects_pre_v4 () =
  (* Mmap mode runs the same version dispatch as Copy: no pre-v4 file
     is adopted by either. *)
  expect_unsupported ~version:1 "fixtures/v1-random211.fmi";
  expect_unsupported ~version:2 "fixtures/v2-random317.fmi";
  (match Fmindex.Fm_index.try_of_string v3_image with
  | Error e -> check error_t "v3 image" (Kmm_error.Unsupported_version 3) e
  | Ok _ -> Alcotest.fail "v3 image accepted");
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc v3_image;
      close_out oc;
      expect_unsupported ~version:3 path)

let test_v1_fixture_paper () = expect_unsupported ~version:1 "fixtures/v1-paper.fmi"

let test_v1_fixture_random () = expect_unsupported ~version:1 "fixtures/v1-random211.fmi"

let test_v1_fixture_resave_is_v4 () =
  (* The migration path for an old file: it no longer loads, so the
     index is rebuilt from its text (at the v1 file's occ_rate 7 /
     sa_rate 5) and saved, which writes v4.  The rebuilt file answers
     like a fresh default build in both load modes. *)
  expect_unsupported ~version:1 "fixtures/v1-random211.fmi";
  let text = In_channel.with_open_bin "fixtures/v1-random211.txt" In_channel.input_all in
  with_temp (fun path ->
      Fmindex.Fm_index.save (Fmindex.Fm_index.build ~occ_rate:7 ~sa_rate:5 text) path;
      let line = In_channel.with_open_bin path In_channel.input_line in
      (match line with
      | Some l -> check bool "resave v4" true (String.sub l 0 14 = "kmm-fm-index 4")
      | None -> Alcotest.fail "empty resave");
      let fresh = Fmindex.Fm_index.build text in
      List.iter
        (fun mode ->
          let fm = Fmindex.Fm_index.load ~mode path in
          check string "text survives migration" text (Fmindex.Fm_index.text fm);
          List.iter
            (fun pat ->
              check Alcotest.(list int) ("migrated find_all " ^ pat)
                (Fmindex.Fm_index.find_all fresh pat) (Fmindex.Fm_index.find_all fm pat))
            [ "a"; "tt"; "acg"; "gatc"; String.sub text 100 7 ])
        [ Fmindex.Fm_index.Copy; Fmindex.Fm_index.Mmap ])

let test_v2_fixture_paper () = expect_unsupported ~version:2 "fixtures/v2-paper.fmi"

let test_v2_fixture_random () = expect_unsupported ~version:2 "fixtures/v2-random317.fmi"

let prop_kmismatch_index_roundtrip =
  Test_util.qtest ~count:50 "kmismatch index roundtrip"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:20 ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:10 ())
        (int_range 0 3))
    (fun (text, pattern, k) ->
      with_temp (fun path ->
          let idx = Kmismatch.build_index text in
          Kmismatch.save_index idx path;
          let idx' = Kmismatch.load_index path in
          Kmismatch.text idx' = text
          && Test_util.run_hits idx' ~engine:Kmismatch.M_tree ~pattern ~k
             = Test_util.run_hits idx ~engine:Kmismatch.M_tree ~pattern ~k))

(* ------------------------------------------------------------------ *)
(* Mapper                                                               *)

let genome =
  lazy (Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 8_000; seed = 21 })

let fwd_only = Mapper.run { Mapper.default with both_strands = false }

let test_mapper_finds_planted_reads () =
  let g = Lazy.force genome in
  let idx = Kmismatch.of_sequence g in
  let reads =
    Dna.Read_sim.simulate
      { Dna.Read_sim.count = 30; len = 50; error_rate = 0.02;
        both_strands = true; seed = 5 }
      g
  in
  let k = 3 in
  let inputs =
    List.map (fun r -> (r.Dna.Read_sim.id, Dna.Sequence.to_string r.Dna.Read_sim.seq)) reads
  in
  let hits, summary = Mapper.run Mapper.default idx ~reads:inputs ~k in
  check int "total" 30 summary.Mapper.total;
  List.iter
    (fun r ->
      if r.Dna.Read_sim.errors <= k then begin
        let expected_strand = if r.Dna.Read_sim.forward then `Forward else `Reverse in
        check bool
          (Printf.sprintf "read %d found at origin" r.Dna.Read_sim.id)
          true
          (List.exists
             (fun h ->
               h.Mapper.read_id = r.Dna.Read_sim.id
               && h.Mapper.pos = r.Dna.Read_sim.origin
               && h.Mapper.strand = expected_strand
               && h.Mapper.distance = r.Dna.Read_sim.errors)
             hits)
      end)
    reads

let test_mapper_single_strand () =
  let g = Lazy.force genome in
  let idx = Kmismatch.of_sequence g in
  let seq = Dna.Sequence.to_string (Dna.Sequence.sub g ~pos:100 ~len:40) in
  let rc = Dna.Sequence.to_string (Dna.Sequence.revcomp (Dna.Sequence.of_string seq)) in
  let hits_fwd, _ = fwd_only idx ~reads:[ (0, rc) ] ~k:0 in
  check int "revcomp invisible on one strand" 0 (List.length hits_fwd);
  let hits_both, _ = Mapper.run Mapper.default idx ~reads:[ (0, rc) ] ~k:0 in
  check bool "found via reverse strand" true
    (List.exists (fun h -> h.Mapper.pos = 100 && h.Mapper.strand = `Reverse) hits_both)

let test_mapper_summary_consistency () =
  let g = Lazy.force genome in
  let idx = Kmismatch.of_sequence g in
  let reads =
    [ (0, "acgtacgtacgtacgtacgtacgtacgtacgtacgtacgt"); (1, Dna.Sequence.to_string (Dna.Sequence.sub g ~pos:0 ~len:40)) ]
  in
  let _, summary = Mapper.run Mapper.default idx ~reads ~k:1 in
  check int "total" 2 summary.Mapper.total;
  check int "mapped = unique + ambiguous" summary.Mapper.mapped
    (summary.Mapper.unique + summary.Mapper.ambiguous)

let test_best_hits () =
  let mk read_id pos distance = { Mapper.read_id; pos; strand = `Forward; distance } in
  let hits = [ mk 0 5 2; mk 0 9 1; mk 0 12 1; mk 1 3 0 ] in
  let best = Mapper.best_hits hits in
  check int "count" 3 (List.length best);
  check bool "distance-2 hit dropped" true
    (not (List.exists (fun h -> h.Mapper.pos = 5) best))

let test_to_tsv () =
  let hits = [ { Mapper.read_id = 3; pos = 7; strand = `Reverse; distance = 2 } ] in
  check string "tsv line" "3\t7\t-\t2\n" (Mapper.to_tsv hits)

let prop_mapper_matches_engine =
  Test_util.qtest ~count:100 "mapper fwd-only = raw engine"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:20 ~hi:200 ()) (Test_util.dna_gen ~lo:1 ~hi:10 ())
        (int_range 0 3))
    (fun (text, pattern, k) ->
      let idx = Kmismatch.build_index text in
      let hits, _ = fwd_only idx ~reads:[ (7, pattern) ] ~k in
      List.map (fun h -> (h.Mapper.pos, h.Mapper.distance)) hits
      = Test_util.run_hits idx ~engine:Kmismatch.M_tree ~pattern ~k)

let () =
  Alcotest.run "persist"
    [
      ( "fm_serialization",
        [
          Alcotest.test_case "garbage rejected" `Quick test_fm_load_garbage;
          Alcotest.test_case "truncation rejected" `Quick test_fm_load_truncated;
          Alcotest.test_case "1-char genome roundtrip" `Quick test_fm_roundtrip_one_char;
          Alcotest.test_case "rates exceeding text" `Quick test_fm_roundtrip_rates_exceed_text;
          Alcotest.test_case "negative n rejected" `Quick test_fm_load_negative_n;
          Alcotest.test_case "bad rates rejected" `Quick test_fm_load_bad_rates;
          Alcotest.test_case "trailing garbage rejected" `Quick test_fm_load_trailing_garbage;
          Alcotest.test_case "file size ~ 1.4 n" `Quick test_index_file_size;
          Alcotest.test_case "v4 header written" `Quick test_v4_header;
          Alcotest.test_case "v4 section corruption rejected" `Quick test_v4_section_corruption;
          Alcotest.test_case "v4 truncated sections rejected" `Quick test_v4_truncated_sections;
          Alcotest.test_case "saved file is world-readable" `Quick test_saved_file_permissions;
          Alcotest.test_case "proc-style file read to EOF" `Quick test_load_proc_style_file;
          Alcotest.test_case "directory gives typed Io" `Quick test_load_directory_is_typed_io;
          Alcotest.test_case "missing file gives typed Io" `Quick test_load_missing_is_typed_io;
          Alcotest.test_case "mmap adopts pre-v4 by copy" `Quick test_mmap_rejects_pre_v4;
          Alcotest.test_case "mmap catches truncation/header damage" `Quick
            test_mmap_detects_truncation_and_header_damage;
          prop_mmap_equals_copy;
          Alcotest.test_case "v1 fixture: paper text" `Quick test_v1_fixture_paper;
          Alcotest.test_case "v1 fixture: random211" `Quick test_v1_fixture_random;
          Alcotest.test_case "v1 fixture: resave migrates to v4" `Quick test_v1_fixture_resave_is_v4;
          Alcotest.test_case "v2 fixture: paper text" `Quick test_v2_fixture_paper;
          Alcotest.test_case "v2 fixture: random317" `Quick test_v2_fixture_random;
          prop_fm_roundtrip;
          prop_fm_roundtrip_rates;
          prop_kmismatch_index_roundtrip;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "planted reads" `Quick test_mapper_finds_planted_reads;
          Alcotest.test_case "strand handling" `Quick test_mapper_single_strand;
          Alcotest.test_case "summary consistency" `Quick test_mapper_summary_consistency;
          Alcotest.test_case "best hits" `Quick test_best_hits;
          Alcotest.test_case "tsv" `Quick test_to_tsv;
          prop_mapper_matches_engine;
        ] );
    ]
