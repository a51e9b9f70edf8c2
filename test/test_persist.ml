(* Tests for index persistence and the batch read mapper. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* The indexed text, unpacked from the index's 2-bit payload. *)
let text_of fm = Fmindex.(Packed_text.to_string (Fm_index.packed_text fm))

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
          let fm' = Test_util.load_fm path in
          text_of fm' = text
          && Fmindex.Fm_index.bwt fm' = Fmindex.Fm_index.bwt fm
          && Fmindex.Fm_index.find_all fm' pattern = Fmindex.Fm_index.find_all fm pattern))

let prop_fm_roundtrip_rates =
  Test_util.qtest ~count:50 "roundtrip preserves nondefault rates"
    (Test_util.dna_gen ~lo:10 ~hi:200 ())
    (fun text ->
      with_temp (fun path ->
          let fm = Fmindex.Fm_index.build ~occ_rate:7 ~sa_rate:5 text in
          Fmindex.Fm_index.save fm path;
          let fm' = Test_util.load_fm path in
          let probe = String.sub text 0 (min 4 (String.length text)) in
          Fmindex.Fm_index.find_all fm' probe = Fmindex.Fm_index.find_all fm probe))

let test_fm_roundtrip_one_char () =
  with_temp (fun path ->
      let fm = Fmindex.Fm_index.build "a" in
      Fmindex.Fm_index.save fm path;
      let fm' = Test_util.load_fm path in
      check string "1-char text survives" "a" (text_of fm');
      check bool "1-char locate" true (Fmindex.Fm_index.find_all fm' "a" = [ 0 ]))

let test_fm_roundtrip_rates_exceed_text () =
  (* checkpoint / sample rates larger than the text: one checkpoint
     block, one sampled row — still a faithful roundtrip *)
  with_temp (fun path ->
      let text = "acgtacgt" in
      let fm = Fmindex.Fm_index.build ~occ_rate:1000 ~sa_rate:1000 text in
      Fmindex.Fm_index.save fm path;
      let fm' = Test_util.load_fm path in
      check string "text" text (text_of fm');
      check bool "find_all agrees" true
        (Fmindex.Fm_index.find_all fm' "acgt" = Fmindex.Fm_index.find_all fm "acgt"))

let expect_load_failure ?mode ~containing path =
  match Fmindex.Fm_index.try_load ?mode path with
  | Error e ->
      let msg = Kmm_error.to_string e in
      check bool
        (Printf.sprintf "message %S mentions %S" msg containing)
        true
        (let len = String.length containing in
         let n = String.length msg in
         let rec scan i = i + len <= n && (String.sub msg i len = containing || scan (i + 1)) in
         scan 0)
  | _ -> Alcotest.fail "corrupt file accepted"

(* Each v5 header line must be rejected by the header field checks
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
  expect_header_rejected [ "kmm-fm-index 5 -5 16 16 0 1 0 0 0 0 0 0 128 0 0 0 0 0 0 0\n" ]

let test_fm_load_bad_rates () =
  (* Fields: n occ_rate sa_rate sentinel_row nsamples blocks_bytes
     super_len a_total c_total g_total t_total, then the forward side's
     fwd_rate fwd_sentinel_row fwd_blocks_bytes fwd_super_len and four
     totals; one bad field per line. *)
  let fwd = " 128 0 0 0 2 2 2 2\nxx" in
  expect_header_rejected
    (List.map
       (fun l -> l ^ fwd)
       [
         "kmm-fm-index 5 8 0 16 0 1 0 0 2 2 2 2";
         "kmm-fm-index 5 8 32 0 0 1 0 0 2 2 2 2";
         "kmm-fm-index 5 8 32 16 9 1 0 0 2 2 2 2";
         "kmm-fm-index 5 8 32 16 0 0 0 0 2 2 2 2";
         "kmm-fm-index 5 8 32 16 0 10 0 0 2 2 2 2";
         "kmm-fm-index 5 8 32 16 0 1 -1 0 2 2 2 2";
         "kmm-fm-index 5 8 32 16 0 1 0 -1 2 2 2 2";
       ]
    @ [
        "kmm-fm-index 5 8 32 16 0 1 0 0 -2 2 4 4 128 0 0 0 -2 2 4 4\nxx";
        "kmm-fm-index 5 8 32 16 0 1 0 0 2 2 2 2 128 0 -1 0 2 2 2 2\nxx";
        "kmm-fm-index 5 8 32 16 0 1 0 0 2 2 2 2 128 0 0 -1 2 2 2 2\nxx";
      ]);
  expect_header_rejected ~detail:"character totals do not sum to length"
    [ "kmm-fm-index 5 8 32 16 0 1 0 0 2 2 2 3 128 0 0 0 2 2 2 3\nxx" ]

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
      match Fmindex.Fm_index.try_load path with
      | Error (Kmm_error.Io _) | Ok _ -> Alcotest.fail "garbage accepted"
      | Error _ -> ())

let test_fm_load_truncated () =
  with_temp (fun path ->
      let fm = Fmindex.Fm_index.build "acgtacgtacgtacgtacgt" in
      Fmindex.Fm_index.save fm path;
      let content = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub content 0 (String.length content - 3));
      close_out oc;
      match Fmindex.Fm_index.try_load path with
      | Error (Kmm_error.Io _) | Ok _ -> Alcotest.fail "truncated file accepted"
      | Error _ -> ())

let test_index_file_size () =
  (* Format v5 serializes the index's own buffers — packed text (n/4),
     interleaved rank blocks (~n/2 at rate 32), the forward side's rank
     blocks (~0.31 n at rate 128), SA marks (~n/8) and bit-packed
     samples (10 bits each at this size, ~0.08 n at rate 16) plus ~330
     bytes of header, section table and checksums: 13 152 bytes for
     these 10 000 bases, a load that performs no reconstruction at
     all. *)
  with_temp (fun path ->
      let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 4 |]) 10_000) in
      Fmindex.Fm_index.save (Fmindex.Fm_index.build text) path;
      let size = (Unix.stat path).Unix.st_size in
      check bool "about 1.3 n" true (size < 13_902 && size > 12_402))

let test_v5_header () =
  (* [save] writes the current format: other tools (and these tests) may
     rely on the version token. *)
  with_temp (fun path ->
      Fmindex.Fm_index.save (Fmindex.Fm_index.build "acgtacgt") path;
      let line = In_channel.with_open_bin path In_channel.input_line in
      match line with
      | Some l ->
          check bool "v5 magic" true
            (String.length l > 14 && String.sub l 0 14 = "kmm-fm-index 5")
      | None -> Alcotest.fail "empty index file")

let test_v5_section_corruption () =
  (* Flip bytes inside the binary sections of a saved file; every
     corruption must be rejected (by the per-section CRCs and the
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
        match Fmindex.Fm_index.try_load path with
        | Error (Kmm_error.Io _) | Ok _ ->
            Alcotest.fail (Printf.sprintf "corruption at byte %d accepted" off)
        | Error _ -> ()
      in
      (* A byte of the section-offset table: caught by the header CRC. *)
      corrupt_at header_len;
      (* Last byte is part of the trailer CRC itself. *)
      corrupt_at (String.length content - 1);
      (* A byte in the binary sections: per-section CRC mismatch. *)
      corrupt_at (header_len + 300 + 8))

let test_v5_truncated_sections () =
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
            match Fmindex.Fm_index.try_load path with
            | Error (Kmm_error.Io _) | Ok _ ->
                Alcotest.fail (Printf.sprintf "truncation to %d bytes accepted" keep)
            | Error _ -> ()
          end)
        [ 0; 10; 40; 100; 200; 400; 600; 800; n - 1 ])

(* ------------------------------------------------------------------ *)
(* The forward side's typed checks.  Each forgery below is resealed:
   its section CRCs, header CRC and whole-file CRC are recomputed, so
   only the check on the forged value itself can refuse it. *)

(* The law the loader's one-pass whole-file check rests on. *)
let prop_crc_combine =
  Test_util.qtest ~count:300 "crc combine (a, b) = crc (a ^ b)"
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (string_size (int_range 0 3000)))
    (fun (a, b) ->
      let open Fmindex.Crc32 in
      combine (string a) (string b) (String.length b) = string (a ^ b))

let error_t = Alcotest.testable Kmm_error.pp Kmm_error.equal

(* [image] with every checksum recomputed from its bytes.  The three
   header lines are line 1, the section table ("sections" and seven
   "offset length crc" triples) and "hcrc <crc>". *)
let reseal image =
  let l1_end = 1 + String.index image '\n' in
  let l2_end = 1 + String.index_from image l1_end '\n' in
  let table = String.split_on_char ' ' (String.sub image l1_end (l2_end - l1_end - 1)) in
  let rec entries = function
    | off :: len :: _ :: rest ->
        let off = int_of_string off and len = int_of_string len in
        Printf.sprintf " %012d %012d %08x" off len (Fmindex.Crc32.sub image ~pos:off ~len)
        :: entries rest
    | _ -> []
  in
  let l2 = "sections" ^ String.concat "" (entries (List.tl table)) ^ "\n" in
  let head = String.sub image 0 l1_end ^ l2 in
  let hcrc = Printf.sprintf "hcrc %08x\n" (Fmindex.Crc32.string head) in
  let body_start = l2_end + String.length hcrc in
  let unsealed =
    head ^ hcrc ^ String.sub image body_start (String.length image - body_start - 4)
  in
  let crc = Fmindex.Crc32.string unsealed in
  unsealed ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff))

(* Header field [i] (0 = n, counting after the version token) set to
   [v], zero-padded to the field's old width so no offset moves. *)
let forge_field image i v =
  let l1_end = String.index image '\n' in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub image 0 l1_end)) in
  let old = fields.(i + 2) in
  let digits = string_of_int (abs v) in
  let pad = String.length old - String.length digits - if v < 0 then 1 else 0 in
  if pad < 0 then Alcotest.failf "forged value %d wider than field %S" v old;
  fields.(i + 2) <- (if v < 0 then "-" else "") ^ String.make pad '0' ^ digits;
  reseal
    (String.concat " " (Array.to_list fields)
    ^ String.sub image l1_end (String.length image - l1_end))

let field image i =
  let l1 = String.sub image 0 (String.index image '\n') in
  int_of_string (List.nth (String.split_on_char ' ' l1) (i + 2))

(* Header field numbers of the forward side. *)
let f_fwd_rate = 11
let f_fwd_sentinel_row = 12
let f_fwd_super_len = 14
let f_fwd_totals = 15

let expect_error ?(modes = [ Fmindex.Fm_index.Copy; Fmindex.Fm_index.Mmap ]) ~expected image =
  List.iter
    (fun mode ->
      with_temp (fun path ->
          let oc = open_out_bin path in
          output_string oc image;
          close_out oc;
          match Fmindex.Fm_index.try_load ~mode path with
          | Error e -> check error_t (Kmm_error.to_string expected) expected e
          | Ok _ -> Alcotest.failf "forgery accepted (%s)" (Kmm_error.to_string expected)))
    modes

let homopolymer = Fmindex.Fm_index.serialize (Fmindex.Fm_index.build (String.make 300 'a'))

let test_reseal_is_identity () =
  (* The forgeries below are only meaningful if resealing an untouched
     image changes nothing. *)
  let image = Fmindex.Fm_index.serialize (Fmindex.Fm_index.build (Test_util.random_dna (Random.State.make [| 5 |]) 500)) in
  check string "reseal" image (reseal image);
  check bool "loads" true (Result.is_ok (Fmindex.Fm_index.try_of_string image))

let test_forward_totals_forged () =
  (* 300 a's: totals a=300, c=0.  Move one a to c on the forward side
     only; the sum still matches n + 1. *)
  let image = forge_field (forge_field homopolymer f_fwd_totals 299) (f_fwd_totals + 1) 1 in
  expect_error image
    ~expected:
      (Kmm_error.Corrupt
         (Kmm_error.Header, "forward totals disagree with the character totals"))

let test_forward_sentinel_forged () =
  (* The whole reversed homopolymer is its largest suffix: row n = 300. *)
  check int "forward sentinel row" 300 (field homopolymer f_fwd_sentinel_row);
  let expected =
    Kmm_error.Corrupt (Kmm_error.Header, "forward sentinel row out of range")
  in
  expect_error ~expected (forge_field homopolymer f_fwd_sentinel_row 301);
  expect_error ~expected (forge_field homopolymer f_fwd_sentinel_row (-1))

let test_forward_rate_forged () =
  check int "forward rate" 128 (field homopolymer f_fwd_rate);
  let expected = Kmm_error.Corrupt (Kmm_error.Header, "forward rate out of range") in
  expect_error ~expected (forge_field homopolymer f_fwd_rate 0);
  expect_error ~expected (forge_field homopolymer f_fwd_rate (-1))

let test_forward_blocks_recounted () =
  (* One forward checkpoint off by one, every checksum resealed: the
     Copy reader's recount of the forward blocks is what refuses it.
     The Mmap reader trusts the payload by design. *)
  let image = Fmindex.Fm_index.serialize (Fmindex.Fm_index.build (Test_util.random_dna (Random.State.make [| 6 |]) 600)) in
  check int "one forward superblock (four counters)" 4 (field image f_fwd_super_len);
  let l1_end = 1 + String.index image '\n' in
  (* Section 4's offset: "sections" + three 35-byte entries + " ". *)
  let off = int_of_string (String.sub image (l1_end + 8 + (3 * 35) + 1) 12) in
  (* Block 1 of the 40-byte blocks: its count of a's before it. *)
  let b = Bytes.of_string image in
  Bytes.set b (off + 40) (Char.chr ((Char.code (Bytes.get b (off + 40)) + 1) land 0xff));
  let forged = reseal (Bytes.to_string b) in
  match Fmindex.Fm_index.try_of_string forged with
  | Error (Kmm_error.Corrupt (Kmm_error.Forward_blocks, _)) -> ()
  | Error e -> Alcotest.failf "expected forward-blocks corruption, got %s" (Kmm_error.to_string e)
  | Ok _ -> Alcotest.fail "forged forward checkpoint accepted"

let test_v4_fixture_unsupported () =
  (* A file the previous release wrote. *)
  let image = In_channel.with_open_bin "fixtures/v4-random211.fmi" In_channel.input_all in
  expect_error ~expected:(Kmm_error.Unsupported_version 4) image

(* The save loop streams the image in chunks straight from the image
   string: between the sink's creation and its flush barrier it copies
   nothing onto the OCaml heap (a chunked copy would allocate the whole
   image again). *)
let test_save_writes_in_place () =
  let s = Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 5 |]) 1_000_000) in
  let fm = Fmindex.Fm_index.build s in
  let image_bytes = float (String.length (Fmindex.Fm_index.serialize fm)) in
  let start = ref 0. and spent = ref nan in
  let wrap (base : Fmindex.Fm_index.sink) =
    start := Gc.allocated_bytes ();
    {
      base with
      Fmindex.Fm_index.sink_flush =
        (fun () ->
          spent := Gc.allocated_bytes () -. !start;
          base.sink_flush ());
    }
  in
  with_temp (fun path -> Fmindex.Fm_index.save ~fsync:false ~wrap fm path);
  if not (!spent < 0.01 *. image_bytes) then
    Alcotest.failf "writing a %.0f-byte image allocated %.0f bytes" image_bytes !spent

(* A saved 1 Mbp index, for the heap bounds of saving and loading. *)
let mbp_index =
  lazy
    (Fmindex.Fm_index.build
       (Dna.Sequence.to_string (Dna.Sequence.random ~state:(Random.State.make [| 5 |]) 1_000_000)))

(* [Gc.allocated_bytes] of [f ()] as a multiple of [image_bytes]. *)
let heap_ratio ~image_bytes f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. float image_bytes)

(* [serialize] writes the header, padding and sections into one buffer
   of the image's length and takes every CRC in place: the image is
   the one thing it allocates. *)
let test_serialize_allocates_image_once () =
  let fm = Lazy.force mbp_index in
  let image_bytes = String.length (Fmindex.Fm_index.serialize fm) in
  let _, ratio = heap_ratio ~image_bytes (fun () -> Fmindex.Fm_index.serialize fm) in
  if ratio > 1.1 then
    Alcotest.failf "serialize allocated %.2fx the %d-byte image" ratio image_bytes

(* A Copy load reads the file into one buffer outside the OCaml heap
   and adopts its sections as views: what it allocates on the heap is
   the read chunk and the mark rank directory (n/8 bytes), not a copy
   of the image. *)
let test_copy_load_copies_nothing () =
  let fm = Lazy.force mbp_index in
  with_temp (fun path ->
      Fmindex.Fm_index.save ~fsync:false fm path;
      let image_bytes = (Unix.stat path).Unix.st_size in
      match
        heap_ratio ~image_bytes (fun () ->
            Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Copy path)
      with
      | Ok fm', ratio ->
          check int "length" 1_000_000 (Fmindex.Fm_index.length fm');
          if ratio > 0.25 then
            Alcotest.failf "copy load allocated %.2fx the %d-byte image" ratio image_bytes
      | Error e, _ -> Alcotest.fail (Kmm_error.to_string e))

(* A large file with no newline (here a sparse 32 MiB of zeros) is not
   an index: the header reader gives up on a line after a fixed number
   of bytes, so an Mmap load fails with [Bad_magic] without paging the
   mapping in or copying it onto the heap. *)
let test_mmap_newline_free_file () =
  let image_bytes = 32 lsl 20 in
  with_temp (fun path ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd image_bytes);
      match
        heap_ratio ~image_bytes (fun () ->
            Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path)
      with
      | Error Kmm_error.Bad_magic, ratio ->
          if ratio > 0.001 then
            Alcotest.failf "mmap header parse allocated %.4fx the %d-byte file" ratio
              image_bytes
      | Error e, _ -> Alcotest.fail ("expected Bad_magic, got " ^ Kmm_error.to_string e)
      | Ok _, _ -> Alcotest.fail "newline-free file accepted as an index")

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
          let heap = Test_util.load_fm ~mode:Fmindex.Fm_index.Copy path in
          let mm = Test_util.load_fm ~mode:Fmindex.Fm_index.Mmap path in
          text_of mm = text_of heap
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
(* Retired formats: v1–v4 files (the committed fixtures were written by
   old releases) fail with the typed [Unsupported_version] in both load
   modes; the index is rebuilt from its text instead. *)

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

let test_v1_fixture_resave_is_v5 () =
  (* The migration path for an old file: it no longer loads, so the
     index is rebuilt from its text (at the v1 file's occ_rate 7 /
     sa_rate 5) and saved, which writes v5.  The rebuilt file answers
     like a fresh default build in both load modes. *)
  expect_unsupported ~version:1 "fixtures/v1-random211.fmi";
  let text = In_channel.with_open_bin "fixtures/v1-random211.txt" In_channel.input_all in
  with_temp (fun path ->
      Fmindex.Fm_index.save (Fmindex.Fm_index.build ~occ_rate:7 ~sa_rate:5 text) path;
      let line = In_channel.with_open_bin path In_channel.input_line in
      (match line with
      | Some l -> check bool "resave v5" true (String.sub l 0 14 = "kmm-fm-index 5")
      | None -> Alcotest.fail "empty resave");
      let fresh = Fmindex.Fm_index.build text in
      List.iter
        (fun mode ->
          let fm = Test_util.load_fm ~mode path in
          check string "text survives migration" text (text_of fm);
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
          Alcotest.test_case "v5 header written" `Quick test_v5_header;
          Alcotest.test_case "v5 section corruption rejected" `Quick test_v5_section_corruption;
          Alcotest.test_case "v5 truncated sections rejected" `Quick test_v5_truncated_sections;
          Alcotest.test_case "reseal is the identity" `Quick test_reseal_is_identity;
          Alcotest.test_case "forged forward totals rejected" `Quick test_forward_totals_forged;
          Alcotest.test_case "forged forward sentinel rejected" `Quick test_forward_sentinel_forged;
          Alcotest.test_case "forged forward rate rejected" `Quick test_forward_rate_forged;
          Alcotest.test_case "copy recounts forward blocks" `Quick test_forward_blocks_recounted;
          Alcotest.test_case "v4 fixture: unsupported" `Quick test_v4_fixture_unsupported;
          Alcotest.test_case "saved file is world-readable" `Quick test_saved_file_permissions;
          Alcotest.test_case "save writes the image in place" `Quick test_save_writes_in_place;
          Alcotest.test_case "serialize allocates the image once" `Quick
            test_serialize_allocates_image_once;
          Alcotest.test_case "copy load copies nothing onto the heap" `Quick
            test_copy_load_copies_nothing;
          Alcotest.test_case "mmap of a newline-free file is typed" `Quick
            test_mmap_newline_free_file;
          Alcotest.test_case "proc-style file read to EOF" `Quick test_load_proc_style_file;
          Alcotest.test_case "directory gives typed Io" `Quick test_load_directory_is_typed_io;
          Alcotest.test_case "missing file gives typed Io" `Quick test_load_missing_is_typed_io;
          Alcotest.test_case "mmap adopts pre-v4 by copy" `Quick test_mmap_rejects_pre_v4;
          Alcotest.test_case "mmap catches truncation/header damage" `Quick
            test_mmap_detects_truncation_and_header_damage;
          prop_mmap_equals_copy;
          Alcotest.test_case "v1 fixture: paper text" `Quick test_v1_fixture_paper;
          Alcotest.test_case "v1 fixture: random211" `Quick test_v1_fixture_random;
          Alcotest.test_case "v1 fixture: resave migrates to v5" `Quick test_v1_fixture_resave_is_v5;
          Alcotest.test_case "v2 fixture: paper text" `Quick test_v2_fixture_paper;
          Alcotest.test_case "v2 fixture: random317" `Quick test_v2_fixture_random;
          prop_fm_roundtrip;
          prop_fm_roundtrip_rates;
          prop_kmismatch_index_roundtrip;
          prop_crc_combine;
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
