(* Robustness suite: the crash-safety and self-verification guarantees
   of the on-disk format, the fault-injection harness behind them,
   and the fail-soft behavior of the batch layers.

   The contracts under test:

   - {e detection}: every single-byte corruption (and every single-bit
     flip) of a saved index is rejected by [try_of_string] with a
     typed error — never accepted with wrong contents, never an untyped
     exception;
   - {e truncation}: every strict prefix of a saved index (at two
     occ_rate/sa_rate settings) is rejected with [Truncated], [Corrupt]
     or [Bad_magic] — never [Out_of_memory], [End_of_file] or a quiet
     wrong answer;
   - {e atomicity}: a save that fails partway (ENOSPC, crash, short
     write) leaves the target either absent or byte-identical to its
     previous contents, and leaves no temp file behind; a save whose
     bytes are silently corrupted in flight produces a file that load
     rejects;
   - {e fail-soft}: a bad read degrades to a typed [skipped] entry
     without perturbing the rest of the batch, identically at every
     [domains]/[chunk_size]; a raising pool task surfaces as
     [Task_failed] with its task id after the job drains, at
     [domains = 1] and [domains > 1] alike. *)

open Core

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fm_of_seed ?occ_rate ?sa_rate ~len seed =
  Fmindex.Fm_index.build ?occ_rate ?sa_rate
    (Test_util.random_dna (Random.State.make [| seed |]) len)

(* A human-readable tag for assertion messages. *)
let error_tag = function
  | Kmm_error.Bad_magic -> "bad-magic"
  | Kmm_error.Unsupported_version _ -> "unsupported-version"
  | Kmm_error.Truncated _ -> "truncated"
  | Kmm_error.Corrupt _ -> "corrupt"
  | Kmm_error.Io _ -> "io"
  | Kmm_error.Bad_input _ -> "bad-input"
  | Kmm_error.Internal _ -> "internal"
  | Kmm_error.Timeout _ -> "timeout"
  | Kmm_error.Overloaded _ -> "overloaded"

(* ------------------------------------------------------------------ *)
(* Detection: exhaustive single-byte and single-bit corruption          *)

let test_byte_sweep () =
  let fm = fm_of_seed ~len:151 5 in
  let image = Fmindex.Fm_index.serialize fm in
  let n = String.length image in
  let bad = ref 0 in
  for off = 0 to n - 1 do
    let corrupted =
      Fault.corrupt_string (Fault.Bit_flip { offset = off; bit = 0 }) image
    in
    (* bit 0 only warms up; the 0xff flip below covers all bits at once *)
    (match Fmindex.Fm_index.try_of_string corrupted with
    | Error _ -> ()
    | Ok _ -> incr bad);
    let b = Bytes.of_string image in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
    match Fmindex.Fm_index.try_of_string (Bytes.unsafe_to_string b) with
    | Error _ -> ()
    | Ok _ ->
        incr bad;
        Printf.eprintf "byte %d of %d: 0xff flip accepted\n" off n
  done;
  check int (Printf.sprintf "all %d byte corruptions rejected" n) 0 !bad

let test_bit_sweep () =
  (* Every single-bit flip on a smaller image: the finest-grained
     corruption a disk or wire can inflict. *)
  let fm = fm_of_seed ~occ_rate:7 ~sa_rate:5 ~len:67 6 in
  let image = Fmindex.Fm_index.serialize fm in
  let n = String.length image in
  let bad = ref 0 in
  for off = 0 to n - 1 do
    for bit = 0 to 7 do
      let corrupted = Fault.corrupt_string (Fault.Bit_flip { offset = off; bit }) image in
      match Fmindex.Fm_index.try_of_string corrupted with
      | Error _ -> ()
      | Ok _ ->
          incr bad;
          Printf.eprintf "bit %d of byte %d (of %d) accepted\n" bit off n
    done
  done;
  check int (Printf.sprintf "all %d bit flips rejected" (8 * n)) 0 !bad

let test_error_messages_typed () =
  (* A few spot checks that the right constructor comes back. *)
  let fm = fm_of_seed ~len:120 7 in
  let image = Fmindex.Fm_index.serialize fm in
  (match Fmindex.Fm_index.try_of_string "" with
  | Error (Kmm_error.Truncated _ | Kmm_error.Bad_magic) -> ()
  | Error e ->
      Alcotest.fail ("empty file: expected truncated/bad-magic, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "empty file accepted");
  (match Fmindex.Fm_index.try_of_string "not an index\nxxxx" with
  | Error Kmm_error.Bad_magic -> ()
  | Error e -> Alcotest.fail ("garbage: expected bad-magic, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Fmindex.Fm_index.try_of_string "kmm-fm-index 9 1 1 1 0\nx" with
  | Error (Kmm_error.Unsupported_version 9) -> ()
  | Error e -> Alcotest.fail ("v9: expected unsupported-version, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "v9 accepted");
  (* flip a byte in the middle of the image: some section CRC trips *)
  let mid = String.length image / 2 in
  match
    Fmindex.Fm_index.try_of_string
      (Fault.corrupt_string (Fault.Bit_flip { offset = mid; bit = 3 }) image)
  with
  | Error (Kmm_error.Corrupt _ | Kmm_error.Truncated _) -> ()
  | Error e -> Alcotest.fail ("mid flip: expected corrupt, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "mid flip accepted"

(* ------------------------------------------------------------------ *)
(* Truncation: every strict prefix of an index image is rejected       *)

let acceptable_truncation = function
  | Kmm_error.Truncated _ | Kmm_error.Corrupt _ | Kmm_error.Bad_magic -> true
  | Kmm_error.Unsupported_version _ | Kmm_error.Io _ | Kmm_error.Bad_input _
  | Kmm_error.Internal _ | Kmm_error.Timeout _ | Kmm_error.Overloaded _ ->
      false

let truncation_rejected image keep =
  match Fmindex.Fm_index.try_of_string (String.sub image 0 keep) with
  | Error e -> acceptable_truncation e
  | Ok _ -> false

let test_every_truncation_rejected () =
  (* Exhaustive on small indexes, at fine and at default sampling. *)
  List.iter
    (fun (occ_rate, sa_rate) ->
      let image =
        Fmindex.Fm_index.serialize (fm_of_seed ~occ_rate ~sa_rate ~len:83 8)
      in
      for keep = 0 to String.length image - 1 do
        if not (truncation_rejected image keep) then
          Alcotest.failf "truncation to %d of %d bytes accepted (rates %d/%d)" keep
            (String.length image) occ_rate sa_rate
      done)
    [ (7, 5); (32, 16) ]

let prop_truncation_rejected =
  Test_util.qtest ~count:60 "random prefix of random index rejected"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~lo:1 ~hi:260 ()) (int_range 0 1_000_000) bool)
    (fun (text, cut, fine) ->
      let fm =
        if fine then Fmindex.Fm_index.build ~occ_rate:7 ~sa_rate:5 text
        else Fmindex.Fm_index.build text
      in
      let image = Fmindex.Fm_index.serialize fm in
      let keep = cut mod String.length image in
      truncation_rejected image keep)

(* ------------------------------------------------------------------ *)
(* The mmap reader's (weaker, but still closed) detection contract:
   every corruption of the CRC-guarded header region and every
   truncation is rejected; a payload corruption may load — the payload
   CRC sweep is deliberately skipped, that is the cold-start win — but
   geometry validation must keep queries from ever crashing on it.     *)

let test_mmap_header_sweep () =
  let fm = fm_of_seed ~len:151 5 in
  let image = Fmindex.Fm_index.serialize fm in
  (* L1 line + the section table line + the 14-byte hcrc line *)
  let l1_end = String.index image '\n' + 1 in
  let hdr_len = String.index_from image l1_end '\n' + 1 + 14 in
  let path = Filename.temp_file "kmmrob" ".fmi" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      let bad = ref 0 in
      for off = 0 to hdr_len - 1 do
        let b = Bytes.of_string image in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
        write (Bytes.unsafe_to_string b);
        match Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path with
        | Error _ -> ()
        | Ok _ ->
            incr bad;
            Printf.eprintf "mmap: header byte %d of %d: 0xff flip accepted\n" off hdr_len
      done;
      check int (Printf.sprintf "all %d header corruptions rejected" hdr_len) 0 !bad;
      (* every strict prefix *)
      for keep = 0 to String.length image - 1 do
        write (String.sub image 0 keep);
        match Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path with
        | Error e when acceptable_truncation e -> ()
        | Error e -> Alcotest.failf "mmap: truncation to %d: wrong error %s" keep (error_tag e)
        | Ok _ -> Alcotest.failf "mmap: truncation to %d of %d accepted" keep (String.length image)
      done;
      (* Payload flips: the mmap loader accepts them by design (no O(n)
         CRC sweep).  The containment contract is weaker but real:
         queries on the corrupted index terminate with an answer —
         possibly wrong — or a clean bounds/walk exception; never
         memory-unsafety, never a hang (the LF walk is bounded by
         sa_rate steps).  [kmm verify] is the tool that detects this. *)
      let n = String.length image in
      List.iter
        (fun off ->
          let b = Bytes.of_string image in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
          write (Bytes.unsafe_to_string b);
          match Fmindex.Fm_index.try_load ~mode:Fmindex.Fm_index.Mmap path with
          | Error _ -> ()
          | Ok fm' ->
              List.iter
                (fun p ->
                  match Fmindex.Fm_index.find_all fm' p with
                  | _ -> ()
                  | exception (Invalid_argument _ | Failure _) -> ())
                [ "a"; "acgt"; "ttttttttt" ])
        [ hdr_len + 8; (hdr_len + n) / 2; n - 9 ])

(* ------------------------------------------------------------------ *)
(* Atomicity: failed saves leave the old file (or nothing), no temp     *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kmmrob-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let no_stray_files ~dir ~expect =
  let actual = List.sort compare (Array.to_list (Sys.readdir dir)) in
  check bool
    (Printf.sprintf "no stray files (found: %s)" (String.concat ", " actual))
    true
    (actual = List.sort compare expect)

let test_failed_save_preserves_old () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "idx.fmi" in
      let fm_old = fm_of_seed ~len:200 10 in
      let fm_new = fm_of_seed ~len:300 11 in
      Fmindex.Fm_index.save fm_old path;
      let old_bytes = read_file path in
      let image_len = String.length (Fmindex.Fm_index.serialize fm_new) in
      let offsets = [ 0; 1; 17; 100; image_len / 2; image_len - 1 ] in
      List.iter
        (fun off ->
          List.iter
            (fun plan ->
              (match
                 Fmindex.Fm_index.save ~wrap:(Fault.wrap plan) fm_new path
               with
              | () ->
                  Alcotest.failf "save survived %s" (Fault.plan_to_string plan)
              | exception Fault.Injected _ -> ());
              check bool
                (Printf.sprintf "old file intact after %s"
                   (Fault.plan_to_string plan))
                true
                (read_file path = old_bytes);
              no_stray_files ~dir ~expect:[ "idx.fmi" ])
            [ Fault.Enospc_after off; Fault.Crash_after off; Fault.Short_write off ])
        offsets;
      (* and the old index still loads fine *)
      match Fmindex.Fm_index.try_load path with
      | Ok fm -> check bool "old index still loads" true (Fmindex.Fm_index.length fm = 200)
      | Error e -> Alcotest.fail ("old index unreadable: " ^ Kmm_error.to_string e))

let test_failed_save_fresh_target_absent () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fresh.fmi" in
      let fm = fm_of_seed ~len:150 12 in
      (match Fmindex.Fm_index.save ~wrap:(Fault.wrap (Fault.Enospc_after 40)) fm path with
      | () -> Alcotest.fail "save survived injected ENOSPC"
      | exception Fault.Injected _ -> ());
      check bool "target never appeared" false (Sys.file_exists path);
      no_stray_files ~dir ~expect:[])

let test_bitflip_during_save_detected () =
  (* A save whose stream is silently corrupted completes (nothing to
     observe at write time) — the damage must then be caught at load. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "flipped.fmi" in
      let fm = fm_of_seed ~len:180 13 in
      let image_len = String.length (Fmindex.Fm_index.serialize fm) in
      List.iter
        (fun off ->
          Fmindex.Fm_index.save
            ~wrap:(Fault.wrap (Fault.Bit_flip { offset = off; bit = off mod 8 }))
            fm path;
          match Fmindex.Fm_index.try_load path with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "bit flip at offset %d survived load" off)
        [ 0; 3; 50; image_len / 2; image_len - 1 ])

let test_truncate_wrap_detected () =
  (* A silently-truncating sink (lost tail, no error reported): rename
     still happens, load must reject. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "short.fmi" in
      let fm = fm_of_seed ~len:140 14 in
      let image_len = String.length (Fmindex.Fm_index.serialize fm) in
      List.iter
        (fun keep ->
          Fmindex.Fm_index.save ~wrap:(Fault.wrap (Fault.Truncate_at keep)) fm path;
          match Fmindex.Fm_index.try_load path with
          | Error e ->
              check bool "typed truncation error" true (acceptable_truncation e)
          | Ok _ -> Alcotest.failf "truncation to %d bytes survived load" keep)
        [ 0; 25; image_len / 2; image_len - 1 ])

let test_corrupt_file_roundtrip () =
  (* [Fault.corrupt_file] — the post-hoc flavor used by CLI-level tests —
     must agree with [corrupt_string]. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "c.fmi" in
      let fm = fm_of_seed ~len:90 15 in
      Fmindex.Fm_index.save fm path;
      Fault.corrupt_file (Fault.Bit_flip { offset = 33; bit = 2 }) path;
      match Fmindex.Fm_index.try_load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt_file output accepted")

(* ------------------------------------------------------------------ *)
(* Work_pool: fault propagation at domains = 1 and domains = 4          *)

let pool_fault_case ~domains () =
  Work_pool.with_pool ~domains (fun pool ->
      let ran = Array.make 16 false in
      (match
         Work_pool.run pool ~tasks:16 (fun ~worker:_ ~task ->
             ran.(task) <- true;
             if task = 9 then raise Exit)
       with
      | () -> Alcotest.fail "exception swallowed"
      | exception Work_pool.Task_failed { task; exn = Exit } ->
          check int "failing task id" 9 task
      | exception e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e));
      (* the job drained: every task ran despite the failure *)
      Array.iteri
        (fun i r -> check bool (Printf.sprintf "task %d ran" i) true r)
        ran;
      (* the pool survives a failed job *)
      let out = Work_pool.map_array pool ~f:succ [| 10; 20 |] in
      check bool "pool alive" true (out = [| 11; 21 |]))

let test_pool_fault_seq () = pool_fault_case ~domains:1 ()
let test_pool_fault_par () = pool_fault_case ~domains:4 ()

let test_pool_first_failure_reported () =
  (* Sequential path: with several failing tasks, the lowest task id is
     the one reported (deterministic by construction). *)
  Work_pool.with_pool ~domains:1 (fun pool ->
      match
        Work_pool.run pool ~tasks:8 (fun ~worker:_ ~task ->
            if task mod 3 = 2 then failwith (string_of_int task))
      with
      | () -> Alcotest.fail "exception swallowed"
      | exception Work_pool.Task_failed { task; exn = Failure msg } ->
          check int "first failing task" 2 task;
          check Alcotest.string "its message" "2" msg
      | exception e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Mapper: fail-soft batches                                            *)

let mapper_genome =
  lazy
    (Dna.Genome_gen.generate { Dna.Genome_gen.default with size = 3_000; seed = 44 })

let mapper_index = lazy (Kmismatch.of_sequence (Lazy.force mapper_genome))

let planted pos len =
  Dna.Sequence.to_string (Dna.Sequence.sub (Lazy.force mapper_genome) ~pos ~len)

let test_mapper_fail_soft () =
  let idx = Lazy.force mapper_index in
  let n = Kmismatch.length idx in
  let good0 = planted 100 40 and good4 = planted 900 40 in
  let reads =
    [
      (0, good0);
      (1, "acgnacgt");               (* non-ACGT base *)
      (2, "");                       (* empty *)
      (3, String.make (n + 5) 'a');  (* longer than the reference *)
      (4, good4);
    ]
  in
  let hits, summary = Mapper.run Mapper.default idx ~reads ~k:1 in
  check int "total" 5 summary.Mapper.total;
  check int "three reads skipped" 3 (List.length summary.Mapper.skipped);
  List.iter
    (fun (id, e) ->
      check bool
        (Printf.sprintf "read %d skipped with bad-input (%s)" id (error_tag e))
        true
        (error_tag e = "bad-input"))
    summary.Mapper.skipped;
  check bool "skipped ids in batch order" true
    (List.map fst summary.Mapper.skipped = [ 1; 2; 3 ]);
  (* surviving reads are exactly as if the bad reads never existed *)
  let clean_hits, clean_summary =
    Mapper.run Mapper.default idx ~reads:[ (0, good0); (4, good4) ] ~k:1
  in
  check bool "surviving hits identical" true (hits = clean_hits);
  check int "mapped matches clean batch" clean_summary.Mapper.mapped
    summary.Mapper.mapped;
  (* no hit carries a skipped read's id *)
  List.iter
    (fun h ->
      check bool "hit from surviving read" true
        (h.Mapper.read_id = 0 || h.Mapper.read_id = 4))
    hits

let test_mapper_fail_soft_deterministic () =
  (* The skipped list and hits are byte-identical across every
     domains/chunk_size combination. *)
  let idx = Lazy.force mapper_index in
  let reads =
    List.init 23 (fun i ->
        if i mod 5 = 2 then (i, "nnn")
        else (i, planted ((i * 131) mod 2_000) 30))
  in
  let base = Mapper.run Mapper.default idx ~reads ~k:1 in
  List.iter
    (fun (domains, chunk_size) ->
      let got =
        Mapper.run { Mapper.default with domains; chunk_size } idx ~reads ~k:1
      in
      check bool
        (Printf.sprintf "domains=%d chunk=%d identical" domains chunk_size)
        true
        (got = base))
    [ (1, 1); (2, 3); (3, 1); (4, 7); (4, 64) ];
  let _, summary = base in
  check int "skipped count" 5 (List.length summary.Mapper.skipped)

let test_mapper_all_reads_bad () =
  let idx = Lazy.force mapper_index in
  let hits, summary = Mapper.run Mapper.default idx ~reads:[ (7, ""); (8, "xyz") ] ~k:0 in
  check int "no hits" 0 (List.length hits);
  check int "all skipped" 2 (List.length summary.Mapper.skipped);
  check int "none mapped" 0 summary.Mapper.mapped

(* ------------------------------------------------------------------ *)
(* Typed error channels: Fasta, Kmismatch, exit codes                   *)

let test_fasta_typed_errors () =
  (match Dna.Fasta.try_parse_string ">r1\nacgtqq\n" with
  | Error (Kmm_error.Bad_input msg) ->
      check bool "mentions the record" true
        (String.length msg > 0)
  | Error e -> Alcotest.fail ("expected bad-input, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "invalid FASTA accepted");
  (match Dna.Fasta.try_parse_string ">ok\nacgt\n" with
  | Ok [ r ] -> check Alcotest.string "name" "ok" r.Dna.Fasta.name
  | Ok _ -> Alcotest.fail "wrong record count"
  | Error e -> Alcotest.fail ("valid FASTA rejected: " ^ Kmm_error.to_string e));
  match Dna.Fasta.try_read_file "/nonexistent/kmm-no-such-file.fa" with
  | Error (Kmm_error.Io _) -> ()
  | Error e -> Alcotest.fail ("expected io, got " ^ error_tag e)
  | Ok _ -> Alcotest.fail "missing file read"

let test_kmismatch_try_load () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "k.fmi" in
      let idx = Kmismatch.build_index "acgtacgtacgtacgt" in
      Kmismatch.save_index idx path;
      (match Kmismatch.try_load_index path with
      | Ok idx' ->
          check Alcotest.string "text survives" (Kmismatch.text idx)
            (Kmismatch.text idx')
      | Error e -> Alcotest.fail ("roundtrip failed: " ^ Kmm_error.to_string e));
      Fault.corrupt_file (Fault.Truncate_at 60) path;
      (match Kmismatch.try_load_index path with
      | Error e -> check bool "typed error" true (acceptable_truncation e)
      | Ok _ -> Alcotest.fail "truncated index accepted");
      match Kmismatch.try_load_index (Filename.concat dir "absent.fmi") with
      | Error (Kmm_error.Io _) -> ()
      | Error e -> Alcotest.fail ("expected io, got " ^ error_tag e)
      | Ok _ -> Alcotest.fail "absent index loaded")

let test_exit_codes_distinct () =
  let errors =
    [
      Kmm_error.Bad_input "x";
      Kmm_error.Bad_magic;
      Kmm_error.Unsupported_version 9;
      Kmm_error.Truncated "x";
      Kmm_error.Corrupt (Kmm_error.Header, "x");
      Kmm_error.Io Not_found;
      Kmm_error.Internal "x";
    ]
  in
  let codes = List.map Kmm_error.exit_code errors in
  check int "all distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      check bool (Printf.sprintf "code %d reserved-free" c) true (c > 1 && c < 125))
    codes

let () =
  Random.self_init ();
  Alcotest.run "robustness"
    [
      ( "detection",
        [
          Alcotest.test_case "every byte flip rejected" `Quick test_byte_sweep;
          Alcotest.test_case "every bit flip rejected" `Quick test_bit_sweep;
          Alcotest.test_case "typed constructors" `Quick test_error_messages_typed;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "v4 mmap header sweep + prefixes" `Quick
            test_mmap_header_sweep;
          Alcotest.test_case "every prefix rejected" `Quick
            test_every_truncation_rejected;
          prop_truncation_rejected;
        ] );
      ( "atomic_save",
        [
          Alcotest.test_case "failed save preserves old file" `Quick
            test_failed_save_preserves_old;
          Alcotest.test_case "failed save: fresh target absent" `Quick
            test_failed_save_fresh_target_absent;
          Alcotest.test_case "in-flight bit flip detected at load" `Quick
            test_bitflip_during_save_detected;
          Alcotest.test_case "silent truncation detected at load" `Quick
            test_truncate_wrap_detected;
          Alcotest.test_case "corrupt_file detected" `Quick test_corrupt_file_roundtrip;
        ] );
      ( "work_pool_faults",
        [
          Alcotest.test_case "task failure, domains=1" `Quick test_pool_fault_seq;
          Alcotest.test_case "task failure, domains=4" `Quick test_pool_fault_par;
          Alcotest.test_case "first failure reported" `Quick
            test_pool_first_failure_reported;
        ] );
      ( "mapper_fail_soft",
        [
          Alcotest.test_case "bad reads skipped, batch survives" `Quick
            test_mapper_fail_soft;
          Alcotest.test_case "deterministic across domains" `Quick
            test_mapper_fail_soft_deterministic;
          Alcotest.test_case "all reads bad" `Quick test_mapper_all_reads_bad;
        ] );
      ( "typed_errors",
        [
          Alcotest.test_case "fasta" `Quick test_fasta_typed_errors;
          Alcotest.test_case "kmismatch try_load_index" `Quick test_kmismatch_try_load;
          Alcotest.test_case "exit codes distinct" `Quick test_exit_codes_distinct;
        ] );
    ]
