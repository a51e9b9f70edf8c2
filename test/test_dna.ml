open Dna

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Alphabet                                                            *)

let test_codes_roundtrip () =
  for k = 0 to Alphabet.sigma - 1 do
    check int "code/of_code roundtrip" k (Alphabet.code (Alphabet.of_code k))
  done

let test_order () =
  (* $ < a < c < g < t, as required by the paper's BWT construction. *)
  check bool "sentinel smallest" true (Alphabet.sentinel_code = 0);
  check int "a" 1 (Alphabet.code 'a');
  check int "c" 2 (Alphabet.code 'c');
  check int "g" 3 (Alphabet.code 'g');
  check int "t" 4 (Alphabet.code 't')

let test_case_insensitive () =
  check int "A = a" (Alphabet.code 'a') (Alphabet.code 'A');
  check int "T = t" (Alphabet.code 't') (Alphabet.code 'T')

let test_invalid_char () =
  Alcotest.check_raises "code 'n'" (Invalid_argument "Alphabet.code: 'n' is not in {$acgt}")
    (fun () -> ignore (Alphabet.code 'n'))

let test_complement () =
  check string "complements" "tgca"
    (String.init 4 (fun i -> Alphabet.complement "acgt".[i]));
  (* Complement is an involution. *)
  String.iter
    (fun c ->
      check int "involution" (Alphabet.code c)
        (Alphabet.code (Alphabet.complement (Alphabet.complement c))))
    "acgt"

(* The match-based definitions the lookup tables replaced, checked on
   every byte: the same result, or the same [Invalid_argument]. *)
let spec_code = function
  | '$' -> Some 0
  | 'a' | 'A' -> Some 1
  | 'c' | 'C' -> Some 2
  | 'g' | 'G' -> Some 3
  | 't' | 'T' -> Some 4
  | _ -> None

let spec_complement = function
  | 'a' | 'A' -> Some 't'
  | 'c' | 'C' -> Some 'g'
  | 'g' | 'G' -> Some 'c'
  | 't' | 'T' -> Some 'a'
  | _ -> None

let test_every_byte () =
  let outcome f c = match f c with v -> Ok v | exception Invalid_argument msg -> Error msg in
  let res = Alcotest.(result int string) and cres = Alcotest.(result char string) in
  for b = 0 to 255 do
    let c = Char.chr b in
    let name what = Printf.sprintf "%s %C" what c in
    let base = spec_code c <> None && c <> '$' in
    check Alcotest.(option int) (name "code_opt") (spec_code c) (Alphabet.code_opt c);
    check res (name "code")
      (match spec_code c with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "Alphabet.code: %C is not in {$acgt}" c))
      (outcome Alphabet.code c);
    check bool (name "is_base") base (Alphabet.is_base c);
    check cres (name "normalize")
      (if c = '$' then Ok '$'
       else if base then Ok (Char.lowercase_ascii c)
       else Error (Printf.sprintf "Alphabet.normalize: %C is not a base" c))
      (outcome Alphabet.normalize c);
    check cres (name "complement")
      (match spec_complement c with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "Alphabet.complement: %C is not a base" c))
      (outcome Alphabet.complement c);
    check Alcotest.(option string) (name "Sequence.of_string_opt")
      (if base then Some (String.make 1 (Char.lowercase_ascii c)) else None)
      (Option.map Sequence.to_string (Sequence.of_string_opt (String.make 1 c)))
  done;
  let s = Sequence.of_string "ACGTTGCAacgtaaCCgg" in
  check string "revcomp = reversed complement" "ccggttacgttgcaacgt"
    (Sequence.to_string (Sequence.revcomp s))

(* ------------------------------------------------------------------ *)
(* Sequence                                                            *)

let test_sequence_normalizes () =
  check string "lowercased" "acgt" (Sequence.to_string (Sequence.of_string "AcGt"))

let test_sequence_rejects () =
  check bool "reject N" true (Sequence.of_string_opt "acgnt" = None);
  check bool "reject $" true (Sequence.of_string_opt "ac$t" = None)

let test_revcomp () =
  let s = Sequence.of_string "aaccggtt" in
  check string "revcomp" "aaccggtt" (Sequence.to_string (Sequence.revcomp s));
  let s2 = Sequence.of_string "acg" in
  check string "revcomp acg" "cgt" (Sequence.to_string (Sequence.revcomp s2))

let test_hamming () =
  check int "equal" 0
    (Sequence.hamming (Sequence.of_string "acgt") (Sequence.of_string "acgt"));
  check int "one diff" 1
    (Sequence.hamming (Sequence.of_string "acgt") (Sequence.of_string "aggt"));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Sequence.hamming: length mismatch") (fun () ->
      ignore (Sequence.hamming (Sequence.of_string "ac") (Sequence.of_string "a")))

let prop_revcomp_involution =
  Test_util.qtest "revcomp involution" (Test_util.dna_gen ~hi:200 ()) (fun s ->
      let seq = Sequence.of_string s in
      Sequence.equal seq (Sequence.revcomp (Sequence.revcomp seq)))

let prop_rev_involution =
  Test_util.qtest "rev involution" (Test_util.dna_gen ~hi:200 ()) (fun s ->
      let seq = Sequence.of_string s in
      Sequence.equal seq (Sequence.rev (Sequence.rev seq)))

(* ------------------------------------------------------------------ *)
(* Fasta                                                               *)

let test_fasta_roundtrip () =
  let records =
    [
      { Fasta.name = "chr1"; seq = Sequence.of_string "acgtacgtacgt" };
      { Fasta.name = "chr2 extra words"; seq = Sequence.of_string "ttttt" };
    ]
  in
  let parsed = Fasta.parse_string (Fasta.to_string ~width:5 records) in
  check int "record count" 2 (List.length parsed);
  List.iter2
    (fun a b ->
      check string "name" a.Fasta.name b.Fasta.name;
      check string "seq" (Sequence.to_string a.Fasta.seq) (Sequence.to_string b.Fasta.seq))
    records parsed

let test_fasta_wrapping_and_comments () =
  let doc = ">r1\n; a comment line\nACGT\nacgt\n\n>r2\naa\n" in
  match Fasta.parse_string doc with
  | [ r1; r2 ] ->
      check string "r1" "acgtacgt" (Sequence.to_string r1.Fasta.seq);
      check string "r2" "aa" (Sequence.to_string r2.Fasta.seq)
  | _ -> Alcotest.fail "expected two records"

let test_fasta_errors () =
  let expect_fail doc =
    match Fasta.parse_string doc with
    | exception Fasta.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_fail "acgt\n>r1\nacgt\n";
  expect_fail ">\nacgt\n";
  expect_fail ">r1\nacgnt\n"

let test_fasta_crlf_and_final_newline () =
  (* Locked-in edge-case behavior: CRLF documents parse (per-line trim),
     and the final record may end without a trailing newline. *)
  (match Fasta.parse_string ">r1\r\nACGT\r\nacgt\r\n>r2 desc\r\naa" with
  | [ r1; r2 ] ->
      check string "r1 name" "r1" r1.Fasta.name;
      check string "r1 seq joined across CRLF lines" "acgtacgt"
        (Sequence.to_string r1.Fasta.seq);
      check string "r2 name keeps description" "r2 desc" r2.Fasta.name;
      check string "r2 seq without trailing newline" "aa"
        (Sequence.to_string r2.Fasta.seq)
  | _ -> Alcotest.fail "expected two records");
  match Fasta.parse_string ">only\nacgt" with
  | [ r ] ->
      check string "single record, no final newline" "acgt"
        (Sequence.to_string r.Fasta.seq)
  | _ -> Alcotest.fail "expected one record"

let test_fasta_empty_body_rejected () =
  (* A header with no sequence lines is a truncation signal, not an empty
     sequence; every such shape must raise Parse_error. *)
  let expect_fail doc =
    match Fasta.parse_string doc with
    | exception Fasta.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted empty-bodied doc %S" doc
  in
  expect_fail ">a\n>b\nacgt\n";
  (* empty body mid-file *)
  expect_fail ">a\nacgt\n>b\n";
  (* empty body at end of file *)
  expect_fail ">a\n";
  expect_fail ">a";
  (* header followed only by blanks/comments is still empty *)
  expect_fail ">a\n; only a comment\n";
  expect_fail ">a\n\r\n\n"

let test_fasta_file_roundtrip () =
  let path = Filename.temp_file "repro" ".fa" in
  let records = [ { Fasta.name = "g"; seq = Sequence.random ~state:(Random.State.make [| 3 |]) 137 } ] in
  Fasta.write_file path records;
  let back = Fasta.read_file path in
  Sys.remove path;
  match back with
  | [ r ] ->
      check string "roundtrip through disk"
        (Sequence.to_string (List.hd records).Fasta.seq)
        (Sequence.to_string r.Fasta.seq)
  | _ -> Alcotest.fail "expected one record"

(* ------------------------------------------------------------------ *)
(* Genome generation                                                   *)

let test_genome_size () =
  let g = Genome_gen.generate { Genome_gen.default with size = 5000 } in
  check int "size honored" 5000 (Sequence.length g)

let test_genome_deterministic () =
  let p = { Genome_gen.default with size = 2000; seed = 9 } in
  check string "same seed, same genome"
    (Sequence.to_string (Genome_gen.generate p))
    (Sequence.to_string (Genome_gen.generate p))

let test_genome_seed_matters () =
  let p = { Genome_gen.default with size = 2000 } in
  let a = Genome_gen.generate { p with seed = 1 } in
  let b = Genome_gen.generate { p with seed = 2 } in
  check bool "different seeds differ" false (Sequence.equal a b)

let test_genome_has_repeats () =
  (* With 30% planted repeats of length 300, some 40-mer must occur more
     than once; in a 100kb i.i.d. genome a repeated 40-mer is essentially
     impossible (4^40 >> 1e10 pairs). *)
  let g =
    Genome_gen.generate
      { Genome_gen.default with size = 50_000; divergence = 0.0; seed = 5 }
  in
  let s = Sequence.to_string g in
  let seen = Hashtbl.create 1024 in
  let dup = ref false in
  let step = 7 in
  let i = ref 0 in
  while (not !dup) && !i <= String.length s - 40 do
    let kmer = String.sub s !i 40 in
    if Hashtbl.mem seen kmer then dup := true else Hashtbl.add seen kmer ();
    i := !i + step
  done;
  check bool "repeated 40-mer found" true !dup

let test_genome_validation () =
  let expect_invalid p =
    match Genome_gen.generate p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid { Genome_gen.default with size = 0 };
  expect_invalid { Genome_gen.default with repeat_fraction = 1.5 };
  expect_invalid { Genome_gen.default with size = 10; repeat_unit_len = 100 }

(* ------------------------------------------------------------------ *)
(* Read simulation                                                     *)

let genome_for_reads =
  lazy (Genome_gen.generate { Genome_gen.default with size = 20_000; seed = 11 })

let test_reads_basic () =
  let g = Lazy.force genome_for_reads in
  let cfg = { Read_sim.default with count = 100; len = 50; seed = 1 } in
  let reads = Read_sim.simulate cfg g in
  check int "count" 100 (List.length reads);
  List.iter
    (fun r ->
      check int "length" 50 (Sequence.length r.Read_sim.seq);
      check bool "origin in range" true
        (r.Read_sim.origin >= 0 && r.Read_sim.origin + 50 <= Sequence.length g))
    reads

let test_reads_error_consistency () =
  (* The forward pattern differs from the genome window in exactly
     [errors] positions. *)
  let g = Lazy.force genome_for_reads in
  let cfg = { Read_sim.default with count = 200; len = 80; error_rate = 0.05; seed = 2 } in
  let reads = Read_sim.simulate cfg g in
  List.iter
    (fun r ->
      let window = Sequence.sub g ~pos:r.Read_sim.origin ~len:80 in
      check int "hamming = errors" r.Read_sim.errors
        (Sequence.hamming window (Read_sim.forward_pattern r)))
    reads

let test_reads_error_free () =
  let g = Lazy.force genome_for_reads in
  let cfg = { Read_sim.default with count = 50; len = 60; error_rate = 0.0; seed = 3 } in
  List.iter
    (fun r -> check int "no errors" 0 r.Read_sim.errors)
    (Read_sim.simulate cfg g)

let test_reads_both_strands () =
  let g = Lazy.force genome_for_reads in
  let cfg =
    { Read_sim.default with count = 200; len = 40; both_strands = true; seed = 4 }
  in
  let reads = Read_sim.simulate cfg g in
  let fwd = List.length (List.filter (fun r -> r.Read_sim.forward) reads) in
  check bool "both strands sampled" true (fwd > 20 && fwd < 180);
  (* forward_pattern must still align to the forward strand. *)
  List.iter
    (fun r ->
      let window = Sequence.sub g ~pos:r.Read_sim.origin ~len:40 in
      check int "revcomp handled" r.Read_sim.errors
        (Sequence.hamming window (Read_sim.forward_pattern r)))
    reads

let test_reads_validation () =
  let g = Lazy.force genome_for_reads in
  let expect_invalid cfg =
    match Read_sim.simulate cfg g with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid { Read_sim.default with len = 0 };
  expect_invalid { Read_sim.default with len = 1_000_000 };
  expect_invalid { Read_sim.default with error_rate = 1.0 };
  expect_invalid { Read_sim.default with count = -1 }

let () =
  Alcotest.run "dna"
    [
      ( "alphabet",
        [
          Alcotest.test_case "codes roundtrip" `Quick test_codes_roundtrip;
          Alcotest.test_case "order" `Quick test_order;
          Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
          Alcotest.test_case "invalid char" `Quick test_invalid_char;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "every byte" `Quick test_every_byte;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "normalizes" `Quick test_sequence_normalizes;
          Alcotest.test_case "rejects bad chars" `Quick test_sequence_rejects;
          Alcotest.test_case "revcomp" `Quick test_revcomp;
          Alcotest.test_case "hamming" `Quick test_hamming;
          prop_revcomp_involution;
          prop_rev_involution;
        ] );
      ( "fasta",
        [
          Alcotest.test_case "roundtrip" `Quick test_fasta_roundtrip;
          Alcotest.test_case "wrapping and comments" `Quick test_fasta_wrapping_and_comments;
          Alcotest.test_case "malformed inputs" `Quick test_fasta_errors;
          Alcotest.test_case "CRLF and final newline" `Quick test_fasta_crlf_and_final_newline;
          Alcotest.test_case "empty bodies rejected" `Quick test_fasta_empty_body_rejected;
          Alcotest.test_case "file roundtrip" `Quick test_fasta_file_roundtrip;
        ] );
      ( "genome_gen",
        [
          Alcotest.test_case "size" `Quick test_genome_size;
          Alcotest.test_case "deterministic" `Quick test_genome_deterministic;
          Alcotest.test_case "seed matters" `Quick test_genome_seed_matters;
          Alcotest.test_case "has repeats" `Quick test_genome_has_repeats;
          Alcotest.test_case "validation" `Quick test_genome_validation;
        ] );
      ( "read_sim",
        [
          Alcotest.test_case "basic" `Quick test_reads_basic;
          Alcotest.test_case "errors consistent" `Quick test_reads_error_consistency;
          Alcotest.test_case "error free" `Quick test_reads_error_free;
          Alcotest.test_case "both strands" `Quick test_reads_both_strands;
          Alcotest.test_case "validation" `Quick test_reads_validation;
        ] );
    ]
