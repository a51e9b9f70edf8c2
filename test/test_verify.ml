(* Word-parallel verification kernel: Packed_text.hamming / hamming_le
   against the scalar Hamming reference, the shared SWAR count tables,
   and the bench parity smoke. *)

module Packed_text = Fmindex.Packed_text
module Pattern = Packed_text.Pattern
module Hamming = Stringmatch.Hamming

let reverse_string s =
  let n = String.length s in
  String.init n (fun i -> s.[n - 1 - i])

(* ------------------------------------------------------------------ *)
(* Pinned vectors for the shared count tables                          *)

(* Independent recomputation, written differently from the library's
   (per-lane match loop there, arithmetic extraction here), plus pinned
   literals so an edit to the shared definition cannot slip through. *)
let test_count_tables () =
  for byte = 0 to 255 do
    let c = [| 0; 0; 0; 0 |] in
    List.iter
      (fun lane -> c.((byte lsr (2 * lane)) land 3) <- c.((byte lsr (2 * lane)) land 3) + 1)
      [ 0; 1; 2; 3 ];
    let expect = c.(1) lor (c.(2) lsl 16) lor (c.(3) lsl 32) in
    Alcotest.(check int)
      (Printf.sprintf "lane_count_table.(%d)" byte)
      expect
      Packed_text.lane_count_table.(byte);
    Alcotest.(check int)
      (Printf.sprintf "mismatch_count_table.(%d)" byte)
      (4 - c.(0))
      Packed_text.mismatch_count_table.(byte)
  done;
  (* Pinned literals: 0x00 = aaaa, 0xff = tttt, 0xe4 = acgt, 0x1b = tcga. *)
  Alcotest.(check int) "pin 0x00" 0 Packed_text.lane_count_table.(0x00);
  Alcotest.(check int) "pin 0xff" (4 lsl 32) Packed_text.lane_count_table.(0xff);
  Alcotest.(check int)
    "pin 0xe4"
    (1 lor (1 lsl 16) lor (1 lsl 32))
    Packed_text.lane_count_table.(0xe4);
  Alcotest.(check int)
    "pin 0x1b"
    (1 lor (1 lsl 16) lor (1 lsl 32))
    Packed_text.lane_count_table.(0x1b);
  Alcotest.(check int) "pin mm 0x00" 0 Packed_text.mismatch_count_table.(0x00);
  Alcotest.(check int) "pin mm 0xff" 4 Packed_text.mismatch_count_table.(0xff);
  Alcotest.(check int) "pin mm 0x03" 1 Packed_text.mismatch_count_table.(0x03);
  Alcotest.(check int) "pin mm 0x30" 1 Packed_text.mismatch_count_table.(0x30)

(* ------------------------------------------------------------------ *)
(* Directed word-boundary coverage                                     *)

(* Patterns at every length around both the kernel's real word width
   (28 lanes: 27/28/29, 55/56/57) and the 32-lane widths named in the
   issue (31/32/33, 63/64/65), each checked at every offset of a text
   long enough to exercise all four lane phases and the ragged final
   byte. *)
let boundary_lengths = [ 27; 28; 29; 31; 32; 33; 55; 56; 57; 63; 64; 65 ]

let test_word_boundaries () =
  let st = Random.State.make [| 0xb0bda7 |] in
  let text = Test_util.random_dna st 211 (* odd: last byte is ragged *) in
  let pt = Packed_text.of_string text in
  List.iter
    (fun m ->
      (* A pattern sharing text windows' composition: copy a window and
         plant a few mismatches, so distances are small but non-zero. *)
      let base = String.sub text 17 m in
      let pattern =
        String.mapi
          (fun j c ->
            if j mod 13 = 5 then (if c = 'a' then 'c' else 'a') else c)
          base
      in
      let pp = Pattern.make pattern in
      for pos = 0 to String.length text - m do
        let expect = Hamming.distance_at ~pattern ~text pos in
        let got = Packed_text.hamming ~limit:max_int pt pp ~pos in
        if got <> expect then
          Alcotest.failf "hamming m=%d pos=%d: expected %d, got %d" m pos
            expect got;
        List.iter
          (fun k ->
            let le = Packed_text.hamming_le pt pp ~pos ~k in
            if le <> (expect <= k) then
              Alcotest.failf "hamming_le m=%d pos=%d k=%d: expected %b" m pos
                k (expect <= k))
          [ 0; 1; 4; expect - 1; expect; expect + 1 ]
      done)
    boundary_lengths

(* ------------------------------------------------------------------ *)
(* qcheck equivalence                                                  *)

let gen_case =
  QCheck2.Gen.(
    Test_util.dna_gen ~lo:1 ~hi:220 ()
    >>= fun text ->
    int_range 1 (min 90 (String.length text))
    >>= fun m ->
    (* Mix of unrelated patterns and planted near-matches. *)
    oneof
      [
        Test_util.dna_gen ~lo:m ~hi:m ();
        (int_range 0 (String.length text - m) >|= fun p -> String.sub text p m);
      ]
    >>= fun pattern ->
    int_range 0 (String.length text - m)
    >>= fun pos -> int_range (-1) (m + 1) >|= fun k -> (text, pattern, pos, k))

let qcheck_equivalence =
  Test_util.qtest ~count:2000 "hamming_le ≡ distance_at <= k" gen_case
    (fun (text, pattern, pos, k) ->
      let pt = Packed_text.of_string text in
      let pp = Pattern.make pattern in
      let d = Hamming.distance_at ~pattern ~text pos in
      Packed_text.hamming ~limit:max_int pt pp ~pos = d
      && Packed_text.hamming_le pt pp ~pos ~k = (d <= k))

let qcheck_limit =
  Test_util.qtest ~count:1000 "scalar/packed ?limit contract agrees"
    gen_case
    (fun (text, pattern, pos, k) ->
      let limit = max k 0 in
      let pt = Packed_text.of_string text in
      let pp = Pattern.make pattern in
      let d = Hamming.distance_at ~pattern ~text pos in
      let scalar = Hamming.distance_at ~limit ~pattern ~text pos in
      let packed = Packed_text.hamming ~limit pt pp ~pos in
      (* Both early-exit results are exact below the limit and "> limit"
         above it; the prefix counts themselves may differ. *)
      (scalar > limit) = (d > limit)
      && (packed > limit) = (d > limit)
      && (if d <= limit then scalar = d && packed = d else true))

let qcheck_of_packed =
  Test_util.qtest ~count:500 "Pattern.of_packed ≡ Pattern.make of window"
    QCheck2.Gen.(
      Test_util.dna_gen ~lo:1 ~hi:150 ()
      >>= fun text ->
      int_range 1 (String.length text)
      >>= fun m ->
      int_range 0 (String.length text - m) >|= fun p -> (text, p, m))
    (fun (text, wpos, m) ->
      let pt = Packed_text.of_string text in
      let pp = Pattern.of_packed pt ~pos:wpos ~len:m in
      let pattern = String.sub text wpos m in
      List.for_all
        (fun pos ->
          pos < 0
          || pos + m > String.length text
          || Packed_text.hamming ~limit:max_int pt pp ~pos
             = Hamming.distance_at ~pattern ~text pos)
        [ 0; wpos; String.length text - m ])

(* The one-pass packing against the lane-by-lane construction it
   replaced: lane [p + i] of phase [p] holds code [i] at bits
   [2 * ((p + i) mod 28)] of word [(p + i) / 28], with a 0b11 mask. *)
let lane_by_lane codes p =
  let m = Array.length codes in
  let nb = (p + m + 3) / 4 in
  let nw = (nb + 6) / 7 in
  let words = Array.make nw 0 and masks = Array.make nw 0 in
  Array.iteri
    (fun i d ->
      let lane = p + i in
      let w = lane / Packed_text.word_lanes and sh = 2 * (lane mod Packed_text.word_lanes) in
      words.(w) <- words.(w) lor (d lsl sh);
      masks.(w) <- masks.(w) lor (3 lsl sh))
    codes;
  { Pattern.words; masks; last_bytes = nb - (7 * (nw - 1)) }

let qcheck_phases =
  Test_util.qtest ~count:500 "Pattern phases = lane-by-lane packing"
    QCheck2.Gen.(int_range 1 200 >>= fun m -> array_size (pure m) (int_bound 3))
    (fun codes ->
      let s = String.init (Array.length codes) (fun i -> "acgt".[codes.(i)]) in
      let made = Pattern.make s and of_codes = Pattern.of_codes codes in
      List.for_all
        (fun p ->
          let want = lane_by_lane codes p in
          Pattern.phase made p = want && Pattern.phase of_codes p = want)
        [ 0; 1; 2; 3 ])

let qcheck_rev =
  Test_util.qtest ~count:500 "rev reverses"
    (Test_util.dna_gen ~lo:0 ~hi:200 ())
    (fun s ->
      Packed_text.to_string (Packed_text.rev (Packed_text.of_string s))
      = reverse_string s)

(* ------------------------------------------------------------------ *)
(* mmap-adopted texts                                                  *)

(* The kernel must never read past the mapped section: the final word
   of a window at the end of the text covers fewer than 7 payload
   bytes.  Map a file of exactly ceil(n/4) bytes and verify every
   window of several lengths, phases included. *)
let test_mmap_adopted () =
  let st = Random.State.make [| 0x5eed |] in
  let text = Test_util.random_dna st 173 in
  let payload = Packed_text.payload_string (Packed_text.of_string text) in
  let path = Filename.temp_file "kmm_verify" ".packed" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc payload;
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let data =
            Fmindex.Storage.map_bytes fd ~pos:0 ~len:(String.length payload)
          in
          let pt = Packed_text.of_storage data ~len:(String.length text) in
          List.iter
            (fun m ->
              let pattern = String.sub text (String.length text - m) m in
              let pp = Pattern.make pattern in
              for pos = 0 to String.length text - m do
                let expect = Hamming.distance_at ~pattern ~text pos in
                if Packed_text.hamming ~limit:max_int pt pp ~pos <> expect then
                  Alcotest.failf "mmap hamming m=%d pos=%d" m pos
              done)
            [ 1; 28; 57; 64; 173 ]))

(* ------------------------------------------------------------------ *)
(* Edge cases and the telemetry contract                               *)

let test_edges () =
  let pt = Packed_text.of_string "acgtacgtac" in
  let pp = Pattern.make "acgt" in
  Alcotest.check_raises "window out of range"
    (Invalid_argument "Packed_text.hamming: window out of range")
    (fun () -> ignore (Packed_text.hamming ~limit:max_int pt pp ~pos:7));
  Alcotest.check_raises "negative pos"
    (Invalid_argument "Packed_text.hamming: window out of range")
    (fun () -> ignore (Packed_text.hamming ~limit:max_int pt pp ~pos:(-1)));
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Packed_text.Pattern: empty pattern")
    (fun () -> ignore (Pattern.make ""));
  Alcotest.check_raises "invalid base"
    (Invalid_argument "Packed_text.Pattern.make: 'N' is not a lowercase base")
    (fun () -> ignore (Pattern.make "acgN"));
  Alcotest.(check bool) "k < 0" false (Packed_text.hamming_le pt pp ~pos:0 ~k:(-1));
  Alcotest.(check bool) "k >= m" true (Packed_text.hamming_le pt pp ~pos:0 ~k:4);
  Alcotest.check_raises "k >= m still bounds-checks"
    (Invalid_argument "Packed_text.hamming: window out of range")
    (fun () -> ignore (Packed_text.hamming_le pt pp ~pos:7 ~k:99))

let test_telemetry () =
  let module T = Packed_text.Telemetry in
  let text = String.concat "" (List.init 10 (fun _ -> "acgtacgtacgtacgt")) in
  let pt = Packed_text.of_string text in
  let all_t = Pattern.make (String.make 100 't') in
  let self = Pattern.make (String.sub text 0 100) in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled false)
    (fun () ->
      let before = T.snapshot () in
      ignore (Packed_text.hamming ~limit:max_int pt self ~pos:0);
      let mid = T.diff ~since:before (T.snapshot ()) in
      Alcotest.(check int) "calls" 1 mid.T.calls;
      (* 100 lanes at phase 0 → 25 bytes → 4 words *)
      Alcotest.(check int) "words" 4 mid.T.words;
      Alcotest.(check int) "no early exit on a match" 0 mid.T.early_exits;
      let before = T.snapshot () in
      ignore (Packed_text.hamming ~limit:0 pt all_t ~pos:0);
      let mid = T.diff ~since:before (T.snapshot ()) in
      Alcotest.(check int) "early exit counted" 1 mid.T.early_exits;
      Alcotest.(check int) "early exit after one word" 1 mid.T.words);
  (* Disabled: counters stop moving. *)
  let before = T.snapshot () in
  ignore (Packed_text.hamming ~limit:max_int pt self ~pos:0);
  let after = T.diff ~since:before (T.snapshot ()) in
  Alcotest.(check int) "disarmed" 0 after.T.calls

let () =
  Alcotest.run "verify"
    [
      ( "tables",
        [ Alcotest.test_case "pinned count tables" `Quick test_count_tables ] );
      ( "kernel",
        [
          Alcotest.test_case "word boundaries × phases" `Quick
            test_word_boundaries;
          Alcotest.test_case "mmap-adopted text" `Quick test_mmap_adopted;
          Alcotest.test_case "edge cases" `Quick test_edges;
          Alcotest.test_case "telemetry" `Quick test_telemetry;
          qcheck_equivalence;
          qcheck_limit;
          qcheck_of_packed;
          qcheck_phases;
          qcheck_rev;
        ] );
      ( "bench",
        [
          (* Same cross-checks as a `kmm bench verify` run, replayed
             headlessly on a small planted workload: a kernel bug that
             slipped past the unit suite fails here before anyone
             trusts a speedup number. *)
          Alcotest.test_case "bench parity smoke (packed vs byte-scan)" `Quick
            (fun () -> Verify_bench.parity_smoke ());
        ] );
    ]
