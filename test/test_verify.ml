(* Word-parallel verification kernel: Packed_text.hamming (exact and
   with a limit) against the scalar Hamming reference, the shared SWAR count tables,
   the byte-wise Packed_text.rev against its per-lane definition, and
   the mapper's hit re-check refuting a forged hit. *)

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
            let le = Packed_text.hamming ~limit:k pt pp ~pos <= k in
            if le <> (expect <= k) then
              Alcotest.failf "hamming ~limit m=%d pos=%d k=%d: expected %b" m pos
                k (expect <= k))
          [ 0; 1; 4; expect - 1; expect; expect + 1 ]
      done)
    boundary_lengths

(* ------------------------------------------------------------------ *)
(* qcheck equivalence                                                  *)

(* Unrelated patterns, copies of some text window, and the window at
   [pos] itself with up to 16 bases flipped.  The last is the full-scan
   regime (distance <= k, so no early exit), with patterns up to 520
   bases long so one spans many words; [k] is drawn both across the
   whole range and near the planted distances. *)
let gen_case =
  let flip c = if c = 'a' then 'c' else 'a' in
  QCheck2.Gen.(
    Test_util.dna_gen ~lo:1 ~hi:600 ()
    >>= fun text ->
    int_range 1 (min 520 (String.length text))
    >>= fun m ->
    int_range 0 (String.length text - m)
    >>= fun pos ->
    oneof
      [
        Test_util.dna_gen ~lo:m ~hi:m ();
        (int_range 0 (String.length text - m) >|= fun p -> String.sub text p m);
        ( list_size (int_range 0 16) (int_bound (m - 1)) >|= fun flips ->
          let b = Bytes.of_string (String.sub text pos m) in
          List.iter (fun j -> Bytes.set b j (flip (Bytes.get b j))) flips;
          Bytes.to_string b );
      ]
    >>= fun pattern ->
    oneof [ int_range (-1) (m + 1); int_range (-1) 17 ] >|= fun k ->
    (text, pattern, pos, k))

(* [hamming ~limit:k] is what every verifier calls: its verdict must
   match the true distance's, and an accepted distance must be exact. *)
let qcheck_equivalence =
  Test_util.qtest ~count:2000 "hamming ~limit:k <= k ≡ distance_at <= k" gen_case
    (fun (text, pattern, pos, k) ->
      let pt = Packed_text.of_string text in
      let pp = Pattern.make pattern in
      let d = Hamming.distance_at ~pattern ~text pos in
      let capped = Packed_text.hamming ~limit:k pt pp ~pos in
      Packed_text.hamming ~limit:max_int pt pp ~pos = d
      && (capped <= k) = (d <= k)
      && (d > k || capped = d))

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

(* The packed bytes of a text, padding lanes included. *)
let payload pt =
  let data = Packed_text.storage pt in
  String.init (Fmindex.Storage.length data) (fun i -> Char.chr (Bigarray.Array1.get data i))

(* The table-driven rev equals lane [n - 1 - i] at lane [i], byte for
   byte (padding lanes included), at every n mod 4 phase and n = 0. *)
let test_rev_per_lane () =
  let st = Random.State.make [| 13 |] in
  for n = 0 to 67 do
    let t = Packed_text.init n (fun _ -> Random.State.int st 4) in
    let want = Packed_text.init n (fun i -> Packed_text.get t (n - 1 - i)) in
    let got = Packed_text.rev t in
    Alcotest.(check int) (Printf.sprintf "n=%d length" n) n (Packed_text.length got);
    Alcotest.(check string)
      (Printf.sprintf "n=%d bytes" n)
      (payload want) (payload got)
  done

let qcheck_make_rev =
  Test_util.qtest ~count:300 "make_rev = make of the reversal"
    (Test_util.dna_gen ~lo:1 ~hi:90 ())
    (fun s ->
      let got = Pattern.make_rev s and want = Pattern.make (reverse_string s) in
      List.for_all (fun p -> Pattern.phase got p = Pattern.phase want p) [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* The mapper's hit re-check                                           *)

(* A test double: the naive scan, plus one forged hit for each read of
   [forged]: at the mirror image of its first true position
   ([n - m - pos], which only a re-check reading the wrong coordinates
   would accept), or one past the last window. *)
type Core.Kmismatch.engine += Forger

let forged : (string * [ `Mirror | `Past_end ]) list ref = ref []

let () =
  let module R = Core.Kmismatch.Engine_registry in
  match R.find_name "naive" with
  | None -> failwith "naive not registered"
  | Some naive ->
      R.register
        {
          naive with
          R.engine = Forger;
          name = "forger";
          doc = "test double: the naive scan plus one mirrored forged hit";
          run =
            (fun idx a ->
              let hits = naive.R.run idx a in
              let n = Core.Kmismatch.length idx and m = String.length a.R.pattern in
              match List.assoc_opt a.R.pattern !forged with
              | None -> hits
              | Some `Mirror -> List.sort compare ((n - m - fst (List.hd hits), 0) :: hits)
              | Some `Past_end -> hits @ [ (n - m + 1, 0) ]);
        }

let test_recheck_refutes_forged_hit () =
  let st = Random.State.make [| 31 |] in
  let text = Test_util.random_dna st 3000 in
  let idx = Core.Kmismatch.build_index text in
  let reads = List.init 5 (fun i -> (10 + i, String.sub text (100 + (400 * i)) 40)) in
  forged := [ (List.assoc 12 reads, `Mirror); (List.assoc 14 reads, `Past_end) ];
  let map engine =
    Core.Mapper.run
      { Core.Mapper.default with engine; both_strands = false }
      idx ~reads ~k:1
  in
  let want, _ = map Core.Kmismatch.Naive in
  let got, summary = map Forger in
  (match summary.Core.Mapper.skipped with
  | [ (12, Kmm_error.Internal a); (14, Kmm_error.Internal b) ] ->
      List.iter
        (fun msg ->
          Alcotest.(check bool) ("names the re-check: " ^ msg) true
            (String.starts_with ~prefix:"hit re-check" msg))
        [ a; b ]
  | _ -> Alcotest.fail "expected typed Internal skips for reads 12 and 14 only");
  (* Every other read keeps its hits, each re-checked in place. *)
  Alcotest.(check (list (pair int int)))
    "other reads' hits"
    (List.filter_map
       (fun h ->
         if List.mem h.Core.Mapper.read_id [ 12; 14 ] then None else Some (h.read_id, h.pos))
       want)
    (List.map (fun h -> (h.Core.Mapper.read_id, h.Core.Mapper.pos)) got);
  Alcotest.(check int) "three reads mapped" 3 summary.mapped

(* ------------------------------------------------------------------ *)
(* mmap-adopted texts                                                  *)

(* The kernel must never read past the mapped section: the final word
   of a window at the end of the text covers fewer than 7 payload
   bytes.  Map a file of exactly ceil(n/4) bytes and verify every
   window of several lengths, phases included. *)
let test_mmap_adopted () =
  let st = Random.State.make [| 0x5eed |] in
  let text = Test_util.random_dna st 173 in
  let payload = payload (Packed_text.of_string text) in
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
  let within ~k ~pos = Packed_text.hamming ~limit:k pt pp ~pos <= k in
  Alcotest.(check bool) "k < 0" false (within ~k:(-1) ~pos:0);
  Alcotest.(check bool) "k >= m" true (within ~k:4 ~pos:0);
  Alcotest.check_raises "k >= m still bounds-checks"
    (Invalid_argument "Packed_text.hamming: window out of range")
    (fun () -> ignore (within ~k:99 ~pos:7))

let test_telemetry () =
  let text = String.concat "" (List.init 10 (fun _ -> "acgtacgtacgtacgt")) in
  let pt = Packed_text.of_string text in
  let all_t = Pattern.make (String.make 100 't') in
  let self = Pattern.make (String.sub text 0 100) in
  let (), mid = Test_util.tapped (fun () -> ignore (Packed_text.hamming ~limit:max_int pt self ~pos:0)) in
  Alcotest.(check int) "calls" 1 (Obs.counter_value mid "verify.calls");
  (* 100 lanes at phase 0 → 25 bytes → 4 words *)
  Alcotest.(check int) "words" 4 (Obs.counter_value mid "verify.words");
  Alcotest.(check int) "no early exit on a match" 0 (Obs.counter_value mid "verify.early_exits");
  let (), mid = Test_util.tapped (fun () -> ignore (Packed_text.hamming ~limit:0 pt all_t ~pos:0)) in
  Alcotest.(check int) "early exit counted" 1 (Obs.counter_value mid "verify.early_exits");
  Alcotest.(check int) "early exit after one word" 1 (Obs.counter_value mid "verify.words");
  (* Disarmed: an installed sink stays untouched. *)
  let after = Obs.create () in
  Obs.with_ambient after (fun () -> ignore (Packed_text.hamming ~limit:max_int pt self ~pos:0));
  Alcotest.(check int) "disarmed" 0 (Obs.counter_value after "verify.calls")

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
          Alcotest.test_case "rev = per-lane definition" `Quick test_rev_per_lane;
          qcheck_make_rev;
        ] );
      ( "recheck",
        [
          Alcotest.test_case "forged hit skips its read" `Quick
            test_recheck_refutes_forged_hit;
        ] );
    ]
