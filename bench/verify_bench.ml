(* Verification-kernel benchmark: the word-parallel SWAR Hamming kernel
   ([Packed_text.hamming] over 28-lane words) against the byte-scan
   reference ([Hamming.distance_at]) that every filter-and-verify hot
   path used before this kernel existed.

   A verification call is "distance of pattern vs the window at [pos],
   capped at [k]" — what Bidir runs per candidate of a narrowed interval,
   Kangaroo per window on its packed fallback, Amir per filtered position
   and the mapper per reported hit.  Its cost splits into two regimes with very
   different profiles, so they are planted and timed separately instead
   of being averaged into one flattering number:

     full-scan    the window really is within distance k (a true hit):
                  no early exit is possible and both sides must touch
                  all m bases.  This is where the word-parallel claim
                  lives — the acceptance regime for the speedup.
     early-exit   a random window vs an unrelated pattern (~0.75·m
                  expected mismatches): both sides bail after roughly
                  k+1 mismatches, so calls are short and dominated by
                  per-call overhead.  Reported separately and honestly —
                  speedups here say little about the kernel.

   Full-scan windows are planted: each (m, k) config gets [nslots]
   disjoint slots spread across the whole text (one per stride block, so
   a 128 Mbp run really pays 128 Mbp cache behavior), the pattern is
   copied in and exactly min(k, m) bases are then flipped — the planted
   distance is known, <= k, and forces a complete scan on both sides.

   Every row cross-checks the two implementations call by call on the
   accept/reject verdict and the accepted distance (the early-exit
   contract allows different over-limit values, so only accepted
   distances must be byte-identical), plus [hamming_le] against the
   byte-scan verdict.  Any disagreement fails the run.

   One JSON record per run is appended to --out (default
   BENCH_verify.json). *)

module Packed_text = Fmindex.Packed_text
module Pattern = Packed_text.Pattern
module Hamming = Stringmatch.Hamming

let default_sizes = [ 1_000_000; 32_000_000; 128_000_000 ]
let pattern_lengths = [ 16; 64; 128; 512 ]
let budgets = [ 0; 1; 4; 16 ]
let default_nslots = 128 (* planted windows per (m, k) config *)
let nrandom = 100_000 (* random windows per early-exit row *)

(* Best-of-N wall time after one untimed warmup pass, as in
   rank_locate: deterministic kernels, so the minimum is the low-noise
   estimator, and both sides go through the same harness. *)
let timing_passes = 5

let time_best f =
  f ();
  let best = ref infinity in
  for _ = 1 to timing_passes do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Workload construction                                               *)

type config = {
  m : int;
  k : int;
  pattern : string;
  planted : int array;  (* slot positions; distance there = min k m *)
}

let bases = "acgt"

let random_pattern st m =
  String.init m (fun _ -> bases.[Random.State.int st 4])

(* Flip [d] distinct bases of the freshly blitted window so its distance
   to [pattern] is exactly [d]. *)
let plant_mismatches st text ~pattern ~pos ~d =
  let m = String.length pattern in
  let chosen = Array.make (max d 1) (-1) in
  let filled = ref 0 in
  while !filled < d do
    let j = Random.State.int st m in
    if not (Array.exists (fun x -> x = j) chosen) then begin
      chosen.(!filled) <- j;
      incr filled;
      let keep = pattern.[j] in
      let rec flip () =
        let b = bases.[Random.State.int st 4] in
        if b = keep then flip () else b
      in
      Bytes.set text (pos + j) (flip ())
    end
  done

(* Random genome with every (m, k) config's slots planted into disjoint
   regions: slot [j] of config [i] lives at [j * stride + offset_i],
   where the offsets lay the configs out back to back inside each stride
   block.  Returns the final text (string and packed) and the configs. *)
let setup ~st ~nslots size =
  let text = Bytes.of_string (Dna.Sequence.to_string (Dna.Sequence.random ~state:st size)) in
  let pairs =
    List.concat_map (fun m -> List.map (fun k -> (m, k)) budgets) pattern_lengths
  in
  let block = List.fold_left (fun acc (m, _) -> acc + m) 0 pairs in
  let nslots = min nslots (size / block) in
  if nslots < 1 then
    invalid_arg "verify bench: text too small to plant one window per config";
  let stride = size / nslots in
  let pats = List.map (fun m -> (m, random_pattern st m)) pattern_lengths in
  let configs, _ =
    List.fold_left
      (fun (acc, off) (m, k) ->
        let pattern = List.assoc m pats in
        let planted = Array.init nslots (fun j -> (j * stride) + off) in
        Array.iter
          (fun pos ->
            Bytes.blit_string pattern 0 text pos m;
            plant_mismatches st text ~pattern ~pos ~d:(min k m))
          planted;
        ({ m; k; pattern; planted } :: acc, off + m))
      ([], 0) pairs
  in
  let text = Bytes.unsafe_to_string text in
  (text, Packed_text.of_string text, nslots, List.rev configs)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

type row = {
  size : int;
  m : int;
  k : int;
  regime : string;  (* "full-scan" | "early-exit" *)
  ops : int;
  packed_s : float;
  byte_s : float;
  agree : bool;
}

let speedup r = r.byte_s /. r.packed_s
let ns_per_op s ops = s *. 1e9 /. float_of_int ops

(* Cross-check one call under the shared early-exit contract: the
   accept/reject verdict must match, accepted distances must be
   byte-identical, and [hamming_le] must agree with the byte-scan. *)
let calls_agree pt pp ~pattern ~text ~k pos =
  let dp = Packed_text.hamming ~limit:k pt pp ~pos in
  let db = Hamming.distance_at ~limit:k ~pattern ~text pos in
  dp <= k = (db <= k)
  && (db > k || dp = db)
  && Packed_text.hamming_le pt pp ~pos ~k = (db <= k)

let measure ~size ~regime pt pp ~pattern ~text ~k ~reps positions =
  let npos = Array.length positions in
  let agree = ref true in
  Array.iter
    (fun pos -> if not (calls_agree pt pp ~pattern ~text ~k pos) then agree := false)
    positions;
  (* Accepted calls contribute their distance, rejections a fixed k + 1:
     a deterministic accumulator both sides must reproduce exactly. *)
  let acc_p = ref 0 in
  let packed_s =
    time_best (fun () ->
        acc_p := 0;
        for _ = 1 to reps do
          for i = 0 to npos - 1 do
            let pos = Array.unsafe_get positions i in
            let d = Packed_text.hamming ~limit:k pt pp ~pos in
            acc_p := !acc_p + (if d <= k then d else k + 1)
          done
        done)
  in
  let acc_b = ref 0 in
  let byte_s =
    time_best (fun () ->
        acc_b := 0;
        for _ = 1 to reps do
          for i = 0 to npos - 1 do
            let pos = Array.unsafe_get positions i in
            let d = Hamming.distance_at ~limit:k ~pattern ~text pos in
            acc_b := !acc_b + (if d <= k then d else k + 1)
          done
        done)
  in
  {
    size;
    m = String.length pattern;
    k;
    regime;
    ops = npos * reps;
    packed_s;
    byte_s;
    agree = !agree && !acc_p = !acc_b;
  }

let bench_size ~seed size =
  let st = Random.State.make [| seed; size |] in
  let (text, pt, nslots, configs), setup_s =
    Bench_util.time (fun () -> setup ~st ~nslots:default_nslots size)
  in
  Bench_util.note "%s bp genome planted and packed in %s (%d slots per config)"
    (Bench_util.fmt_count size) (Bench_util.fmt_time setup_s) nslots;
  List.concat_map
    (fun c ->
      let pp = Pattern.make c.pattern in
      (* Keep byte-scan work per pass roughly constant across pattern
         lengths by looping the planted slots. *)
      let reps = max 1 (8_000_000 / c.m / nslots) in
      let full =
        measure ~size ~regime:"full-scan" pt pp ~pattern:c.pattern ~text ~k:c.k
          ~reps c.planted
      in
      let random_pos =
        Array.init nrandom (fun _ -> Random.State.int st (size - c.m + 1))
      in
      let early =
        measure ~size ~regime:"early-exit" pt pp ~pattern:c.pattern ~text ~k:c.k
          ~reps:1 random_pos
      in
      [ full; early ])
    configs

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let run ?(obs = Obs.noop) ?(out = "BENCH_verify.json") ?size ?(seed = 42) () =
  let sizes = match size with Some s -> [ s ] | None -> default_sizes in
  Bench_util.section "verify: word-parallel SWAR kernel vs byte-scan Hamming";
  Bench_util.note
    "full-scan rows verify planted true hits (distance <= k, no early exit \
     possible); early-exit rows verify random windows (~0.75m mismatches, \
     dominated by per-call overhead).  Every call cross-checked against the \
     byte-scan reference";
  let rows =
    Obs.span obs "bench.verify" (fun () ->
        List.concat_map (fun n -> bench_size ~seed n) sizes)
  in
  Bench_util.table
    ~header:
      [ "size"; "m"; "k"; "regime"; "ops"; "packed ns/op"; "byte ns/op"; "speedup"; "agree" ]
    (List.map
       (fun r ->
         [
           Bench_util.fmt_count r.size;
           string_of_int r.m;
           string_of_int r.k;
           r.regime;
           Bench_util.fmt_count r.ops;
           Printf.sprintf "%.1f" (ns_per_op r.packed_s r.ops);
           Printf.sprintf "%.1f" (ns_per_op r.byte_s r.ops);
           Printf.sprintf "%.2fx" (speedup r);
           (if r.agree then "yes" else "NO(BUG)");
         ])
       rows);
  List.iter
    (fun r ->
      let label =
        Printf.sprintf "bench.verify.%d.m%d.k%d.%s" r.size r.m r.k r.regime
      in
      Obs.record obs (label ^ ".packed_ns_per_op")
        (int_of_float (ns_per_op r.packed_s r.ops));
      Obs.record obs (label ^ ".byte_ns_per_op")
        (int_of_float (ns_per_op r.byte_s r.ops)))
    rows;
  List.iter
    (fun r ->
      if not r.agree then
        failwith
          (Printf.sprintf
             "verify bench: packed and byte-scan diverge at size %d m %d k %d (%s)"
             r.size r.m r.k r.regime))
    rows;
  let json =
    Printf.sprintf
      "{\"bench\":\"verify\",\"meta\":%s,\"seed\":%d,\"word_lanes\":%d,\
       \"slots_per_config\":%d,\"results\":[%s]}"
      (Bench_meta.to_json ()) seed Packed_text.word_lanes default_nslots
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"size\":%d,\"m\":%d,\"k\":%d,\"regime\":\"%s\",\"ops\":%d,\
                 \"packed_ns_per_op\":%.1f,\"byte_ns_per_op\":%.1f,\
                 \"speedup\":%.3f,\"agree\":%b}"
                r.size r.m r.k r.regime r.ops (ns_per_op r.packed_s r.ops)
                (ns_per_op r.byte_s r.ops) (speedup r) r.agree)
            rows))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  Bench_util.note "record appended to %s" out

(* ------------------------------------------------------------------ *)
(* Headless parity smoke for [dune runtest] and [kmm bench verify
   --smoke]: build the planted workload on a small genome and replay
   every cross-check — no timing, no output, no JSON.  Also asserts the
   harness itself: a planted slot's distance must be exactly min(k, m),
   or the "full-scan regime" label would be a lie. *)

let parity_smoke ?(size = 60_000) ?(seed = 7) () =
  let st = Random.State.make [| seed; size |] in
  let text, pt, _, configs = setup ~st ~nslots:8 size in
  List.iter
    (fun c ->
      let pp = Pattern.make c.pattern in
      let check pos =
        if not (calls_agree pt pp ~pattern:c.pattern ~text ~k:c.k pos) then
          failwith
            (Printf.sprintf
               "verify parity: packed and byte-scan diverge at pos %d (m %d, k %d)"
               pos c.m c.k)
      in
      Array.iter
        (fun pos ->
          check pos;
          let d = Hamming.distance_at ~pattern:c.pattern ~text pos in
          if d <> min c.k c.m then
            failwith
              (Printf.sprintf
                 "verify parity: planted slot at %d has distance %d, wanted %d"
                 pos d (min c.k c.m)))
        c.planted;
      for _ = 1 to 1_000 do
        check (Random.State.int st (size - c.m + 1))
      done)
    configs
