(* rank-locate benchmark: the packed-rank FM-index core against the
   seed's byte-scan implementation (kept verbatim as [Occ.Reference]).

   Four workloads over one random genome:

     fm.rank        single rank queries at random (code, index) points
     fm.extend_all  interval extensions (the inner loop of every engine)
     fm.count       full backward searches of sampled patterns
     fm.locate      row -> text-position resolution via sampled SA

   The seed model is reconstructed faithfully: byte-per-position BWT with
   checkpointed scans at its default rate 16, hashtable SA samples, and
   the same backward-search logic.  The packed side runs at its default
   rate 32 — coarser checkpoints and still faster, which is the point.
   Every workload cross-checks the two implementations' answers on the
   measured queries, so a speedup can never hide a wrong result.

   Besides the table, one JSON object is appended to --out (default
   BENCH_fmindex.json) per run. *)

module Fm = Fmindex.Fm_index
module Occ = Fmindex.Occ

let sigma = Dna.Alphabet.sigma

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* Best-of-N wall time after one untimed warmup pass.  The kernels are
   deterministic, so scheduler preemption and frequency ramps can only
   inflate a pass; the minimum is the standard low-noise estimator.
   Both sides of every comparison go through the same harness. *)
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

let note fmt = Printf.printf ("  # " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* The seed's FM-index, rebuilt on [Occ.Reference]                      *)

module Seed_model = struct
  type t = {
    occ : Occ.Reference.t;
    c_array : int array;
    samples : (int, int) Hashtbl.t;  (* sampled row -> text position *)
    codes : Bytes.t;  (* BWT character codes, byte per row *)
    len : int;  (* n + 1 *)
  }

  let build ?(occ_rate = 16) ?(sa_rate = 16) text =
    let l = Fmindex.Bwt.of_text text in
    let occ = Occ.Reference.make ~rate:occ_rate l in
    let counts = Array.make sigma 0 in
    String.iter (fun ch -> counts.(Dna.Alphabet.code ch) <- counts.(Dna.Alphabet.code ch) + 1) l;
    let c_array = Array.make sigma 0 in
    let sum = ref 0 in
    for c = 0 to sigma - 1 do
      c_array.(c) <- !sum;
      sum := !sum + counts.(c)
    done;
    let len = String.length l in
    let codes = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set codes i (Char.unsafe_chr (Dna.Alphabet.code l.[i]))
    done;
    (* Collect SA samples with one LF walk (positions n, n-1, ..., 0). *)
    let n = String.length text in
    let samples = Hashtbl.create 1024 in
    let row = ref 0 in
    for pos = n downto 0 do
      if pos mod sa_rate = 0 || pos = n then Hashtbl.replace samples !row pos;
      if pos > 0 then begin
        let c = Char.code (Bytes.get codes !row) in
        row := c_array.(c) + Occ.Reference.rank occ c !row
      end
    done;
    { occ; c_array; samples; codes; len }

  let rank t c i = Occ.Reference.rank t.occ c i

  let extend t c (lo, hi) =
    let lo' = t.c_array.(c) + Occ.Reference.rank t.occ c lo in
    let hi' = t.c_array.(c) + Occ.Reference.rank t.occ c hi in
    if lo' < hi' then Some (lo', hi') else None

  let extend_all t (lo, hi) ~los ~his =
    Occ.Reference.rank_all t.occ lo los;
    Occ.Reference.rank_all t.occ hi his;
    for c = 0 to sigma - 1 do
      los.(c) <- t.c_array.(c) + los.(c);
      his.(c) <- t.c_array.(c) + his.(c)
    done

  let count t pat =
    let m = String.length pat in
    let rec go i iv =
      if i < 0 then (let lo, hi = iv in hi - lo)
      else
        match extend t (Dna.Alphabet.code pat.[i]) iv with
        | None -> 0
        | Some iv' -> go (i - 1) iv'
    in
    go (m - 1) (0, t.len)

  let position_of_row t row =
    let rec walk row steps =
      match Hashtbl.find_opt t.samples row with
      | Some pos -> pos + steps
      | None ->
          let c = Char.code (Bytes.get t.codes row) in
          walk (t.c_array.(c) + Occ.Reference.rank t.occ c row) (steps + 1)
    in
    walk row 0
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type measurement = {
  label : string;
  ops : int;
  packed_s : float;
  seed_s : float;
  agree : bool;
}

let speedup m = m.seed_s /. m.packed_s
let ns_per_op s ops = s *. 1e9 /. float_of_int ops

let run ?(obs = Obs.noop) ?(out = "BENCH_fmindex.json") ?(size = 1_000_000)
    ?(seed = 42) () =
  Printf.printf "\n==== rank-locate: packed Occ kernel vs seed byte-scan ====\n%!";
  let st = Random.State.make [| seed |] in
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  note "text: %d bp random genome (seed %d)" size seed;
  let fm, build_dt =
    Obs.span obs "bench.build" (fun () -> time (fun () -> Fm.build text))
  in
  note "packed build: %.2fs (occ rate 32, sa rate 16)" build_dt;
  let sm, seed_build_dt =
    Obs.span obs "bench.seed_build" (fun () ->
        time (fun () -> Seed_model.build text))
  in
  note "seed-model build: %.2fs (occ rate 16, sa rate 16)" seed_build_dt;
  let n = size in

  (* Shared query sets, generated once so both sides see identical work. *)
  let nrank = 2_000_000 in
  let rank_q =
    Array.init nrank (fun _ -> (1 + Random.State.int st 4, Random.State.int st (n + 2)))
  in
  let sample_pattern len =
    let start = Random.State.int st (n - len) in
    String.sub text start len
  in
  (* Intervals exactly as the k-mismatch engines present them: a
     mismatching-tree expansion of sampled 20-mers (the same query shape
     as fm.count) with budget k = 2, the paper's canonical configuration,
     recording every interval on which [extend_all] is invoked during the
     traversal.  The stream is dominated by deep, narrow intervals — the
     tree fans out by up to 4 per level, so almost all calls happen near
     the leaves — with the handful of whole-range roots engines touch
     once per search. *)
  let nivs = 200_000 in
  let kbudget = 2 in
  let ivs = Array.make nivs (0, n + 1) in
  (let filled = ref 0 in
   let los0 = Array.make sigma 0 and his0 = Array.make sigma 0 in
   while !filled < nivs do
     let pat = sample_pattern 20 in
     let m = String.length pat in
     let rec expand i iv mm =
       if !filled < nivs && i >= 0 then begin
         ivs.(!filled) <- iv;
         incr filled;
         let lo, hi = iv in
         Fm.extend_all fm ~lo ~hi ~los:los0 ~his:his0;
         let want = Dna.Alphabet.code pat.[i] in
         let children = ref [] in
         for c = sigma - 1 downto 1 do
           let lo = los0.(c) and hi = his0.(c) in
           if lo < hi then begin
             let mm' = if c = want then mm else mm + 1 in
             if mm' <= kbudget then children := (lo, hi, mm') :: !children
           end
         done;
         List.iter (fun (lo, hi, mm') -> expand (i - 1) (lo, hi) mm') !children
       end
     in
     expand (m - 1) (Fm.whole fm) 0
   done);
  let npats = 20_000 in
  let pats = Array.init npats (fun _ -> sample_pattern 20) in
  let nrows = 200_000 in
  let rows = Array.init nrows (fun _ -> Random.State.int st (n + 1)) in

  let packed_occ_bytes = List.assoc "packed bwt + rank blocks" (Fm.space_report fm) in

  (* --- fm.rank ----------------------------------------------------- *)
  let occ = Occ.make ~rate:32 (Fm.bwt fm) in
  (* (independent Occ over the same BWT: measures the kernel alone) *)
  let acc_p = ref 0 in
  let p_dt =
    time_best (fun () ->
        for q = 0 to nrank - 1 do
          let c, i = Array.unsafe_get rank_q q in
          acc_p := !acc_p + Occ.rank occ c i
        done)
  in
  let acc_s = ref 0 in
  let s_dt =
    time_best (fun () ->
        for q = 0 to nrank - 1 do
          let c, i = Array.unsafe_get rank_q q in
          acc_s := !acc_s + Seed_model.rank sm c i
        done)
  in
  let m_rank =
    { label = "fm.rank"; ops = nrank; packed_s = p_dt; seed_s = s_dt; agree = !acc_p = !acc_s }
  in

  (* --- fm.extend_all ------------------------------------------------ *)
  let los = Array.make sigma 0 and his = Array.make sigma 0 in
  let acc_p = ref 0 in
  let p_dt =
    time_best (fun () ->
        for q = 0 to nivs - 1 do
          let lo, hi = Array.unsafe_get ivs q in
          Fm.extend_all fm ~lo ~hi ~los ~his;
          acc_p := !acc_p + los.(1) + his.(2) + los.(3) + his.(4)
        done)
  in
  let acc_s = ref 0 in
  let s_dt =
    time_best (fun () ->
        for q = 0 to nivs - 1 do
          Seed_model.extend_all sm (Array.unsafe_get ivs q) ~los ~his;
          acc_s := !acc_s + los.(1) + his.(2) + los.(3) + his.(4)
        done)
  in
  let m_extend =
    { label = "fm.extend_all"; ops = nivs; packed_s = p_dt; seed_s = s_dt; agree = !acc_p = !acc_s }
  in

  (* --- fm.count ----------------------------------------------------- *)
  let acc_p = ref 0 in
  let p_dt =
    time_best (fun () ->
        for q = 0 to npats - 1 do
          acc_p := !acc_p + Fm.count fm (Array.unsafe_get pats q)
        done)
  in
  let acc_s = ref 0 in
  let s_dt =
    time_best (fun () ->
        for q = 0 to npats - 1 do
          acc_s := !acc_s + Seed_model.count sm (Array.unsafe_get pats q)
        done)
  in
  let m_count =
    { label = "fm.count"; ops = npats; packed_s = p_dt; seed_s = s_dt; agree = !acc_p = !acc_s }
  in

  (* --- fm.locate ---------------------------------------------------- *)
  let one = Array.make 1 0 in
  let acc_p = ref 0 in
  let p_dt =
    time_best (fun () ->
        for q = 0 to nrows - 1 do
          let row = Array.unsafe_get rows q in
          Fm.locate_into fm (row, row + 1) one;
          acc_p := !acc_p + one.(0)
        done)
  in
  let acc_s = ref 0 in
  let s_dt =
    time_best (fun () ->
        for q = 0 to nrows - 1 do
          acc_s := !acc_s + Seed_model.position_of_row sm (Array.unsafe_get rows q)
        done)
  in
  let m_locate =
    { label = "fm.locate"; ops = nrows; packed_s = p_dt; seed_s = s_dt; agree = !acc_p = !acc_s }
  in

  let measurements = [ m_rank; m_extend; m_count; m_locate ] in
  (* Surface the per-workload results through the sink too, so
     [kmm bench --metrics-out] expositions carry the same numbers as the
     JSON record. *)
  List.iter
    (fun m ->
      Obs.record obs
        ("bench." ^ m.label ^ ".packed_ns_per_op")
        (int_of_float (ns_per_op m.packed_s m.ops));
      Obs.record obs
        ("bench." ^ m.label ^ ".seed_ns_per_op")
        (int_of_float (ns_per_op m.seed_s m.ops));
      Obs.incr ~by:m.ops obs ("bench." ^ m.label ^ ".ops"))
    measurements;
  Printf.printf "  %-14s %12s %12s %9s %7s\n" "workload" "packed ns/op" "seed ns/op" "speedup"
    "agree";
  Printf.printf "  %s\n" (String.make 58 '-');
  List.iter
    (fun m ->
      Printf.printf "  %-14s %12.1f %12.1f %8.2fx %7s\n" m.label
        (ns_per_op m.packed_s m.ops) (ns_per_op m.seed_s m.ops) (speedup m)
        (if m.agree then "yes" else "NO(BUG)"))
    measurements;
  List.iter
    (fun m -> if not m.agree then failwith ("rank_locate: packed and seed diverge on " ^ m.label))
    measurements;

  (* --- space + persistence ------------------------------------------ *)
  let seed_rank_bytes = Occ.Reference.space_bytes sm.Seed_model.occ in
  let bits_per_base = 8.0 *. float_of_int packed_occ_bytes /. float_of_int n in
  note "rank structure: packed %d bytes (%.2f bits/base incl. checkpoints), seed %d bytes (%.1fx)"
    packed_occ_bytes bits_per_base seed_rank_bytes
    (float_of_int seed_rank_bytes /. float_of_int packed_occ_bytes);
  let tmp = Filename.temp_file "kmm-bench" ".fmi" in
  let load_dt =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
      (fun () ->
        Fm.save fm tmp;
        let fm', dt = time (fun () -> Fm.load tmp) in
        assert (Fm.length fm' = n);
        dt)
  in
  note "index load: %.3fs vs %.2fs rebuild (%.0fx; adopting buffers, no reconstruction)"
    load_dt build_dt (build_dt /. load_dt);

  (* --- JSON record --------------------------------------------------- *)
  let json =
    Printf.sprintf
      "{\"bench\":\"rank_locate\",\"meta\":%s,\"size\":%d,\"seed\":%d,\
       \"occ_rate_packed\":32,\
       \"occ_rate_seed\":16,\"results\":[%s],\"space\":{\"packed_rank_bytes\":%d,\
       \"packed_bits_per_base\":%.3f,\"seed_rank_bytes\":%d},\"persistence\":\
       {\"build_s\":%.4f,\"load_s\":%.4f}}"
      (Bench_meta.to_json ()) size seed
      (String.concat ","
         (List.map
            (fun m ->
              Printf.sprintf
                "{\"workload\":\"%s\",\"ops\":%d,\"packed_ns_per_op\":%.1f,\
                 \"seed_ns_per_op\":%.1f,\"speedup\":%.3f,\"agree\":%b}"
                m.label m.ops (ns_per_op m.packed_s m.ops) (ns_per_op m.seed_s m.ops)
                (speedup m) m.agree)
            measurements))
      packed_occ_bytes bits_per_base seed_rank_bytes build_dt load_dt
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  note "record appended to %s" out

(* ------------------------------------------------------------------ *)
(* Headless parity smoke for [dune runtest]: build both models on a
   small genome and replay every workload's cross-check — no timing, no
   output, no JSON.  Raises [Failure] on the first divergence, which is
   how a kernel bug that slipped past the unit suite would surface in
   CI before anyone trusts a speedup number. *)

let parity_smoke ?(size = 20_000) ?(seed = 7) () =
  let st = Random.State.make [| seed |] in
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  let fm = Fm.build text in
  let sm = Seed_model.build text in
  let n = size in
  let occ = Occ.make ~rate:32 (Fm.bwt fm) in
  for _ = 1 to 2_000 do
    let c = 1 + Random.State.int st 4 and i = Random.State.int st (n + 2) in
    if Occ.rank occ c i <> Seed_model.rank sm c i then
      failwith "rank_locate parity: fm.rank diverges"
  done;
  let los_p = Array.make sigma 0 and his_p = Array.make sigma 0 in
  let los_s = Array.make sigma 0 and his_s = Array.make sigma 0 in
  let agree_all a b = Array.for_all2 (fun x y -> x = y) a b in
  for _ = 1 to 2_000 do
    let a = Random.State.int st (n + 1) in
    let b = a + Random.State.int st (n + 2 - a) in
    Fm.extend_all fm ~lo:a ~hi:b ~los:los_p ~his:his_p;
    Seed_model.extend_all sm (a, b) ~los:los_s ~his:his_s;
    if not (agree_all los_p los_s && agree_all his_p his_s) then
      failwith "rank_locate parity: fm.extend_all diverges"
  done;
  let sample_pattern len =
    let start = Random.State.int st (n - len) in
    String.sub text start len
  in
  for _ = 1 to 500 do
    let pat = sample_pattern (1 + Random.State.int st 24) in
    if Fm.count fm pat <> Seed_model.count sm pat then
      failwith "rank_locate parity: fm.count diverges"
  done;
  let one = Array.make 1 0 in
  for _ = 1 to 2_000 do
    let row = Random.State.int st (n + 1) in
    Fm.locate_into fm (row, row + 1) one;
    if one.(0) <> Seed_model.position_of_row sm row then
      failwith "rank_locate parity: fm.locate diverges"
  done
