(* Cold-start benchmark for the two index load modes: copy load (parse +
   CRC sweep + structural recount + buffer adoption) and mmap adoption
   (header validation only; the kernel pages the sections in on first
   touch).

   The metric that matters is daemon cold start: how long between
   [kmm serve -i ref.fmi] and the first answered query.  So besides the
   bare load call each mode also times a small probe batch — for mmap
   that is where the page faults land, and an adoption that merely
   deferred all the work would be exposed here.  Every probe answer is
   cross-checked against the freshly built index; a wrong answer fails
   the run.

   One JSON record per run is appended to --out (default
   BENCH_fmindex.json). *)

let default_sizes = [ 1_000_000; 32_000_000; 128_000_000 ]

type row = {
  size : int;
  build_s : float;
  file_bytes : int;
  copy_s : float;
  mmap_s : float;
  mmap_probe_s : float;
  speedup : float;  (* copy / mmap *)
}

let probe_patterns ~st text =
  List.init 16 (fun _ ->
      let len = 20 + Random.State.int st 21 in
      let pos = Random.State.int st (String.length text - len) in
      String.sub text pos len)

(* Best-of-[reps] wall-clock of [load ()], cross-checking every rep's
   probe answers against [expected].  Returns (load, probe) seconds. *)
let time_load ~reps ~probes ~expected load =
  let best_load = ref infinity and best_probe = ref infinity in
  for _ = 1 to reps do
    let fm, load_s = Bench_util.time load in
    let answers, probe_s =
      Bench_util.time (fun () ->
          List.map (fun p -> Fmindex.Fm_index.find_all fm p) probes)
    in
    if answers <> expected then failwith "load bench: probe answers diverge";
    best_load := min !best_load load_s;
    best_probe := min !best_probe probe_s
  done;
  (!best_load, !best_probe)

let bench_one ~st ~reps size =
  let text =
    Dna.Sequence.to_string (Dna.Sequence.random ~state:st size)
  in
  let fm, build_s = Bench_util.time (fun () -> Fmindex.Fm_index.build text) in
  Bench_util.note "%s bp: index built in %s" (Bench_util.fmt_count size)
    (Bench_util.fmt_time build_s);
  let probes = probe_patterns ~st text in
  let expected = List.map (fun p -> Fmindex.Fm_index.find_all fm p) probes in
  let path = Filename.temp_file "kmm-load-bench" ".fmi" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Fmindex.Fm_index.save fm path;
      let file_bytes = (Unix.stat path).Unix.st_size in
      let copy_s, _ =
        time_load ~reps ~probes ~expected (fun () ->
            Fmindex.Fm_index.load ~mode:Fmindex.Fm_index.Copy path)
      in
      let mmap_s, mmap_probe_s =
        time_load ~reps ~probes ~expected (fun () ->
            Fmindex.Fm_index.load ~mode:Fmindex.Fm_index.Mmap path)
      in
      { size; build_s; file_bytes; copy_s; mmap_s; mmap_probe_s; speedup = copy_s /. mmap_s })

let run ?(obs = Obs.noop) ?(out = "BENCH_fmindex.json") ?size ?(seed = 42) () =
  let sizes = match size with Some s -> [ s ] | None -> default_sizes in
  Bench_util.section "load-modes: copy vs mmap cold start";
  Bench_util.note
    "per mode: best of 3 bare loads, plus a 16-query probe batch (mmap pays \
     its page faults there); every probe cross-checked against the built index";
  let st = Random.State.make [| seed |] in
  let rows =
    Obs.span obs "bench.load_modes" (fun () ->
        List.map (fun s -> bench_one ~st ~reps:3 s) sizes)
  in
  Bench_util.table
    ~header:
      [ "size"; "file"; "copy"; "mmap"; "mmap probe"; "copy/mmap" ]
    (List.map
       (fun r ->
         [
           Bench_util.fmt_count r.size;
           Bench_util.fmt_count r.file_bytes;
           Bench_util.fmt_time r.copy_s;
           Bench_util.fmt_time r.mmap_s;
           Bench_util.fmt_time r.mmap_probe_s;
           Printf.sprintf "%.0fx" r.speedup;
         ])
       rows);
  List.iter
    (fun r ->
      Obs.record obs
        (Printf.sprintf "bench.load.%d.v4_mmap_us" r.size)
        (int_of_float (r.mmap_s *. 1e6)))
    rows;
  let json =
    Printf.sprintf "{\"bench\":\"load_modes\",\"meta\":%s,\"seed\":%d,\"results\":[%s]}"
      (Bench_meta.to_json ()) seed
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"size\":%d,\"file_bytes\":%d,\"build_s\":%.4f,\"copy_s\":%.4f,\
                 \"mmap_s\":%.6f,\"mmap_probe_s\":%.6f,\"speedup_copy_over_mmap\":%.1f}"
                r.size r.file_bytes r.build_s r.copy_s r.mmap_s r.mmap_probe_s r.speedup)
            rows))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  Bench_util.note "record appended to %s" out
