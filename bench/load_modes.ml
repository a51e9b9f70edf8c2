(* Cold-start benchmark for the two index load modes: copy load (parse +
   CRC sweep + structural recount + buffer adoption) and mmap adoption
   (header validation only; the kernel pages the sections in on first
   touch).

   The metric that matters is time to the first answer: how long
   between opening ref.fmi and answering one query, as [kmm map --index
   ref.fmi] or a freshly started daemon meets it.  So each mode is timed
   twice from a fresh load: to the first m-tree answer and to the first
   bidir answer.  The bidir answer needs the index's forward rank side,
   so a format that does not carry it pays its rebuild here.  Every
   answer is cross-checked against the freshly built heap index; a
   wrong answer fails the run.  Alongside each time is the peak resident
   memory the cold start added to the process, and alongside the build
   time the peak resident memory the build added.

   One JSON record per run is appended to --out (default
   BENCH_fmindex.json). *)

module K = Core.Kmismatch

let default_sizes = [ 4_000_000; 32_000_000 ]

(* The query: a 100 bp window of the text with two bases changed,
   searched at k = 4. *)
let k = 4

let probe ~st text =
  let len = 100 in
  let p = Bytes.of_string (String.sub text (Random.State.int st (String.length text - len)) len) in
  List.iter
    (fun i -> Bytes.set p i (if Bytes.get p i = 'a' then 'c' else 'a'))
    [ 17; 71 ];
  Bytes.to_string p

let answer idx engine pattern = (K.run idx (K.Query.make ~engine ~pattern ~k ())).K.Response.hits

(* A /proc/self/status field in KiB: VmHWM (peak resident set since the
   last [reset_peak]) or VmRSS (current). *)
let status_kb field =
  let status = In_channel.with_open_bin "/proc/self/status" In_channel.input_all in
  List.find_map
    (fun l -> Scanf.sscanf_opt l (field ^^ ": %d kB") (fun kb -> kb))
    (String.split_on_char '\n' status)
  |> Option.value ~default:0

let reset_peak () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type cell = { first_s : float; rss_mb : float }

(* Best of [reps] cold starts (load + one answer), each from a compacted
   heap; [rss_mb] is the largest peak-RSS growth over the resident set
   the cold start began with. *)
let cold ~reps ~expected ~path ~pattern mode engine =
  let best = ref infinity and rss = ref 0. in
  for _ = 1 to reps do
    Gc.compact ();
    reset_peak ();
    let base = status_kb "VmRSS" in
    let hits, dt =
      Bench_util.time (fun () -> answer (K.load_index ~mode path) engine pattern)
    in
    Bench_util.cross_check ~what:"load-modes cold start" ~reads:[ pattern ]
      [ ("the heap index", [ expected ]); (K.engine_name engine, [ hits ]) ];
    best := min !best dt;
    rss := max !rss (float_of_int (status_kb "VmHWM" - base) /. 1024.)
  done;
  { first_s = !best; rss_mb = !rss }

type row = {
  size : int;
  build_s : float;
  build_rss_mb : float;  (* peak RSS growth over the build *)
  file_bytes : int;
  cells : ((string * string) * cell) list;  (* (mode, engine) *)
}

let modes = [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ]
let engines = [ K.M_tree; K.Bidir ]

let bench_one ~st ~reps size =
  let text = Dna.Sequence.to_string (Dna.Sequence.random ~state:st size) in
  Gc.compact ();
  reset_peak ();
  let base = status_kb "VmRSS" in
  let idx, build_s = Bench_util.time (fun () -> K.build_index text) in
  let build_rss_mb = float_of_int (status_kb "VmHWM" - base) /. 1024. in
  Bench_util.note "%s bp: index built in %s, peak RSS +%.1f MiB" (Bench_util.fmt_count size)
    (Bench_util.fmt_time build_s) build_rss_mb;
  let pattern = probe ~st text in
  let expected = answer idx K.M_tree pattern in
  Bench_util.cross_check ~what:"load-modes" ~reads:[ pattern ]
    [ ("m-tree", [ expected ]); ("bidir", [ answer idx K.Bidir pattern ]) ];
  let path = Filename.temp_file "kmm-load-bench" ".fmi" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      K.save_index idx path;
      let file_bytes = (Unix.stat path).Unix.st_size in
      let cells =
        List.concat_map
          (fun (mname, mode) ->
            List.map
              (fun engine ->
                ( (mname, K.engine_name engine),
                  cold ~reps ~expected ~path ~pattern mode engine ))
              engines)
          modes
      in
      { size; build_s; build_rss_mb; file_bytes; cells })

let run ?(obs = Obs.noop) ?(out = "BENCH_fmindex.json") ?size ?(seed = 42) () =
  let sizes = match size with Some s -> [ s ] | None -> default_sizes in
  Bench_util.section "load-modes: time to the first answer from a cold load";
  Bench_util.note
    "per mode and engine: best of 3 cold starts (load + one 100 bp query at k = %d), \
     each answer cross-checked against the built index; rss = peak RSS the cold \
     start added"
    k;
  let st = Random.State.make [| seed |] in
  let rows =
    Obs.span obs "bench.load_modes" (fun () ->
        List.map (fun s -> bench_one ~st ~reps:3 s) sizes)
  in
  Bench_util.table
    ~header:[ "size"; "file"; "mode"; "engine"; "first answer"; "rss" ]
    (List.concat_map
       (fun r ->
         List.map
           (fun ((mode, engine), c) ->
             [
               Bench_util.fmt_count r.size;
               Bench_util.fmt_count r.file_bytes;
               mode;
               engine;
               Bench_util.fmt_time c.first_s;
               Printf.sprintf "%.1f MiB" c.rss_mb;
             ])
           r.cells)
       rows);
  let json =
    Printf.sprintf "{\"bench\":\"load_modes\",\"meta\":%s,\"seed\":%d,\"k\":%d,\"results\":[%s]}"
      (Bench_meta.to_json ()) seed k
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"size\":%d,\"file_bytes\":%d,\"build_s\":%.4f,\"build_rss_mb\":%.1f,\"cold\":[%s]}"
                r.size r.file_bytes r.build_s r.build_rss_mb
                (String.concat ","
                   (List.map
                      (fun ((mode, engine), c) ->
                        Printf.sprintf
                          "{\"mode\":\"%s\",\"engine\":\"%s\",\"first_answer_s\":%.6f,\"rss_mb\":%.1f}"
                          mode engine c.first_s c.rss_mb)
                      r.cells)))
            rows))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  Bench_util.note "record appended to %s" out
