(* Head-to-head engine campaign: every registered engine on the same
   simulated-read workload, k in {0, 1, 2, 4} crossed with read lengths
   up to 128 bp.

   Two text tiers keep the slow references honest without letting them
   dominate the wall clock:

     small   every registered engine, reference matchers included —
             the cross-check tier (all answers must be identical);
     large   only engines whose registry entry says [caps.scales] —
             the timing tier the paper-style comparison reads.

   The roster, the names and the scales gating all come from
   [Kmismatch.Engine_registry]: registering a new engine puts it in
   this campaign with no change here.

   Every (engine, k, length) cell's hit list is compared against the
   first engine's answer on the same reads; any divergence fails the
   run.  One JSON record per run is appended to --out (default
   BENCH_engines.json). *)

module K = Core.Kmismatch
module Registry = K.Engine_registry

let default_small = 30_000
let default_large = 1_000_000
let budgets = [ 0; 1; 2; 4 ]
let read_lens = [ 32; 64; 128 ]
let reads_per_cell = 25

(* Reads planted from the text itself with exactly [d <= k] substitutions
   each, so every budget row has true hits to find and the verify paths
   of the filter engines actually fire.  (Read_sim would give Poisson
   error counts — planting keeps the per-cell work deterministic.) *)
let plant_reads st text ~len ~k ~count =
  let n = String.length text in
  if n < len then []
  else
    List.init count (fun _ ->
        let pos = Random.State.int st (n - len + 1) in
        let read = Bytes.of_string (String.sub text pos len) in
        let d = Random.State.int st (k + 1) in
        for _ = 1 to d do
          let j = Random.State.int st len in
          let bases = "acgt" in
          let keep = Bytes.get read j in
          let rec flip () =
            let b = bases.[Random.State.int st 4] in
            if b = keep then flip () else b
          in
          Bytes.set read j (flip ())
        done;
        Bytes.unsafe_to_string read)

type row = {
  tier : string;  (* "small" | "large" *)
  size : int;
  engine : string;
  len : int;
  k : int;
  reads : int;
  avg_s : float;  (* mean wall-clock per read *)
  hits : int;  (* total hits over the read set *)
  agree : bool;  (* identical to the first engine's answer *)
}

(* One tier: build the index once, then time every admitted engine on
   every (k, len) cell over the same planted reads.  The first admitted
   engine's hit lists are the cross-check baseline. *)
let bench_tier ?(quiet = false) ~obs ~tier ~seed ~entries size =
  let st = Random.State.make [| seed; size; 0x1dc |] in
  let text =
    Dna.Sequence.to_string (Dna.Sequence.random ~state:st size)
  in
  let idx, build_s = Bench_util.time (fun () -> K.build_index text) in
  List.iter (fun e -> e.Registry.prepare idx) entries;
  if not quiet then
    Bench_util.note "%s tier: %s bp indexed in %s; engines: %s"
      tier (Bench_util.fmt_count size) (Bench_util.fmt_time build_s)
      (String.concat ", " (List.map (fun e -> e.Registry.name) entries));
  let cells =
    List.concat_map (fun len -> List.map (fun k -> (len, k)) budgets) read_lens
  in
  List.concat_map
    (fun (len, k) ->
      let reads = plant_reads st text ~len ~k ~count:reads_per_cell in
      let nreads = List.length reads in
      if nreads = 0 then []
      else
        let baseline = ref None in
        List.map
          (fun e ->
            let answers = ref [] in
            let total =
              Obs.span obs "bench.engines.cell" (fun () ->
                  Bench_util.time_unit (fun () ->
                      List.iter
                        (fun pattern ->
                          let r =
                            K.run idx
                              (K.Query.make ~engine:e.Registry.engine ~pattern
                                 ~k ())
                          in
                          answers := r.K.Response.hits :: !answers)
                        reads))
            in
            let answers = List.rev !answers in
            let agree =
              match !baseline with
              | None ->
                  baseline := Some answers;
                  true
              | Some b -> b = answers
            in
            {
              tier;
              size;
              engine = e.Registry.name;
              len;
              k;
              reads = nreads;
              avg_s = total /. float_of_int nreads;
              hits = List.fold_left (fun a h -> a + List.length h) 0 answers;
              agree;
            })
          entries)
    cells

let run ?(obs = Obs.noop) ?(out = "BENCH_engines.json") ?size ?(seed = 42) () =
  let small, large =
    match size with
    | Some s -> (min s default_small, s)
    | None -> (default_small, default_large)
  in
  let all = Registry.all () in
  let scaling = List.filter (fun e -> e.Registry.caps.Registry.scales) all in
  Bench_util.section "engines: registered engines head to head";
  Bench_util.note
    "small tier cross-checks every registered engine; large tier times the \
     [scales] subset.  Every cell's hits compared against the first engine's";
  let rows =
    Obs.span obs "bench.engines" (fun () ->
        bench_tier ~obs ~tier:"small" ~seed ~entries:all small
        @ bench_tier ~obs ~tier:"large" ~seed ~entries:scaling large)
  in
  Bench_util.table
    ~header:[ "tier"; "size"; "engine"; "m"; "k"; "reads"; "avg/read"; "hits"; "agree" ]
    (List.map
       (fun r ->
         [
           r.tier;
           Bench_util.fmt_count r.size;
           r.engine;
           string_of_int r.len;
           string_of_int r.k;
           string_of_int r.reads;
           Bench_util.fmt_time r.avg_s;
           Bench_util.fmt_count r.hits;
           (if r.agree then "yes" else "NO(BUG)");
         ])
       rows);
  List.iter
    (fun r ->
      Obs.record obs
        (Printf.sprintf "bench.engines.%s.%s.m%d.k%d.us_per_read" r.tier
           r.engine r.len r.k)
        (int_of_float (r.avg_s *. 1e6)))
    rows;
  List.iter
    (fun r ->
      if not r.agree then
        failwith
          (Printf.sprintf
             "engines bench: %s diverges from the baseline at m %d k %d (%s tier)"
             r.engine r.len r.k r.tier))
    rows;
  let json =
    Printf.sprintf
      "{\"bench\":\"engines\",\"meta\":%s,\"seed\":%d,\"results\":[%s]}"
      (Bench_meta.to_json ()) seed
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"tier\":\"%s\",\"size\":%d,\"engine\":\"%s\",\"m\":%d,\
                 \"k\":%d,\"reads\":%d,\"avg_read_s\":%.6e,\"hits\":%d,\
                 \"agree\":%b}"
                r.tier r.size r.engine r.len r.k r.reads r.avg_s r.hits r.agree)
            rows))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  output_string oc (json ^ "\n");
  close_out oc;
  Bench_util.note "record appended to %s" out

(* Headless parity smoke for [dune runtest] and [kmm bench engines
   --smoke]: the small tier's cross-check on a toy genome — every
   registered engine, no timing, no JSON. *)
let smoke ?(size = 4_000) ?(seed = 7) () =
  let rows =
    bench_tier ~quiet:true ~obs:Obs.noop ~tier:"small" ~seed
      ~entries:(Registry.all ()) size
  in
  List.iter
    (fun r ->
      if not r.agree then
        failwith
          (Printf.sprintf
             "engines smoke: %s diverges from the baseline at m %d k %d"
             r.engine r.len r.k))
    rows
