(* kmm — k-mismatch matcher: command-line front end for the library.

   Subcommands:
     generate   synthesize a genome (FASTA)
     simulate   sample wgsim-style reads from a genome (FASTA)
     index      build and save an FM-index of a genome
     verify     check an index file's integrity (typed exit codes)
     search     find a pattern in a genome with at most k mismatches
     map        map a read file against a genome
     serve      long-running query daemon on a Unix socket
     client     query a running kmm serve daemon
     fuzz       differential-fuzz all engines against the naive oracle
     bench      micro-benchmarks (shared dispatch table with bench/main.exe)
     bwt        print the BWT of a text (demonstration)                 *)

open Cmdliner

(* Typed failures carry their own process exit code (see
   [Kmm_error.exit_code]), so scripts can distinguish a corrupt index
   (6) from a truncated one (5) or a malformed FASTA file (2). *)
let fail_typed ?path e =
  Format.eprintf "kmm: %s%s@."
    (match path with None -> "" | Some p -> p ^ ": ")
    (Kmm_error.to_string e);
  exit (Kmm_error.exit_code e)

let read_genome path =
  match Dna.Fasta.try_read_file path with
  | Error e -> fail_typed ~path e
  | Ok [] -> fail_typed ~path (Kmm_error.Bad_input "no FASTA records")
  | Ok (r :: _) -> r.Dna.Fasta.seq

(* Every record of a FASTA file, concatenated — the corpus view a
   sharded index is built over. *)
let read_genome_all path =
  match Dna.Fasta.try_read_file path with
  | Error e -> fail_typed ~path e
  | Ok [] -> fail_typed ~path (Kmm_error.Bad_input "no FASTA records")
  | Ok records ->
      String.concat ""
        (List.map (fun r -> Dna.Sequence.to_string r.Dna.Fasta.seq) records)

(* Either a FASTA genome (indexed on the fly) or a prebuilt .fmi index /
   .fmi manifest; [--mmap] adopts prebuilt index files in place. *)
let obtain_corpus ~mmap ~genome ~index_file =
  let mode = if mmap then Some Fmindex.Fm_index.Mmap else None in
  match (genome, index_file) with
  | _, Some path -> (
      match Core.Corpus.try_load ?mode path with
      | Ok c -> c
      | Error e -> fail_typed ~path e)
  | Some path, None ->
      Core.Corpus.mono (Core.Kmismatch.of_sequence (read_genome path))
  | None, None -> failwith "one of --genome or --index is required"

(* --- observability plumbing ----------------------------------------- *)

(* [--trace FILE] and [--metrics-out FILE] arm an active sink (and the
   FM-index telemetry hook) for the duration of the command and write
   the exporters on the way out — even if the command raises.  Without
   either flag the command runs on [Obs.noop] and pays nothing. *)
let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (load it in \
           Perfetto or about://tracing).")

let metrics_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write counters and latency histograms to $(docv) in the Prometheus \
           text exposition format.")

let with_obs ~trace ~metrics_out f =
  match (trace, metrics_out) with
  | None, None -> f Obs.noop
  | _ ->
      let obs = Obs.create ~trace:(trace <> None) () in
      Fmindex.Fm_index.Telemetry.set_enabled true;
      Fmindex.Packed_text.Telemetry.set_enabled true;
      let finish () =
        Fmindex.Fm_index.Telemetry.set_enabled false;
        Fmindex.Packed_text.Telemetry.set_enabled false;
        Option.iter (Obs.write_chrome_trace ~process_name:"kmm" obs) trace;
        Option.iter (Obs.write_prometheus obs) metrics_out
      in
      Fun.protect ~finally:finish (fun () -> f obs)

let pp_timings ppf timings =
  List.iter (fun (name, s) -> Format.fprintf ppf " %s=%.4fs" name s) timings

let genome_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "g"; "genome" ] ~docv:"FASTA" ~doc:"Genome FASTA file.")

let index_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "i"; "index" ] ~docv:"FMI"
        ~doc:"Prebuilt index or shard manifest (see kmm index).")

let mmap_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "mmap" ]
        ~doc:
          "Memory-map a prebuilt --index instead of copying it to the heap: \
           cold start skips the O(n) payload verification and the OS shares \
           the pages across processes.  Run kmm verify when integrity must \
           be proven.  Ignored without --index.")

(* --- generate ------------------------------------------------------- *)

let generate_cmd =
  let run size seed repeat_fraction repeat_unit divergence rec_name out =
    let profile =
      {
        Dna.Genome_gen.size;
        repeat_fraction;
        repeat_unit_len = repeat_unit;
        divergence;
        seed;
      }
    in
    let genome = Dna.Genome_gen.generate profile in
    let record = { Dna.Fasta.name = rec_name; seq = genome } in
    (match out with
    | None -> print_string (Dna.Fasta.to_string [ record ])
    | Some path -> Dna.Fasta.write_file path [ record ]);
    `Ok ()
  in
  let size =
    Arg.(value & opt int 100_000 & info [ "size" ] ~docv:"N" ~doc:"Genome length.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let rf =
    Arg.(
      value & opt float 0.3
      & info [ "repeat-fraction" ] ~doc:"Fraction covered by planted repeats.")
  in
  let ru =
    Arg.(value & opt int 300 & info [ "repeat-unit" ] ~doc:"Repeat unit length.")
  in
  let div =
    Arg.(value & opt float 0.02 & info [ "divergence" ] ~doc:"Repeat copy divergence.")
  in
  let rec_name = Arg.(value & opt string "synthetic" & info [ "name" ] ~doc:"Record name.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output FASTA.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a repeat-bearing genome")
    Term.(ret (const run $ size $ seed $ rf $ ru $ div $ rec_name $ out))

(* --- simulate ------------------------------------------------------- *)

let simulate_cmd =
  let run genome count len error_rate both seed out =
    let g = read_genome genome in
    let cfg = { Dna.Read_sim.count; len; error_rate; both_strands = both; seed } in
    let reads = Dna.Read_sim.simulate cfg g in
    let records =
      List.map
        (fun r ->
          {
            Dna.Fasta.name =
              Printf.sprintf "read%d origin=%d strand=%c errors=%d" r.Dna.Read_sim.id
                r.Dna.Read_sim.origin
                (if r.Dna.Read_sim.forward then '+' else '-')
                r.Dna.Read_sim.errors;
            seq = r.Dna.Read_sim.seq;
          })
        reads
    in
    (match out with
    | None -> print_string (Dna.Fasta.to_string records)
    | Some path -> Dna.Fasta.write_file path records);
    `Ok ()
  in
  let genome =
    Arg.(required & opt (some string) None & info [ "g"; "genome" ] ~docv:"FASTA" ~doc:"Genome.")
  in
  let count = Arg.(value & opt int 500 & info [ "n"; "count" ] ~doc:"Number of reads.") in
  let len = Arg.(value & opt int 100 & info [ "l"; "length" ] ~doc:"Read length.") in
  let er = Arg.(value & opt float 0.02 & info [ "e"; "error-rate" ] ~doc:"Substitution rate.") in
  let both = Arg.(value & flag & info [ "both-strands" ] ~doc:"Sample both strands.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output FASTA.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate wgsim-style reads")
    Term.(ret (const run $ genome $ count $ len $ er $ both $ seed $ out))

(* --- search --------------------------------------------------------- *)

let engine_conv =
  (* The accepted spellings and the error text both come from the engine
     registry, so a newly registered engine is immediately usable on the
     command line with no change here. *)
  let parse s =
    match Core.Kmismatch.engine_of_string_err s with
    | Ok e -> Ok e
    | Error err -> Error (`Msg (Kmm_error.to_string err))
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (Core.Kmismatch.engine_name e))

let engine_arg =
  let doc =
    Printf.sprintf "Search engine; one of %s (dashes and underscores both accepted)."
      (String.concat ", " (Core.Kmismatch.engine_names ()))
  in
  Arg.(value & opt engine_conv Core.Kmismatch.M_tree & info [ "engine" ] ~doc)

let search_cmd =
  let run genome index_file mmap pattern k engine verbose trace metrics_out =
    let corpus = obtain_corpus ~mmap ~genome ~index_file in
    with_obs ~trace ~metrics_out (fun obs ->
        let r =
          (* The typed channel: an empty/non-ACGT pattern, k < 0, or a
             pattern exceeding a sharded corpus's query limit exits with
             the Bad_input code (2) instead of an uncaught exception
             backtrace. *)
          match
            Core.Corpus.try_run corpus
              (Core.Kmismatch.Query.make ~obs ~engine ~pattern ~k ())
          with
          | Ok r -> r
          | Error e -> fail_typed e
        in
        let hits = r.Core.Kmismatch.Response.hits in
        List.iter (fun (pos, d) -> Printf.printf "%d\t%d\n" pos d) hits;
        if verbose then
          Format.eprintf "engine=%s hits=%d%a %a@."
            (Core.Kmismatch.engine_name engine)
            (List.length hits) pp_timings r.Core.Kmismatch.Response.timings
            Core.Stats.pp r.Core.Kmismatch.Response.stats);
    `Ok ()
  in
  let pattern =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc:"Pattern (ACGT).")
  in
  let k = Arg.(value & opt int 0 & info [ "k" ] ~doc:"Mismatch budget.") in
  let engine = engine_arg in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print statistics.") in
  Cmd.v
    (Cmd.info "search" ~doc:"String matching with k mismatches")
    Term.(
      ret
        (const run $ genome_arg $ index_arg $ mmap_arg $ pattern $ k $ engine
       $ verbose $ trace_arg $ metrics_arg))

(* --- map ------------------------------------------------------------ *)

let map_cmd =
  let run genome index_file mmap reads k engine both_strands best jobs trace
      metrics_out =
    if jobs < 1 then failwith "--jobs must be >= 1";
    let corpus = obtain_corpus ~mmap ~genome ~index_file in
    let records =
      match Dna.Fasta.try_read_file reads with
      | Ok rs -> rs
      | Error e -> fail_typed ~path:reads e
    in
    let inputs =
      List.mapi (fun i r -> (i, Dna.Sequence.to_string r.Dna.Fasta.seq)) records
    in
    with_obs ~trace ~metrics_out (fun obs ->
        let options =
          { Core.Mapper.default with engine; both_strands; domains = jobs; obs }
        in
        let hits, summary =
          Core.Mapper.run_target options (Core.Corpus.target corpus)
            ~reads:inputs ~k
        in
        let hits = if best then Core.Mapper.best_hits hits else hits in
        print_string (Core.Mapper.to_tsv hits);
        Format.eprintf
          "mapped %d/%d reads (%d unique, %d ambiguous, %d skipped; k=%d, \
           engine=%s, jobs=%d;%a)@."
          summary.Core.Mapper.mapped summary.Core.Mapper.total
          summary.Core.Mapper.unique summary.Core.Mapper.ambiguous
          (List.length summary.Core.Mapper.skipped)
          k
          (Core.Kmismatch.engine_name engine)
          jobs pp_timings summary.Core.Mapper.timings;
        (* Fail-soft: bad reads are reported, not fatal. *)
        List.iter
          (fun (id, e) ->
            Format.eprintf "skipped read %d: %s@." id (Kmm_error.to_string e))
          summary.Core.Mapper.skipped);
    `Ok ()
  in
  let reads =
    Arg.(required & opt (some string) None & info [ "r"; "reads" ] ~docv:"FASTA" ~doc:"Reads.")
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Mismatch budget.") in
  let engine = engine_arg in
  let both =
    Arg.(value & opt bool true & info [ "both-strands" ] ~doc:"Search both strands.")
  in
  let best = Arg.(value & flag & info [ "best" ] ~doc:"Keep only minimal-distance hits.") in
  let jobs =
    Arg.(
      value
      & opt int (Core.Work_pool.default_domains ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains to map with (default: the number of cores). Output \
             is byte-identical for every N; N=1 is the sequential path.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map a read set against a genome")
    Term.(
      ret
        (const run $ genome_arg $ index_arg $ mmap_arg $ reads $ k $ engine
       $ both $ best $ jobs $ trace_arg $ metrics_arg))

(* --- index ---------------------------------------------------------- *)

let index_cmd =
  let run genome out shard_size overlap jobs =
    if jobs < 1 then failwith "--jobs must be >= 1";
    (match shard_size with
    | Some s when s < 1 -> failwith "--shard-size must be >= 1"
    | _ -> ());
    if overlap < 0 then failwith "--shard-overlap must be >= 0";
    let corpus =
      match shard_size with
      | None ->
          Core.Corpus.mono (Core.Kmismatch.of_sequence (read_genome genome))
      | Some _ ->
          (* Sharded corpora index every FASTA record, concatenated. *)
          Core.Corpus.build ?shard_size ~overlap ~domains:jobs
            (read_genome_all genome)
    in
    Core.Corpus.save corpus out;
    (match Core.Corpus.overlap corpus with
    | None ->
        Format.eprintf "indexed %d bp -> %s@." (Core.Corpus.length corpus) out
    | Some ov ->
        Format.eprintf "indexed %d bp -> %s (%d shard%s, overlap %d)@."
          (Core.Corpus.length corpus)
          out
          (Core.Corpus.nshards corpus)
          (if Core.Corpus.nshards corpus = 1 then "" else "s")
          ov);
    `Ok ()
  in
  let genome =
    Arg.(required & opt (some string) None & info [ "g"; "genome" ] ~docv:"FASTA" ~doc:"Genome.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FMI"
          ~doc:"Index file (with --shard-size: the manifest; shard files land beside it).")
  in
  let shard_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-size" ] ~docv:"N"
          ~doc:
            "Split the corpus into shards of $(docv) bp, indexed in parallel \
             and tied together by a manifest.  Every FASTA record is indexed \
             (concatenated); without this flag only the first record is, as \
             a single monolithic index.")
  in
  let overlap =
    Arg.(
      value
      & opt int Core.Corpus.default_overlap
      & info [ "shard-overlap" ] ~docv:"N"
          ~doc:
            "Bases each shard stores beyond its own range so boundary-straddling \
             matches are found; queries longer than N+1 bp are refused.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Core.Work_pool.default_domains ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains building shards (default: the number of cores).")
  in
  Cmd.v
    (Cmd.info "index" ~doc:"Build and save an FM-index of a genome"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the FM-index and writes it in the current on-disk format \
              (v4: 8-byte-aligned CRC-guarded sections, loadable by copy or by \
              mmap).  With --shard-size the corpus is cut into overlapping \
              shards built in parallel across --jobs domains and saved as one \
              index file per shard plus a manifest; search/map/serve accept \
              the manifest wherever they accept an index.";
         ])
    Term.(ret (const run $ genome $ out $ shard_size $ overlap $ jobs))

(* --- verify --------------------------------------------------------- *)

let verify_cmd =
  let verify_plain path quiet =
    match Fmindex.Fm_index.try_load path with
    | Error e -> fail_typed ~path e
    | Ok fm ->
        if not quiet then begin
          Printf.printf "%s: ok (%d bp)\n" path (Fmindex.Fm_index.length fm);
          List.iter
            (fun (what, bytes) -> Printf.printf "  %-26s %d bytes\n" what bytes)
            (Fmindex.Fm_index.space_report fm)
        end
  in
  let verify_manifest path quiet =
    match Core.Corpus.try_read_manifest path with
    | Error e -> fail_typed ~path e
    | Ok m ->
        let dir = Filename.dirname path in
        if not quiet then
          Printf.printf "%s: manifest ok (%d bp corpus, %d shard%s, overlap %d)\n"
            path m.Core.Corpus.m_total
            (Array.length m.Core.Corpus.m_entries)
            (if Array.length m.Core.Corpus.m_entries = 1 then "" else "s")
            m.Core.Corpus.m_overlap;
        Array.iteri
          (fun i e ->
            let file = Filename.concat dir e.Core.Corpus.e_file in
            let image =
              match In_channel.with_open_bin file In_channel.input_all with
              | s -> s
              | exception (Sys_error _ as exn) ->
                  fail_typed ~path:file (Kmm_error.Io exn)
            in
            (* The manifest's own CRC of the shard image: catches a shard
               file swapped or rewritten behind the manifest's back, which
               the shard's internal CRCs alone cannot. *)
            if Fmindex.Crc32.string image <> e.Core.Corpus.e_crc then
              fail_typed ~path:file
                (Kmm_error.Corrupt
                   ( Kmm_error.Header,
                     "shard image checksum disagrees with the manifest" ));
            match Fmindex.Fm_index.try_of_string image with
            | Error err -> fail_typed ~path:file err
            | Ok fm ->
                if Fmindex.Fm_index.length fm <> e.Core.Corpus.e_stored then
                  fail_typed ~path:file
                    (Kmm_error.Corrupt
                       ( Kmm_error.Header,
                         "shard length disagrees with the manifest" ));
                if not quiet then
                  Printf.printf "  shard %03d: ok (%d bp at offset %d, %s)\n" i
                    e.Core.Corpus.e_stored e.Core.Corpus.e_off
                    e.Core.Corpus.e_file)
          m.Core.Corpus.m_entries
  in
  let run index_file quiet =
    if Core.Corpus.is_manifest index_file then verify_manifest index_file quiet
    else verify_plain index_file quiet;
    `Ok ()
  in
  let index_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FMI" ~doc:"Index file or shard manifest.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Exit code only.") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check an index or manifest file's integrity"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads the index by copy, checking magic, version, header sanity, \
              per-section CRC-32 checksums, the whole-file trailer and the \
              structural recount — everything an mmap load deliberately skips.  \
              Index files of the retired formats v1-v3 fail with exit code 4; \
              rebuild them with kmm index. \
              Given a shard manifest, validates the manifest (header CRC, shard \
              geometry) and then every shard file against both the manifest's \
              recorded CRC-32 and the shard's own internal checks.  Prints a \
              space report on success.  The exit code distinguishes the failure: \
              0 ok, 3 not an index file, 4 unsupported version, 5 truncated, 6 \
              corrupt, 7 I/O error.";
         ])
    Term.(ret (const run $ index_file $ quiet))

(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let run seed iters max_text replay corpus_out verbose =
    let module O = Core.Oracle in
    (* 1. Replay the regression corpus (if present / requested). *)
    let replay_failures =
      match replay with
      | None -> 0
      | Some dir ->
          let per_file = O.replay_dir dir in
          List.iter
            (fun (path, divs) ->
              if divs = [] then begin
                if verbose then Format.eprintf "replay %s: ok@." path
              end
              else
                List.iter
                  (fun d -> Format.eprintf "replay %s:@ %a@." path O.pp_divergence d)
                  divs)
            per_file;
          Format.eprintf "replayed %d corpus case(s), %d divergence(s)@."
            (List.length per_file)
            (List.fold_left (fun a (_, ds) -> a + List.length ds) 0 per_file);
          List.fold_left (fun a (_, ds) -> a + List.length ds) 0 per_file
    in
    (* 2. Fresh fuzzing. *)
    let progress =
      if verbose then
        Some (fun i -> if i mod 500 = 0 then Format.eprintf "... %d iterations@." i)
      else None
    in
    let t0 = Unix.gettimeofday () in
    let report = O.fuzz ?progress ~seed ~iters ~max_text () in
    let dt = Unix.gettimeofday () -. t0 in
    if verbose then
      List.iter
        (fun (cls, n) -> Format.eprintf "  class %-12s %d case(s)@." cls n)
        report.O.by_class;
    List.iter
      (fun d ->
        Format.printf "%a@." O.pp_divergence d;
        match corpus_out with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let file =
              Filename.concat dir
                (Printf.sprintf "shrunk-%s-%08x.case" d.O.div_subject
                   (Hashtbl.hash (d.O.div_case, seed)))
            in
            O.save_case
              ~comment:
                [
                  Printf.sprintf "shrunk reproducer: engine %s (kmm fuzz --seed %d --iters %d)"
                    d.O.div_subject seed iters;
                ]
              file d.O.div_case;
            Format.eprintf "wrote %s@." file)
      report.O.divergences;
    Format.eprintf "fuzz: %d iteration(s), %d divergence(s), seed %d, %.2fs@."
      report.O.iters_run
      (List.length report.O.divergences)
      seed dt;
    if report.O.divergences = [] && replay_failures = 0 then `Ok ()
    else `Error (false, "engines diverge from the naive oracle (see above)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (runs are reproducible).") in
  let iters = Arg.(value & opt int 2000 & info [ "iters" ] ~doc:"Number of generated cases.") in
  let max_text =
    Arg.(value & opt int 160 & info [ "max-text" ] ~docv:"N" ~doc:"Maximum generated text length.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR" ~doc:"Replay every *.case file in $(docv) first.")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:"Write shrunk reproducers of any divergence to $(docv) as .case files.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress and class counts.") in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: every engine vs. the naive oracle"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates seeded random and adversarial (text, pattern, k) cases \
              (periodic texts, homopolymer runs, near-full-length patterns, k = 0, \
              k >= m, single-character genomes, boundary-hugging windows, huge \
              budgets), runs every engine plus the online Kangaroo and bit-parallel \
              Shift-Add baselines, and compares against the naive O(mn) reference. \
              Any divergence is automatically shrunk to a minimal reproducer; use \
              --corpus-out to persist it for test/corpus replay.";
         ])
    Term.(ret (const run $ seed $ iters $ max_text $ replay $ corpus_out $ verbose))

(* --- bench ----------------------------------------------------------- *)

(* One dispatch table — [Bench_registry.all] — is shared with the
   bench/main.exe harness, and the "available:" text is derived from it,
   so the two entry points cannot drift apart again. *)
let bench_cmd =
  let run which out size seed connections queries jobs smoke trace metrics_out =
    match Bench_registry.find which with
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown benchmark %S (available: %s)" which
              (Bench_registry.available ()) )
    | Some entry ->
        with_obs ~trace ~metrics_out (fun obs ->
            entry.Bench_registry.run
              {
                Bench_registry.obs;
                out;
                size;
                seed;
                connections;
                queries;
                jobs;
                smoke;
              });
        `Ok ()
  in
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:
            (Printf.sprintf "Benchmark to run (%s)." (Bench_registry.available ())))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "JSON log to append the record to (default: the benchmark's own \
             BENCH_*.json).")
  in
  let size =
    Arg.(
      value
      & opt (some int) None
      & info [ "size" ] ~docv:"N"
          ~doc:"Text length in bp (default: the benchmark's own).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let connections =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "connections" ] ~docv:"N,N,..."
          ~doc:"serve: concurrent connection counts to sweep.")
  in
  let queries =
    Arg.(
      value
      & opt int 2_000
      & info [ "queries" ] ~docv:"N" ~doc:"serve: queries per sweep point.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"serve: worker domains of the daemon (0 = all cores).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Headless parity mode: replay the benchmark's cross-checks only, \
             with no timing and no JSON record (honored by verify; other \
             benchmarks ignore it).")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Micro-benchmarks with machine-readable logs"
       ~man:
         ([
            `S Manpage.s_description;
            `P
              "Benchmarks with machine-readable JSON logs, each cross-checking \
               its answers so a speedup can never hide a wrong result.  The \
               same dispatch table drives the bench/main.exe harness.";
          ]
         @ List.map
             (fun e ->
               `P
                 (Printf.sprintf "%s: %s" e.Bench_registry.name e.Bench_registry.doc))
             Bench_registry.all))
    Term.(
      ret
        (const run $ which $ out $ size $ seed $ connections $ queries $ jobs
       $ smoke $ trace_arg $ metrics_arg))

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let run genome index_file mmap socket jobs batch_max max_queue send_timeout
      max_pattern max_k max_hits max_frame quiet trace metrics_out =
    if jobs < 1 then failwith "--jobs must be >= 1";
    let corpus = obtain_corpus ~mmap ~genome ~index_file in
    let limits =
      { Kmm_server.Protocol.max_pattern; max_k; max_hits; max_frame }
    in
    let cfg =
      {
        (Kmm_server.Server.default_config ~socket_path:socket) with
        domains = jobs;
        batch_max;
        max_queue;
        send_timeout;
        limits;
        trace = trace <> None;
        log = (if quiet then ignore else fun line -> Format.eprintf "kmm serve: %s@." line);
      }
    in
    (match
       Kmm_server.Server.serve ?trace_out:trace ?metrics_out:metrics_out cfg
         corpus
     with
    | () -> ()
    | exception Kmm_error.Error e -> fail_typed e);
    `Ok ()
  in
  let socket =
    Arg.(
      value & opt string "kmm.sock"
      & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Core.Work_pool.default_domains ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains answering queries (default: the number of cores).")
  in
  let batch_max =
    Arg.(
      value & opt int 64
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Most queued queries dispatched onto the pool as one batch.")
  in
  let max_queue =
    Arg.(
      value & opt int 1024
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bound on the admission queue; beyond it queries are shed \
             immediately with a typed \"server overloaded\" frame (code 10) \
             instead of growing the queue without limit.")
  in
  let send_timeout =
    Arg.(
      value & opt float 10.0
      & info [ "send-timeout" ] ~docv:"SEC"
          ~doc:
            "Whole-response send budget: a client that stops reading and \
             fails to drain a response within $(docv) seconds is dropped \
             (its connection only — the daemon keeps serving).")
  in
  let d = Kmm_server.Protocol.default_limits in
  let max_pattern =
    Arg.(
      value & opt int d.Kmm_server.Protocol.max_pattern
      & info [ "max-pattern" ] ~docv:"N" ~doc:"Reject patterns longer than $(docv) bp.")
  in
  let max_k =
    Arg.(
      value & opt int d.Kmm_server.Protocol.max_k
      & info [ "max-k" ] ~docv:"N" ~doc:"Reject mismatch budgets above $(docv).")
  in
  let max_hits =
    Arg.(
      value & opt int d.Kmm_server.Protocol.max_hits
      & info [ "max-hits" ] ~docv:"N"
          ~doc:"Truncate responses to $(docv) hits (flagged in the response).")
  in
  let max_frame =
    Arg.(
      value & opt int d.Kmm_server.Protocol.max_frame
      & info [ "max-frame" ] ~docv:"N" ~doc:"Reject request lines longer than $(docv) bytes.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No log lines on stderr.") in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve k-mismatch queries from a long-running daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads the index once and answers newline-JSON queries over a Unix \
              domain socket until SIGINT/SIGTERM (clean drain) — see the README \
              \"Serving\" section for the wire protocol.  Every request is \
              admitted against --max-pattern/--max-k/--max-hits/--max-frame and \
              rejected with a typed error frame instead of a crash; a client \
              disconnecting mid-response costs only that connection.  Queued \
              queries are batched across --jobs worker domains.  The \"metrics\" \
              command exposes live Prometheus metrics; --trace/--metrics-out \
              also write them on exit.";
         ])
    Term.(
      ret
        (const run $ genome_arg $ index_arg $ mmap_arg $ socket $ jobs
       $ batch_max $ max_queue $ send_timeout $ max_pattern $ max_k $ max_hits
       $ max_frame $ quiet $ trace_arg $ metrics_arg))

(* --- client ----------------------------------------------------------- *)

let client_cmd =
  let run socket pattern k engine ping metrics info shutdown timeout retries
      deadline verbose =
    let module C = Kmm_server.Server.Client in
    let module P = Kmm_server.Protocol in
    (* One full connect+request round.  With --retries > 0 the whole
       round — reconnect included — is retried on transient errors only
       (connection-level Io, typed Overloaded sheds), with capped
       jittered exponential backoff; Bad_input and Timeout never
       retry. *)
    let attempt op () =
      match C.try_connect ?timeout socket with
      | Error e -> Error e
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> C.close conn)
            (fun () ->
              match op conn with
              | Ok (P.Error_reply { code = 10; message; _ }) ->
                  (* A server-side shed becomes a typed Overloaded value
                     so the retry loop treats it exactly like a refused
                     connect. *)
                  Error (Kmm_error.Overloaded message)
              | r -> r)
    in
    let rpc op =
      let result =
        if retries > 0 then C.with_retry ~attempts:(retries + 1) (attempt op)
        else attempt op ()
      in
      match result with
      | Error e -> fail_typed e
      | Ok (P.Error_reply { code; message; _ }) ->
          Format.eprintf "kmm client: %s@." message;
          exit code
      | Ok r -> r
    in
    let field name fields =
      match List.assoc_opt name fields with
      | Some (P.Json.String s) -> s
      | _ -> ""
    in
    if ping then begin
      let t0 = Unix.gettimeofday () in
      match rpc (fun conn -> C.command conn "ping") with
      | P.Ok_obj _ ->
          Printf.printf "pong (%.2f ms)\n" ((Unix.gettimeofday () -. t0) *. 1e3);
          `Ok ()
      | _ -> `Error (false, "unexpected reply")
    end
    else if metrics then begin
      match rpc (fun conn -> C.command conn "metrics") with
      | P.Ok_obj { fields; _ } ->
          print_string (field "metrics" fields);
          `Ok ()
      | _ -> `Error (false, "unexpected reply")
    end
    else if info then begin
      match rpc (fun conn -> C.command conn "info") with
      | P.Ok_obj { fields; _ } ->
          print_endline (P.Json.to_string (P.Json.Obj fields));
          `Ok ()
      | _ -> `Error (false, "unexpected reply")
    end
    else if shutdown then begin
      match rpc (fun conn -> C.command conn "shutdown") with
      | P.Ok_obj _ ->
          if verbose then Format.eprintf "daemon is draining@.";
          `Ok ()
      | _ -> `Error (false, "unexpected reply")
    end
    else
      match pattern with
      | None ->
          `Error
            (false, "PATTERN is required unless --ping/--metrics/--info/--shutdown")
      | Some pattern -> (
          match rpc (fun conn -> C.query conn ~engine ?deadline ~pattern ~k ()) with
          | P.Hits { hits; truncated; _ } ->
              List.iter (fun (pos, d) -> Printf.printf "%d\t%d\n" pos d) hits;
              if truncated then
                Format.eprintf "kmm client: hit list truncated by the server@.";
              if verbose then
                Format.eprintf "engine=%s hits=%d@."
                  (Core.Kmismatch.engine_name engine)
                  (List.length hits);
              `Ok ()
          | _ -> `Error (false, "unexpected reply"))
  in
  let socket =
    Arg.(
      value & opt string "kmm.sock"
      & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Socket of the running daemon.")
  in
  let pattern =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc:"Pattern (ACGT).")
  in
  let k = Arg.(value & opt int 0 & info [ "k" ] ~doc:"Mismatch budget.") in
  let engine = engine_arg in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip check.") in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the daemon's live Prometheus metrics.")
  in
  let info_flag = Arg.(value & flag & info [ "info" ] ~doc:"Print daemon info (JSON).") in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Client-side I/O budget in seconds: bounds the connect and each \
             reply read/send.  Expiry exits with the typed timeout code (9); \
             without it the client blocks indefinitely.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the whole request (reconnect included) up to $(docv) extra \
             times on transient errors — connection refused/reset/closed and \
             typed \"server overloaded\" replies — with capped jittered \
             exponential backoff.  Bad input and timeouts never retry.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Server-side compute budget in relative seconds (the wire \
             \"deadline\" field): the daemon abandons the query once the \
             budget is spent — queue wait included — and answers a typed \
             timeout frame (code 9).  Independent of --timeout.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty stderr.") in
  Cmd.v
    (Cmd.info "client" ~doc:"Query a running kmm serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Speaks the newline-JSON protocol of kmm serve.  On a server-side \
              error the daemon's typed error code becomes this process's exit \
              code — the same contract as the offline commands.  --timeout \
              bounds client-side waiting, --deadline bounds server-side \
              compute, and --retries adds backoff-and-retry on transient \
              failures (never on bad input).";
         ])
    Term.(
      ret
        (const run $ socket $ pattern $ k $ engine $ ping $ metrics $ info_flag
       $ shutdown $ timeout $ retries $ deadline $ verbose))

(* --- bwt ------------------------------------------------------------ *)

let bwt_cmd =
  let run text =
    print_endline (Fmindex.Bwt.of_text (Dna.Sequence.to_string (Dna.Sequence.of_string text)));
    `Ok ()
  in
  let text = Arg.(required & pos 0 (some string) None & info [] ~docv:"TEXT" ~doc:"Text.") in
  Cmd.v (Cmd.info "bwt" ~doc:"Print BWT(text\\$)") Term.(ret (const run $ text))

let () =
  let doc = "string matching with k mismatches over BWT arrays (ICDE'17 reproduction)" in
  let info = Cmd.info "kmm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            simulate_cmd;
            index_cmd;
            verify_cmd;
            search_cmd;
            map_cmd;
            fuzz_cmd;
            bench_cmd;
            serve_cmd;
            client_cmd;
            bwt_cmd;
          ]))
