(* The single dispatch table behind both benchmark entry points.

   `kmm bench NAME` (bin/kmm.ml) and `dune exec bench/main.exe NAME`
   (bench/main.ml) used to keep separate hardcoded lists, and they
   drifted: the CLI only knew rank-locate while the harness alone
   registered map-throughput, and each error message hardcoded its own
   "available:" text.  Every machine-runnable benchmark now registers
   here exactly once; both front ends dispatch over [all] and derive
   their "available:" strings from it, so the two can never disagree
   again.  (The paper-reproduction experiments — table1, fig11a, ... —
   and the bechamel micro suite stay local to bench/main.exe: they are
   harness workloads, not CLI benchmarks.) *)

type ctx = {
  obs : Obs.t;  (* active when the CLI passed --trace/--metrics-out *)
  out : string option;  (* JSON log override; each bench has its own default *)
  size : int option;  (* text size override, ditto *)
  seed : int;
  connections : int list;  (* serve: connection counts to sweep *)
  queries : int;  (* serve: queries per sweep point *)
  jobs : int;  (* serve: pool domains; 0 = all cores *)
  smoke : bool;
      (* replay the benchmark's cross-checks only — no timing, no JSON.
         Honored by benches with a headless parity mode (verify). *)
}

let default_ctx =
  {
    obs = Obs.noop;
    out = None;
    size = None;
    seed = 42;
    connections = [ 1; 2; 4; 8 ];
    queries = 2_000;
    jobs = 0;
    smoke = false;
  }

type entry = { name : string; doc : string; run : ctx -> unit }

let all =
  [
    {
      name = "rank-locate";
      doc =
        "packed-rank FM-index kernel vs. the seed byte-scan on rank, extend_all, \
         count and locate workloads (cross-checked; appends to BENCH_fmindex.json)";
      run =
        (fun c -> Rank_locate.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
    };
    {
      name = "map-throughput";
      doc =
        "parallel batch mapper reads/sec vs. domain count on a 100 kbp genome \
         (byte-identity re-checked; appends to BENCH_map.json; fixed workload — \
         ignores --size/--seed)";
      run = (fun _ -> Map_throughput.run ());
    };
    {
      name = "load-modes";
      doc =
        "index cold start: copy load (full verification) vs mmap adoption \
         at 1/32/128 Mbp (probe answers cross-checked; appends to \
         BENCH_fmindex.json; --size narrows to one size)";
      run =
        (fun c -> Load_modes.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
    };
    {
      name = "verify";
      doc =
        "word-parallel SWAR Hamming kernel vs. the byte-scan reference on \
         planted true hits (full-scan regime) and random windows (early-exit \
         regime), m in 16..512, k in 0..16, at 1/32/128 Mbp (every call \
         cross-checked; appends to BENCH_verify.json; --size narrows to one \
         size; --smoke replays the cross-checks only)";
      run =
        (fun c ->
          if c.smoke then Verify_bench.parity_smoke ?size:c.size ~seed:c.seed ()
          else
            Verify_bench.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
    };
    {
      name = "engines";
      doc =
        "every registered k-mismatch engine head to head on planted reads, \
         k in {0,1,2,4} x m in {32,64,128}: all engines cross-checked on a \
         small text, the [scales] subset timed on a large one (appends to \
         BENCH_engines.json; --size sets the large tier; --smoke replays the \
         cross-checks only)";
      run =
        (fun c ->
          if c.smoke then Engines_bench.smoke ?size:c.size ~seed:c.seed ()
          else
            Engines_bench.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
    };
    {
      name = "serve";
      doc =
        "kmm serve daemon: throughput and p50/p99 latency vs. concurrent \
         connections over the Unix-socket JSON protocol, byte-identical to a \
         sequential run (appends to BENCH_serve.json)";
      run =
        (fun c ->
          Serve_bench.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed
            ~connections:c.connections ~queries:c.queries ~jobs:c.jobs ());
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

let available () = String.concat ", " (names ())
