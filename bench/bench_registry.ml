(* The single dispatch table behind both benchmark entry points.
   `kmm bench NAME` (bin/kmm.ml) and `dune exec bench/main.exe NAME`
   (bench/main.ml) both dispatch over [all] and derive their
   "available:" strings from it, so the two cannot drift apart.  (The
   paper-reproduction experiments — table1, fig11a, ... — and the
   bechamel micro suite stay local to bench/main.exe: they are harness
   workloads, not CLI benchmarks.) *)

type ctx = {
  obs : Obs.t;  (* active when the CLI passed --trace/--metrics-out *)
  out : string option;  (* JSON log override; each bench has its own default *)
  size : int option;  (* text size override, ditto *)
  seed : int;
}

let default_ctx = { obs = Obs.noop; out = None; size = None; seed = 42 }

(* [smoke], when present, replays the benchmark's cross-checks only: no
   timing and no JSON record. *)
type entry = {
  name : string;
  doc : string;
  run : ctx -> unit;
  smoke : (ctx -> unit) option;
}

let all =
  [
    {
      name = "load-modes";
      doc =
        "index cold start: time to the first m-tree and bidir answer and \
         peak RSS, copy load (full verification) vs mmap adoption, at 4 and \
         32 Mbp (answers cross-checked; appends to BENCH_fmindex.json; \
         --size narrows to one size)";
      run =
        (fun c -> Load_modes.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
      smoke = None;
    };
    {
      name = "engines";
      doc =
        "every registered k-mismatch engine head to head on planted reads, \
         k in {0,1,2,4} x m in {32,64,128}: all engines cross-checked on a \
         small text, the [scales] subset timed on a large one (appends to \
         BENCH_engines.json; --size sets the large tier)";
      run =
        (fun c -> Engines_bench.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
      smoke = Some (fun c -> Engines_bench.smoke ?size:c.size ~seed:c.seed ());
    };
    {
      name = "serve";
      doc =
        "kmm serve daemon under overload: 16 connections against a 2-domain \
         daemon with an admission queue of 6; shed rate and accepted-query \
         p50/p99, accepted hits byte-identical to a sequential run (appends \
         to BENCH_serve.json)";
      run = (fun c -> Serve_bench.run ~obs:c.obs ?out:c.out ?size:c.size ~seed:c.seed ());
      smoke = Some (fun c -> Serve_bench.smoke ?size:c.size ~seed:c.seed ());
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

let available () = String.concat ", " (names ())

let smoke_names () =
  List.filter_map (fun e -> Option.map (fun _ -> e.name) e.smoke) all
