(* The one benchmark table: `kmm bench NAME...` (bin/kmm.ml) dispatches
   over [all] and derives its "available:" string from it.  The paper's
   experiments come first, in paper order; they print tables to stdout
   on fixed workloads and read nothing from [ctx].  The machine-readable
   suites after them append JSON records. *)

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

(* A paper experiment: fixed workload, stdout only, no smoke mode. *)
let experiment name doc run = { name; doc; run = (fun _ -> run ()); smoke = None }

let all =
  [
    experiment "table1" "paper Table 1: the five synthetic genome stand-ins and their sizes"
      Experiments.table1;
    experiment "index-size"
      "BWT index bytes per base at three rankall rates against the suffix tree's"
      Experiments.index_size;
    experiment "table2"
      "paper Table 2: leaf nodes of the M-trees and S-trees built during search"
      Experiments.table2;
    experiment "fig11a" "paper Fig 11(a): average matching time against k, four methods"
      Experiments.fig11a;
    experiment "fig11b"
      "paper Fig 11(b): average matching time against read length, four methods"
      Experiments.fig11b;
    experiment "fig12" "paper Fig 12: total matching time against the number of reads"
      Experiments.fig12;
    experiment "fig13" "paper Fig 13: average matching time across the five genomes"
      Experiments.fig13;
    experiment "ablation"
      "A()'s chain skip, the delta heuristic and the rankall rate, each switched"
      Experiments.ablation;
    experiment "deriv-stress"
      "reads over short tandem repeats, the regime where derivations fire"
      Experiments.deriv_stress;
    experiment "mtree-alloc"
      "per-read CPU, garbage and operation counts of m-tree, s-tree, \
       s-tree-nodelta and bidir on the map-mtree genome"
      Mtree_alloc.run;
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
