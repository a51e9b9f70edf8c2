(* Experiment harness.  With no argument every experiment runs in paper
   order; otherwise each argument names one experiment:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table2 fig11a   # a selection

   Machine-runnable benchmarks (load-modes, engines, serve) come
   from [Bench_registry] — the same dispatch table `kmm bench` uses — so
   the two entry points can never drift apart; the paper-reproduction
   experiments and the bechamel micro suite stay local to this harness. *)

let experiments =
  [
    ("table1", Experiments.table1);
    ("index-size", Experiments.index_size);
    ("table2", Experiments.table2);
    ("fig11a", Experiments.fig11a);
    ("fig11b", Experiments.fig11b);
    ("fig12", Experiments.fig12);
    ("fig13", Experiments.fig13);
    ("ablation", Experiments.ablation);
    ("deriv-stress", Experiments.deriv_stress);
    ("mtree-alloc", Mtree_alloc.run);
    ("micro", Micro.run);
  ]
  @ List.map
      (fun e ->
        ( e.Bench_registry.name,
          fun () -> e.Bench_registry.run Bench_registry.default_ctx ))
      Bench_registry.all

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf
    "BWT Arrays and Mismatching Trees (ICDE'17) - experiment harness\n";
  Printf.printf "(laptop-scaled synthetic workloads; see DESIGN.md and EXPERIMENTS.md)\n";
  List.iter
    (fun (name, f) ->
      let dt = Bench_util.time_unit f in
      Printf.printf "  [%s finished in %s]\n%!" name (Bench_util.fmt_time dt))
    selected
