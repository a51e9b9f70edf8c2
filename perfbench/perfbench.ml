(* The benchmark runner:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (the table below) and prints, as the last line of
   its standard output, one JSON object: whether every answer checked
   was correct, the operations attempted and failed, and the metrics —
   every end-to-end metric of BENCHMARK.json, or with --trace 1 every
   per-layer metric.  The full row (both metric sets when traced, with
   repeats and spreads) is appended to <results>/suite.jsonl, and a
   traced run writes its bench-side spans as a Chrome trace next to it.
   A wrong answer makes the exit code 1.

     perfbench --smoke --workload NAME    tiny inputs, every check, no record
     perfbench --check-spec               validate BENCHMARK.json
     perfbench --build-index TEXT OUT     one timed index build (the runner
                                          starts these itself) *)

module K = Core.Kmismatch
module R = Bench_record

type entry = { name : string; run : Ctx.t -> R.metric list * R.metric list }

let workloads =
  [
    {
      name = "map-bidir";
      run =
        (fun ctx ->
          Map_workload.run ctx
            {
              engine = K.Bidir;
              k = 4;
              genome_bp = 4_000_000;
              cross = K.S_tree;
              batch_reads_per_s = 11_500;
              latency_reads = 1000;
              builds = 3;
              cold_starts = 4;
            });
    };
    {
      name = "map-mtree";
      run =
        (fun ctx ->
          Map_workload.run ctx
            {
              engine = K.M_tree;
              k = 2;
              genome_bp = 4_000_000;
              cross = K.Bidir;
              batch_reads_per_s = 1650;
              latency_reads = 800;
              builds = 3;
              cold_starts = 40;
            });
    };
    {
      name = "serve-short";
      run =
        (fun ctx ->
          Serve_workload.run ctx
            {
              genome_bp = 1_000_000;
              mix = [ { share = 1.0; engine = K.Bidir; len = (32, 64); ks = (0, 1) } ];
              pool = 20_000;
              batch_queries_per_s = 7800;
              latency_queries = 1000;
              builds = 8;
              starts = 8;
            });
    };
  ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let print_metrics title ms =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (m : R.metric) ->
      Printf.printf "    %-32s %14.6g %-8s%s\n" m.name m.value m.unit_
        (if m.repeats > 1 then Printf.sprintf " (n=%d, spread %.3f)" m.repeats m.spread else ""))
    ms

let result_line ~correct ~attempted ~failed metrics =
  let module J = Kmm_server.Protocol.Json in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (m : R.metric) ->
                  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ]))
                metrics) );
       ])

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and check_spec = ref false in
  let kmm = ref "_build/default/bin/kmm.exe" and spec_path = ref "BENCHMARK.json" in
  let results = ref "perfbench/results" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny inputs, every check, no timing output or record");
      ("--check-spec", Arg.Set check_spec, " validate BENCHMARK.json and exit");
      ("--kmm", Arg.Set_string kmm, "PATH the kmm executable (default _build/default/bin/kmm.exe)");
      ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json");
      ("--results", Arg.Set_string results, "DIR where records and traces go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec = Spec.load !spec_path in
  Spec.check spec ~registered:(List.map (fun e -> e.name) workloads);
  if !check_spec then exit 0;
  let entry =
    match List.find_opt (fun e -> e.name = !workload) workloads with
    | Some e -> e
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
          (String.concat ", " (List.map (fun e -> e.name) workloads));
        exit 2
  in
  if not (Sys.file_exists !kmm) then begin
    Printf.eprintf "perfbench: %s not found (build it first: dune build ./bin/kmm.exe)\n" !kmm;
    exit 2
  end;
  mkdir_p !results;
  let dir = Filename.concat !results (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  (* Whatever way the run ends — normally, on an error, or on a signal —
     its daemons are stopped and reaped and its scratch files removed. *)
  at_exit (fun () ->
      Ctx.stop_children ();
      List.iter Daemon.stop !Daemon.live;
      rm_rf dir);
  let traced = !trace = 1 || !smoke in
  let ctx =
    {
      Ctx.workload = entry.name;
      seed = !seed;
      seconds = float_of_int !seconds;
      traced;
      smoke = !smoke;
      kmm = !kmm;
      results = !results;
      dir;
      obs = (if traced && not !smoke then Obs.create ~trace:true () else Obs.noop);
      attempted = 0;
      failed = 0;
      wrong = [];
      host_scale = 1.;
    }
  in
  if not !smoke then
    Printf.printf "perfbench %s: seed %d, %d s, trace %d\n%!" entry.name !seed !seconds !trace;
  let e2e, layers = entry.run ctx in
  let correct = ctx.wrong = [] && ctx.attempted > 0 in
  List.iter (fun m -> Printf.eprintf "perfbench: WRONG: %s\n" m) (List.rev ctx.wrong);
  List.iter
    (fun (m : R.metric) -> if not (Float.is_finite m.value) then failwith (m.name ^ " was not measured"))
    (e2e @ layers);
  let names ms = List.map (fun (m : R.metric) -> (m.name, m.unit_)) ms in
  Spec.check_printed spec.end_to_end (names e2e);
  if traced then Spec.check_printed spec.per_layer (names layers);
  if not !smoke then begin
    print_metrics "end to end" e2e;
    if traced then print_metrics "per layer" layers;
    let record =
      {
        R.meta = R.meta ~domains:2;
        workload = entry.name;
        seed = !seed;
        seconds = !seconds;
        traced;
        correct;
        attempted = ctx.attempted;
        failed = ctx.failed;
        host_scale = ctx.host_scale;
        e2e;
        layers;
      }
    in
    R.append (Filename.concat !results "suite.jsonl") record;
    if traced then
      Obs.write_chrome_trace ~process_name:"perfbench" ctx.obs
        (Filename.concat !results (Printf.sprintf "%s-%d.trace.json" entry.name !seed));
    print_endline
      (result_line ~correct ~attempted:ctx.attempted ~failed:ctx.failed (if traced then layers else e2e))
  end;
  exit (if correct then 0 else 1)

let () =
  match Sys.argv with
  | [| _; "--build-index"; text_file; out |] -> Ctx.build_main text_file out
  | _ -> (
      (* [exit] runs the at_exit cleanup of [main]. *)
      List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
      try main () with
      | Failure m | Sys_error m ->
          Printf.eprintf "perfbench: %s\n" m;
          exit 2)
