(* Regression check between two sets of perfbench records:

     compare OLD.jsonl NEW.jsonl [--spec BENCHMARK.json]

   For every workload and end-to-end metric it sets the median of the
   NEW runs against the median of the OLD runs, using the metric's
   declared direction and bound:

     better       every NEW run reads better than every OLD run;
     regression   NEW's median is worse than OLD's by more than the bound,
                  and either every NEW run reads worse than every OLD run
                  or both spreads are within the bound;
     unresolved   otherwise, when the spread (IQR / median) of either side
                  exceeds the bound or a side has fewer than 4 runs;
     better       otherwise, when the medians differ in NEW's favour by
                  more than OLD's spread;
     same         otherwise.

   A workload whose NEW runs failed a larger share of their operations
   than the OLD runs is a regression too.  Count-type per-layer metrics
   of traced runs must repeat exactly; any that differ are listed.  Exit
   code: 1 on a regression, 3 when some metric is unresolved (and none
   regressed), 0 otherwise. *)

module R = Bench_record

let () =
  let spec_path = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json") ]
    (fun f -> files := !files @ [ f ])
    "compare OLD.jsonl NEW.jsonl [--spec BENCHMARK.json]";
  let old_path, new_path =
    match !files with
    | [ a; b ] -> (a, b)
    | _ ->
        prerr_endline "usage: compare OLD.jsonl NEW.jsonl [--spec BENCHMARK.json]";
        exit 2
  in
  let spec = Spec.load !spec_path in
  let load p = List.filter (fun (r : R.t) -> r.correct) (R.read_all p) in
  let olds = load old_path and news = load new_path in
  let values recs ~traced workload pick =
    Array.of_list
      (List.filter_map
         (fun (r : R.t) -> if r.workload = workload && r.traced = traced then pick r else None)
         recs)
  in
  let e2e name (r : R.t) = Option.map (fun (m : R.metric) -> m.value) (List.find_opt (fun (m : R.metric) -> m.name = name) r.e2e) in
  let layer name (r : R.t) = Option.map (fun (m : R.metric) -> m.value) (List.find_opt (fun (m : R.metric) -> m.name = name) r.layers) in
  let regressions = ref 0 and unresolved = ref 0 in
  Printf.printf "%-12s %-22s %12s %12s %8s %8s %8s  %s\n" "workload" "metric" "old median" "new median"
    "change" "spread" "bound" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (d : Spec.decl) ->
          let o = values olds ~traced:false w (e2e d.name) and n = values news ~traced:false w (e2e d.name) in
          if Array.length o = 0 || Array.length n = 0 then
            Printf.printf "%-12s %-22s %12s %12s %8s %8s %8s  no runs\n" w d.name "-" "-" "-" "-" "-"
          else begin
            let bound = Option.get d.bound in
            let mo = R.median o and mn = R.median n in
            (* Positive [worse]: NEW reads worse than OLD. *)
            let sign = match d.better with Spec.Lower -> 1. | Spec.Higher -> -1. in
            let worse = sign *. (mn -. mo) /. Float.abs mo in
            let spread a = if Array.length a < 4 then infinity else R.spread a in
            let so = spread o and sn = spread n in
            (* [every (<)]: every NEW run reads better than every OLD run. *)
            let every cmp =
              Array.for_all (fun x -> Array.for_all (fun y -> cmp (sign *. (x -. y)) 0.) o) n
            in
            let verdict =
              if every ( < ) then "better"
              else if worse > bound && every ( > ) then (incr regressions; "REGRESSION")
              else if so > bound || sn > bound then (incr unresolved; "unresolved")
              else if worse > bound then (incr regressions; "REGRESSION")
              else if -.worse > so then "better"
              else "same"
            in
            let show s = if s = infinity then "n<4" else Printf.sprintf "%.3f" s in
            Printf.printf "%-12s %-22s %12.6g %12.6g %+7.1f%% %8s %8.3f  %s\n" w d.name mo mn
              (100. *. (mn -. mo) /. Float.abs mo)
              (show (Float.max so sn)) bound verdict
          end)
        spec.end_to_end;
      (* A gain does not count when more operations fail: NEW may not
         fail a larger share of what it attempted than OLD. *)
      let share recs =
        let rs = List.filter (fun (r : R.t) -> r.workload = w && not r.traced) recs in
        let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
        (rs <> [], float_of_int (sum (fun r -> r.failed)) /. float_of_int (max 1 (sum (fun r -> r.attempted))))
      in
      match (share olds, share news) with
      | (true, fo), (true, fn) ->
          let verdict = if fn > fo then (incr regressions; "REGRESSION") else "same" in
          Printf.printf "%-12s %-22s %12.6g %12.6g %8s %8s %8s  %s\n" w "failed/attempted" fo fn "-" "-" "-"
            verdict
      | _ -> ())
    spec.workloads;
  (* Counts read from the program's own counters repeat exactly on
     identical inputs (same workload and seed); a difference means the
     work itself changed. *)
  let count_diffs = ref 0 in
  List.iter
    (fun (r : R.t) ->
      if r.traced then
        List.iter
          (fun (d : Spec.decl) ->
            if d.unit_ = "count" then
              let same_input (o : R.t) = o.traced && o.workload = r.workload && o.seed = r.seed in
              List.iter
                (fun o ->
                  match (layer d.name o, layer d.name r) with
                  | Some a, Some b when a <> b ->
                      incr count_diffs;
                      Printf.printf "%-12s seed %-6d %-32s count differs: old %g, new %g\n" r.workload r.seed
                        d.name a b
                  | _ -> ())
                (List.filter same_input olds))
          spec.per_layer)
    news;
  if !count_diffs = 0 then print_endline "per-layer counts: identical on every shared workload and seed";
  Printf.printf "%d regression(s), %d unresolved\n" !regressions !unresolved;
  exit (if !regressions > 0 then 1 else if !unresolved > 0 then 3 else 0)
