(* Observability layer tests: histogram geometry and quantile error
   bounds, exact sharded-merge semantics (the determinism contract the
   parallel mapper's metrics rely on), exporter well-formedness (Chrome
   trace JSON, Prometheus text exposition), the Query/Response and
   Mapper.options surfaces, and the legacy wrappers over them. *)

open Core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* A tiny validating JSON parser — just enough to assert the Chrome
   trace exporter always emits syntactically valid JSON without pulling
   a JSON dependency into the repo. *)

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then begin
      advance ();
      skip_ws ()
    end
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail ()
  in
  let number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail ()
  in
  let string_lit () =
    if peek () <> '"' then fail ();
    advance ();
    let rec go () =
      if !pos >= n then fail ()
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail ();
            advance ();
            go ()
        | _ ->
            advance ();
            go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and obj () =
    advance ();
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        if peek () <> ':' then fail ();
        advance ();
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    advance ();
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems ()
        | ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* Histogram: exact aggregates and the quantile error bound             *)

let test_histogram_exact_aggregates () =
  let h = Obs.Histogram.create () in
  check int "empty count" 0 (Obs.Histogram.count h);
  check int "empty quantile" 0 (Obs.Histogram.quantile h 0.5);
  let values = [ 0; 1; 1; 7; 63; 64; 100; 1000; 123_456; 3 ] in
  List.iter (Obs.Histogram.record h) values;
  check int "count" (List.length values) (Obs.Histogram.count h);
  check int "sum" (List.fold_left ( + ) 0 values) (Obs.Histogram.sum h);
  check int "min" 0 (Obs.Histogram.min_value h);
  check int "max" 123_456 (Obs.Histogram.max_value h);
  Obs.Histogram.record h (-5);
  check int "negative clamps to 0" 0 (Obs.Histogram.min_value h);
  check int "clamped still counted" (List.length values + 1)
    (Obs.Histogram.count h)

let test_histogram_small_values_exact () =
  (* Below 64 every value has its own bucket: quantiles are exact. *)
  let h = Obs.Histogram.create () in
  for v = 0 to 63 do
    Obs.Histogram.record h v
  done;
  check int "q0 smallest" 0 (Obs.Histogram.quantile h 0.0);
  check int "median of 0..63" 31 (Obs.Histogram.quantile h 0.5);
  check int "q1 largest" 63 (Obs.Histogram.quantile h 1.0);
  List.iter
    (fun (lo, hi, c) ->
      check bool "unit bucket" true (lo = hi);
      check int "one value per bucket" 1 c)
    (Obs.Histogram.buckets h)

let prop_quantile_error_bound =
  Test_util.qtest ~count:300 "histogram quantile within 3.125% upper bound"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_bound 2_000_000))
        (int_bound 100))
    (fun (values, qpct) ->
      let q = float_of_int qpct /. 100.0 in
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.record h) values;
      let sorted = List.sort compare values in
      let count = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
      let exact = List.nth sorted (rank - 1) in
      let approx = Obs.Histogram.quantile h q in
      (* an upper bound, never above max, within 3.125% relative error *)
      approx >= exact
      && approx <= Obs.Histogram.max_value h
      && float_of_int (approx - exact) <= 0.03125 *. float_of_int (max exact 64))

let prop_histogram_sharded_merge =
  Test_util.qtest ~count:200 "sharded histogram merge = sequential, bit for bit"
    QCheck2.Gen.(
      pair (list_size (int_range 0 300) (int_bound 10_000_000)) (int_range 1 4))
    (fun (values, shards) ->
      let seq = Obs.Histogram.create () in
      List.iter (Obs.Histogram.record seq) values;
      let parts = Array.init shards (fun _ -> Obs.Histogram.create ()) in
      List.iteri
        (fun i v -> Obs.Histogram.record parts.(i mod shards) v)
        values;
      let merged = Obs.Histogram.create () in
      Array.iter (fun p -> Obs.Histogram.merge ~into:merged p) parts;
      Obs.Histogram.equal merged seq)

(* ------------------------------------------------------------------ *)
(* Sink: counters, fork/merge, span semantics                           *)

let test_sink_counters_and_merge () =
  let a = Obs.create () in
  Obs.incr a "x";
  Obs.incr ~by:4 a "x";
  Obs.add a "y" 10;
  Obs.record a "h" 5;
  let b = Obs.fork a in
  check bool "fork is active" true (Obs.enabled b);
  Obs.incr ~by:2 b "x";
  Obs.record b "h" 7;
  Obs.merge ~into:a b;
  check int "merged counter" 7 (Obs.counter_value a "x");
  check int "untouched counter" 10 (Obs.counter_value a "y");
  check int "absent counter" 0 (Obs.counter_value a "zzz");
  (match Obs.histogram a "h" with
  | None -> Alcotest.fail "histogram lost in merge"
  | Some h ->
      check int "merged histogram count" 2 (Obs.Histogram.count h);
      check int "merged histogram sum" 12 (Obs.Histogram.sum h));
  (* counters export sorted by name *)
  check bool "sorted export" true
    (List.map fst (Obs.counters a) = List.sort compare (List.map fst (Obs.counters a)))

let test_noop_is_inert () =
  check bool "noop disabled" false (Obs.enabled Obs.noop);
  check bool "noop fork is noop" false (Obs.enabled (Obs.fork Obs.noop));
  Obs.incr Obs.noop "x";
  Obs.record Obs.noop "h" 3;
  check int "noop counter stays 0" 0 (Obs.counter_value Obs.noop "x");
  check bool "noop histogram absent" true (Obs.histogram Obs.noop "h" = None);
  check int "span on noop is f ()" 41 (Obs.span Obs.noop "s" (fun () -> 41));
  check bool "noop trace still valid JSON" true
    (json_valid (Obs.to_chrome_trace Obs.noop))

let test_span_records_duration () =
  let t = Obs.create () in
  let x = Obs.span t "work" (fun () -> 7) in
  check int "span returns" 7 x;
  (match Obs.histogram t "work_ns" with
  | None -> Alcotest.fail "span did not record a histogram"
  | Some h -> check int "one duration" 1 (Obs.Histogram.count h));
  (* duration lands even when the scope raises *)
  (try Obs.span t "work" (fun () -> failwith "boom") with Failure _ -> ());
  match Obs.histogram t "work_ns" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h -> check int "raise still recorded" 2 (Obs.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let test_chrome_trace_valid () =
  let t = Obs.create ~trace:true () in
  Obs.span t "alpha" (fun () -> ());
  Obs.span
    ~args:[ ("engine", "m-tree"); ("quote", "a\"b\\c") ]
    t "beta"
    (fun () -> ());
  Obs.event t "gamma";
  let js = Obs.to_chrome_trace ~process_name:"kmm-test" t in
  check bool "trace is valid JSON" true (json_valid js);
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i = i + nl <= hl && (String.sub js i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "events present" true
    (contains "\"alpha\"" && contains "\"beta\"" && contains "\"gamma\""
    && contains "kmm-test"
    && contains "a\\\"b\\\\c")

let test_prometheus_format () =
  let t = Obs.create () in
  Obs.incr ~by:3 t "engine.nodes";
  Obs.record t "map.read_ns" 100;
  Obs.record t "map.read_ns" 100_000;
  let text = Obs.to_prometheus t in
  check bool "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  let lines = String.split_on_char '\n' text in
  check bool "TYPE comment for counter" true
    (List.mem "# TYPE kmm_engine_nodes counter" lines);
  check bool "counter value line" true (List.mem "kmm_engine_nodes 3" lines);
  check bool "TYPE comment for histogram" true
    (List.mem "# TYPE kmm_map_read_ns histogram" lines);
  check bool "histogram count series" true (List.mem "kmm_map_read_ns_count 2" lines);
  check bool "histogram sum series" true
    (List.mem "kmm_map_read_ns_sum 100100" lines);
  (* cumulative bucket series: non-decreasing, +Inf equals _count *)
  let buckets =
    List.filter_map
      (fun l ->
        if String.length l > 24 && String.sub l 0 24 = "kmm_map_read_ns_bucket{l" then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some
                (int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      lines
  in
  check bool "has bucket series" true (buckets <> []);
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  check bool "buckets cumulative" true (non_decreasing buckets);
  check int "+Inf bucket equals count" 2 (List.nth buckets (List.length buckets - 1));
  (* custom prefix + name sanitization *)
  let t2 = Obs.create () in
  Obs.incr t2 "weird-name with spaces!";
  let text2 = Obs.to_prometheus ~prefix:"x" t2 in
  check bool "sanitized name" true
    (List.mem "x_weird_name_with_spaces_ 1" (String.split_on_char '\n' text2))

(* ------------------------------------------------------------------ *)
(* Query/Response, wrappers, and end-to-end determinism                 *)

let genome =
  lazy
    (Dna.Sequence.to_string
       (Dna.Sequence.random ~state:(Random.State.make [| 99 |]) 4_000))

let index = lazy (Kmismatch.build_index (Lazy.force genome))

let test_query_response () =
  let idx = Lazy.force index in
  let text = Lazy.force genome in
  let pattern = String.sub text 1_000 25 in
  let obs = Obs.create () in
  let q = Kmismatch.Query.make ~obs ~engine:Kmismatch.M_tree ~pattern ~k:2 () in
  let r = Kmismatch.run idx q in
  check bool "found the planted window" true
    (List.mem_assoc 1_000 r.Kmismatch.Response.hits);
  check bool "positions accessor" true
    (Kmismatch.Response.positions r = List.map fst r.Kmismatch.Response.hits);
  check bool "stats populated" true (r.Kmismatch.Response.stats.Stats.nodes > 0);
  check bool "timings has both phases" true
    (List.map fst r.Kmismatch.Response.timings = [ "normalize"; "search" ]);
  check int "query.count counter" 1 (Obs.counter_value obs "query.count");
  check int "engine.nodes counter" r.Kmismatch.Response.stats.Stats.nodes
    (Obs.counter_value obs "engine.nodes");
  check bool "query span histogram" true (Obs.histogram obs "query_ns" <> None);
  (* invalid inputs keep raising through run *)
  (match
     Kmismatch.run idx
       (Kmismatch.Query.make ~engine:Kmismatch.Naive ~pattern:"" ~k:0 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pattern accepted");
  match
    Kmismatch.run idx
      (Kmismatch.Query.make ~engine:Kmismatch.Naive ~pattern ~k:(-1) ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative k accepted"

let test_mapper_metrics_deterministic () =
  (* The acceptance contract: merged per-domain deterministic metrics
     (counters and the map.read_hits histogram) are identical across
     jobs = 1 / 2 / 4. *)
  Fmindex.Fm_index.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Fmindex.Fm_index.Telemetry.set_enabled false)
    (fun () ->
      let idx = Lazy.force index in
      let text = Lazy.force genome in
      let reads = List.init 30 (fun i -> (i, String.sub text (i * 100) 25)) in
      let observe domains =
        let obs = Obs.create () in
        let _, summary =
          Mapper.run { Mapper.default with domains; chunk_size = 3; obs } idx
            ~reads ~k:1
        in
        check bool "phase timings present" true
          (List.map fst summary.Mapper.timings = [ "prepare"; "search"; "merge" ]);
        let deterministic_counters =
          (* pool.tasks counts per-domain pulls and is scheduling-
             independent too, but keep the check focused on the
             workload-derived metrics. *)
          List.filter (fun (name, _) -> name <> "pool.tasks") (Obs.counters obs)
        in
        let hits_hist =
          match Obs.histogram obs "map.read_hits" with
          | Some h -> Obs.Histogram.copy h
          | None -> Alcotest.fail "map.read_hits missing"
        in
        (deterministic_counters, hits_hist)
      in
      let c1, h1 = observe 1 in
      List.iter
        (fun d ->
          let cd, hd = observe d in
          check bool
            (Printf.sprintf "counters jobs=%d = jobs=1" d)
            true (cd = c1);
          check bool
            (Printf.sprintf "map.read_hits jobs=%d = jobs=1" d)
            true
            (Obs.Histogram.equal hd h1))
        [ 2; 4 ];
      check bool "fm.* counters flowed" true
        (List.mem_assoc "fm.rank_ops" c1 && List.assoc "fm.rank_ops" c1 > 0))

let test_work_pool_obs () =
  let sinks = Array.init 3 (fun _ -> Obs.create ()) in
  Work_pool.with_pool ~domains:3 (fun pool ->
      Work_pool.run ~obs:sinks pool ~tasks:10 (fun ~worker:_ ~task:_ -> ()));
  let total = Obs.create () in
  Array.iter (fun o -> Obs.merge ~into:total o) sinks;
  check int "pool.tasks counts every task" 10
    (Obs.counter_value total "pool.tasks");
  match Obs.histogram total "pool.queue_wait_ns" with
  | None -> Alcotest.fail "queue-wait histogram missing"
  | Some h -> check int "one wait per task" 10 (Obs.Histogram.count h)

let test_fm_telemetry () =
  let fm = Fmindex.Fm_index.build "acgtacgtacgtacgtacgtacgaatt" in
  Fmindex.Fm_index.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Fmindex.Fm_index.Telemetry.set_enabled false)
    (fun () ->
      let before = Fmindex.Fm_index.Telemetry.snapshot () in
      ignore (Fmindex.Fm_index.count fm "acgt");
      ignore (Fmindex.Fm_index.find_all fm "acgt");
      let d =
        Fmindex.Fm_index.Telemetry.diff ~since:before
          (Fmindex.Fm_index.Telemetry.snapshot ())
      in
      check bool "rank ops counted" true
        (d.Fmindex.Fm_index.Telemetry.rank_ops > 0);
      check bool "blocks decoded" true
        (d.Fmindex.Fm_index.Telemetry.block_decodes > 0);
      check bool "locate walks counted" true
        (d.Fmindex.Fm_index.Telemetry.locate_walks > 0);
      check bool "walks have steps" true
        (d.Fmindex.Fm_index.Telemetry.locate_steps
        >= d.Fmindex.Fm_index.Telemetry.locate_walks - 4));
  (* disabled again: the hook stays silent *)
  let before = Fmindex.Fm_index.Telemetry.snapshot () in
  ignore (Fmindex.Fm_index.count fm "acgt");
  let d =
    Fmindex.Fm_index.Telemetry.diff ~since:before
      (Fmindex.Fm_index.Telemetry.snapshot ())
  in
  check int "no rank ops when disabled" 0 d.Fmindex.Fm_index.Telemetry.rank_ops

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact aggregates" `Quick
            test_histogram_exact_aggregates;
          Alcotest.test_case "small values exact" `Quick
            test_histogram_small_values_exact;
          prop_quantile_error_bound;
          prop_histogram_sharded_merge;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counters and merge" `Quick
            test_sink_counters_and_merge;
          Alcotest.test_case "noop is inert" `Quick test_noop_is_inert;
          Alcotest.test_case "span records duration" `Quick
            test_span_records_duration;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace valid JSON" `Quick
            test_chrome_trace_valid;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
        ] );
      ( "api",
        [
          Alcotest.test_case "query/response" `Quick test_query_response;
          Alcotest.test_case "metrics deterministic across domains" `Quick
            test_mapper_metrics_deterministic;
          Alcotest.test_case "work_pool obs" `Quick test_work_pool_obs;
          Alcotest.test_case "fm telemetry" `Quick test_fm_telemetry;
        ] );
    ]
