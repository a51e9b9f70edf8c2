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

module C = Obs.Counter
module H = Obs.Hist

let test_sink_counters_and_merge () =
  let a = Obs.create () in
  Obs.incr a C.engine_nodes;
  Obs.add a C.engine_nodes 4;
  Obs.add a C.query_hits 10;
  Obs.record a H.map_read_hits 5;
  let b = Obs.fork a in
  check bool "fork is active" true (Obs.enabled b);
  Obs.add b C.engine_nodes 2;
  Obs.record b H.map_read_hits 7;
  Obs.record b H.serve_batch_size 1;
  Obs.merge ~into:a b;
  check int "merged counter" 7 (Obs.counter_value a "engine.nodes");
  check int "untouched counter" 10 (Obs.counter_value a "query.hits");
  check int "absent counter" 0 (Obs.counter_value a "zzz");
  check int "every declared counter exported" (List.length C.all)
    (List.length (Obs.counters a));
  (match Obs.histogram a "map.read_hits" with
  | None -> Alcotest.fail "histogram lost in merge"
  | Some h ->
      check int "merged histogram count" 2 (Obs.Histogram.count h);
      check int "merged histogram sum" 12 (Obs.Histogram.sum h));
  check bool "a histogram only the source recorded is merged" true
    (List.map fst (Obs.histograms a) = [ "map.read_hits"; "serve.batch_size" ]);
  (* counters export sorted by name *)
  check bool "sorted export" true
    (List.map fst (Obs.counters a) = List.sort compare (List.map fst (Obs.counters a)))

(* A scratch sink reset between uses merges exactly what it recorded
   since, as a fresh sink would. *)
let prop_reset_is_fresh =
  let values = QCheck2.Gen.(list_size (int_bound 40) (pair bool (int_bound 10_000_000))) in
  Test_util.qtest ~count:200 "reset, record, merge = fresh sink" (QCheck2.Gen.pair values values)
    (fun (before, after) ->
      let record s =
        List.iter (fun (first, v) ->
            Obs.record s (if first then H.map_read_hits else H.query_ns) v;
            Obs.add s C.engine_nodes v)
      in
      let scratch = Obs.create () in
      record scratch before;
      Obs.reset scratch;
      record scratch after;
      let via = Obs.create () and direct = Obs.create () in
      Obs.merge ~into:via scratch;
      record direct after;
      Obs.to_prometheus via = Obs.to_prometheus direct)

let test_noop_is_inert () =
  check bool "noop disabled" false (Obs.enabled Obs.noop);
  check bool "noop fork is noop" false (Obs.enabled (Obs.fork Obs.noop));
  Obs.incr Obs.noop C.engine_nodes;
  Obs.record Obs.noop H.map_read_hits 3;
  check int "noop counter stays 0" 0 (Obs.counter_value Obs.noop "engine.nodes");
  check bool "noop histogram absent" true (Obs.histogram Obs.noop "map.read_hits" = None);
  check int "span on noop is f ()" 41 (Obs.span Obs.noop "s" (fun () -> 41));
  check int "time on noop is f ()" 41 (Obs.time Obs.noop H.query_ns (fun () -> 41));
  check bool "noop trace still valid JSON" true
    (json_valid (Obs.to_chrome_trace Obs.noop))

let test_span_records_duration () =
  let t = Obs.create () in
  let x = Obs.time t H.pool_task_ns (fun () -> 7) in
  check int "time returns" 7 x;
  (match Obs.histogram t "pool.task_ns" with
  | None -> Alcotest.fail "time did not record a histogram"
  | Some h -> check int "one duration" 1 (Obs.Histogram.count h));
  (* duration lands even when the scope raises *)
  (try Obs.time t H.pool_task_ns (fun () -> failwith "boom") with Failure _ -> ());
  (match Obs.histogram t "pool.task_ns" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h -> check int "raise still recorded" 2 (Obs.Histogram.count h));
  (* a free-form span is trace-only *)
  check int "span returns" 5 (Obs.span t "work" (fun () -> 5));
  check bool "span records no histogram" true
    (List.map fst (Obs.histograms t) = [ "pool.task_ns" ])

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let test_chrome_trace_valid () =
  let t = Obs.create ~trace:true () in
  Obs.span t "alpha" (fun () -> ());
  Obs.span
    ~args:[ ("engine", "m-tree"); ("quote", "a\"b\\c") ]
    t "beta"
    (fun () -> ());
  (* a declared histogram emits the span it names, with its args; one
     that names none emits nothing *)
  Obs.time ~args:[ ("k", "2") ] t H.query_ns (fun () -> ());
  Obs.time t H.mtree_derive_ns (fun () -> ());
  let js = Obs.to_chrome_trace ~process_name:"kmm-test" t in
  check bool "trace is valid JSON" true (json_valid js);
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i = i + nl <= hl && (String.sub js i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "events present" true
    (contains "\"alpha\"" && contains "\"beta\"" && contains "\"query\""
    && contains "\"args\":{\"k\":\"2\"}"
    && contains "kmm-test"
    && contains "a\\\"b\\\\c");
  check bool "no span from a histogram that names none" false (contains "derive")

let test_prometheus_format () =
  let t = Obs.create () in
  Obs.add t C.engine_nodes 3;
  Obs.record t H.map_read_ns 100;
  Obs.record t H.map_read_ns 100_000;
  let text = Obs.to_prometheus t in
  check bool "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  let lines = String.split_on_char '\n' text in
  check bool "TYPE comment for counter" true
    (List.mem "# TYPE kmm_engine_nodes counter" lines);
  check bool "counter value line" true (List.mem "kmm_engine_nodes 3" lines);
  check bool "untouched counters exported as 0" true
    (List.for_all
       (fun c ->
         let n = "kmm_" ^ String.map (fun ch -> if ch = '.' then '_' else ch) (C.name c) in
         List.mem (n ^ " 0") lines || n = "kmm_engine_nodes")
       C.all);
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
  Obs.record t2 H.map_read_hits 1;
  let text2 = Obs.to_prometheus ~prefix:"weird-prefix with spaces!" t2 in
  check bool "sanitized name" true
    (List.mem "weird_prefix_with_spaces__map_read_hits_count 1" (String.split_on_char '\n' text2))

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
  check bool "engine.nodes counted" true (Obs.counter_value obs "engine.nodes" > 0);
  check int "query.count counter" 1 (Obs.counter_value obs "query.count");
  check bool "one query_ns duration" true
    (Option.map Obs.Histogram.count (Obs.histogram obs "query_ns") = Some 1);
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
     (counters, the FM-index and verification taps included, and the
     map.read_hits histogram) are identical across jobs = 1 / 2 / 4. *)
  let idx = Lazy.force index in
  let text = Lazy.force genome in
  let reads = List.init 30 (fun i -> (i, String.sub text (i * 100) 25)) in
  let observe engine domains =
    let obs = Obs.create () in
    let _ = Mapper.run { Mapper.default with engine; domains; chunk_size = 3; obs } idx ~reads ~k:1 in
    List.iter
      (fun phase ->
        check bool (phase ^ " recorded once") true
          (Option.map Obs.Histogram.count (Obs.histogram obs phase) = Some 1))
      [ "map.prepare_ns"; "map.search_ns"; "map.merge_ns" ];
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
  Obs.set_taps true;
  Fun.protect
    ~finally:(fun () -> Obs.set_taps false)
    (fun () ->
      List.iter
        (fun engine ->
          let name = Kmismatch.engine_name engine in
          let c1, h1 = observe engine 1 in
          List.iter
            (fun d ->
              let cd, hd = observe engine d in
              check bool (Printf.sprintf "%s counters jobs=%d = jobs=1" name d) true (cd = c1);
              check bool
                (Printf.sprintf "%s map.read_hits jobs=%d = jobs=1" name d)
                true (Obs.Histogram.equal hd h1))
            [ 2; 4 ];
          List.iter
            (fun counter ->
              check bool (Printf.sprintf "%s %s flowed" name counter) true (List.assoc counter c1 > 0))
            [ "fm.rank_ops"; "verify.calls"; "verify.words" ])
        [ Kmismatch.M_tree; Kmismatch.Bidir ])

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
  let (), d =
    Test_util.tapped (fun () ->
        ignore (Fmindex.Fm_index.count fm "acgt");
        ignore (Fmindex.Fm_index.find_all fm "acgt"))
  in
  let v = Obs.counter_value d in
  check bool "rank ops counted" true (v "fm.rank_ops" > 0);
  check bool "blocks decoded" true (v "fm.block_decodes" > 0);
  check bool "locate walks counted" true (v "fm.locate_walks" > 0);
  check bool "walks have steps" true (v "fm.locate_steps" >= v "fm.locate_walks" - 4);
  (* disarmed: an installed sink stays silent *)
  let d = Obs.create () in
  Obs.with_ambient d (fun () -> ignore (Fmindex.Fm_index.count fm "acgt"));
  check int "no rank ops when disabled" 0 (Obs.counter_value d "fm.rank_ops")

(* A test engine: FM-index work, then a cut — by its deadline when it
   has one, by an exception otherwise. *)
type Kmismatch.engine += Cut_test

let () =
  Kmismatch.Engine_registry.register
    {
      Kmismatch.Engine_registry.engine = Cut_test;
      name = "cut-test";
      doc = "test double: FM work, then expires or raises";
      caps = { scales = false };
      prepare = ignore;
      run =
        (fun idx _ ->
          ignore (Fmindex.Fm_index.count (Kmismatch.fm_rev idx) "acgt");
          if Deadline.is_none (Deadline.ambient ()) then failwith "engine bug";
          while true do
            Deadline.check ()
          done;
          []);
    }

let test_ambient_survives_cut_queries () =
  let idx = Lazy.force index in
  let fm = Kmismatch.fm_rev idx in
  let count () = ignore (Fmindex.Fm_index.count fm "acgt") in
  let (), one = Test_util.tapped count in
  let cut_query ~why ~deadline expected =
    let cut = Obs.create () in
    let q = Kmismatch.Query.make ~obs:cut ~deadline ~engine:Cut_test ~pattern:"acgtacgt" ~k:1 () in
    let outcome = try `Returned (Kmismatch.try_run idx q) with Failure _ -> `Raised in
    (match (outcome, expected) with
    | `Returned (Error (Kmm_error.Timeout _)), `Timeout | `Raised, `Raise -> ()
    | _ -> Alcotest.fail (why ^ ": the query was not cut"));
    check int (why ^ ": the cut query kept its own taps")
      (Obs.counter_value one "fm.rank_ops")
      (Obs.counter_value cut "fm.rank_ops");
    let frozen = Obs.counters cut in
    count ();
    check bool (why ^ ": later work leaves the cut query's sink alone") true
      (Obs.counters cut = frozen)
  in
  let (), outer =
    Test_util.tapped (fun () ->
        cut_query ~why:"deadline" ~deadline:(Deadline.after 0.005) `Timeout;
        cut_query ~why:"engine exception" ~deadline:Deadline.none `Raise)
  in
  check int "later work lands in the previous ambient sink"
    (2 * Obs.counter_value one "fm.rank_ops")
    (Obs.counter_value outer "fm.rank_ops")

(* The rows of the DESIGN.md table under [header], split into trimmed
   cells: the lines after its separator up to the first that is not a
   table row. *)
let design_table ~header =
  let lines = In_channel.with_open_text "../DESIGN.md" In_channel.input_all |> String.split_on_char '\n' in
  let rec rows = function
    | l :: _ :: rest when l = header -> take_rows rest
    | _ :: rest -> rows rest
    | [] -> Alcotest.fail ("DESIGN.md has no table " ^ header)
  and take_rows = function
    | l :: rest when String.starts_with ~prefix:"|" l ->
        List.map String.trim (String.split_on_char '|' l) :: take_rows rest
    | _ -> []
  in
  rows lines

(* A DESIGN.md table lists exactly the declared metrics of its kind,
   each with its unit and doc. *)
let check_design_table ~header declared =
  let documented =
    List.filter_map
      (function
        | [ ""; name; unit; doc; "" ] when String.length name > 2 ->
            Some (String.sub name 1 (String.length name - 2), unit, doc)
        | _ -> None)
      (design_table ~header)
  in
  List.iter
    (fun ((name, _, _) as d) ->
      check bool (Printf.sprintf "%s: declared as documented" name) true (List.mem d declared))
    documented;
  List.iter
    (fun ((name, _, _) as d) ->
      check bool (Printf.sprintf "%s: documented as declared" name) true (List.mem d documented))
    declared

(* Every module DESIGN.md §2's inventory names in its Modules column has
   a source file in the repository.  A module is a backquoted name that
   starts with a capital, outside parentheses (those hold details such
   as [Occ.Reference] or the stdlib's [Atomic]); a dotted name counts
   as its first component. *)
let check_design_inventory () =
  let rec sources dir =
    Array.fold_left
      (fun acc e ->
        let path = Filename.concat dir e in
        if e.[0] = '.' || e.[0] = '_' then acc
        else if Sys.is_directory path then sources path @ acc
        else if Filename.check_suffix e ".ml" then e :: acc
        else acc)
      [] (Sys.readdir dir)
  in
  let files = sources ".." in
  let top_level cell =
    let b = Buffer.create (String.length cell) and depth = ref 0 in
    String.iter
      (function
        | '(' -> incr depth
        | ')' -> decr depth
        | c -> if !depth = 0 then Buffer.add_char b c)
      cell;
    Buffer.contents b
  in
  let is_ident_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let modules =
    List.concat_map
      (function
        | [ ""; _; _; cell; "" ] ->
            List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' (top_level cell))
            |> List.filter_map (fun code ->
                   match String.split_on_char '.' code with
                   | (m :: _) when m <> "" && m.[0] >= 'A' && m.[0] <= 'Z'
                                   && String.for_all is_ident_char m ->
                       Some m
                   | _ -> None)
        | _ -> [])
      (design_table ~header:"| Subsystem | Library | Modules |")
  in
  check bool "the inventory names modules" true (List.length modules > 10);
  List.iter
    (fun m ->
      check bool
        (Printf.sprintf "%s: has a source file" m)
        true
        (List.mem (String.uncapitalize_ascii m ^ ".ml") files))
    modules

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
          prop_reset_is_fresh;
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
          Alcotest.test_case "ambient sink survives cut queries" `Quick
            test_ambient_survives_cut_queries;
          Alcotest.test_case "DESIGN.md counter table = declarations" `Quick
            (fun () ->
              check_design_table ~header:"| counter | unit | doc |"
                (List.map (fun c -> (C.name c, C.unit c, C.doc c)) C.all));
          Alcotest.test_case "DESIGN.md histogram table = declarations" `Quick
            (fun () ->
              check_design_table ~header:"| histogram | unit | doc |"
                (List.map (fun h -> (H.name h, H.unit h, H.doc h)) H.all));
          Alcotest.test_case "DESIGN.md inventory modules have sources" `Quick
            check_design_inventory;
        ] );
    ]
