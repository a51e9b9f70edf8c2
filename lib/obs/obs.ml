(* Zero-dependency observability: monotonic timers, log-bucketed mergeable
   histograms, declared counters and histograms, Chrome-trace and
   Prometheus exporters.  See obs.mli for the contracts; DESIGN.md
   documents the metric schema shared by the engines, the mapper, the
   work pool and the CLI. *)

module Clock = struct
  external now_ns : unit -> int = "kmm_obs_now_ns" [@@noalloc]
end

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

module Histogram = struct
  (* HDR-style log-linear buckets, base 2, [precision] = 5 bits: values
     below [2 * sub_count] land in exact unit buckets; above, each
     power-of-two octave is split into [sub_count] equal sub-buckets, so
     the bucket holding a value v is never wider than v / 32 (3.125%
     relative error).  The bucket array is a plain int array, so [merge]
     is element-wise addition — exactly the multiset union, bit for bit,
     regardless of how the recordings were sharded. *)

  let precision = 5
  let sub_count = 1 lsl precision (* 32 *)

  (* Highest octave: OCaml ints are 63-bit, msb <= 62. *)
  let nbuckets = ((62 - precision + 2) * sub_count) (* 1888 *)

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : int;
    mutable vmin : int; (* exact; max_int when empty *)
    mutable vmax : int; (* exact; -1 when empty *)
  }

  let create () =
    { counts = Array.make nbuckets 0; total = 0; sum = 0; vmin = max_int; vmax = -1 }

  (* Position of the highest set bit of [v >= 1] (0-based). *)
  let msb v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (r := !r + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then incr r;
    !r

  let bucket_of v =
    if v < 2 * sub_count then v
    else begin
      let e = msb v in
      let shift = e - precision in
      ((shift + 1) * sub_count) + ((v lsr shift) - sub_count)
    end

  (* Inclusive [low, high] value range of bucket [idx] — the exact
     inverse of [bucket_of]. *)
  let bucket_bounds idx =
    if idx < 2 * sub_count then (idx, idx)
    else begin
      let octave = idx / sub_count in
      let sub = idx mod sub_count in
      let shift = octave - 1 in
      let low = (sub_count + sub) lsl shift in
      (low, low + (1 lsl shift) - 1)
    end

  let record t v =
    let v = if v < 0 then 0 else v in
    let idx = bucket_of v in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.total
  let sum t = t.sum
  let min_value t = if t.total = 0 then 0 else t.vmin
  let max_value t = if t.total = 0 then 0 else t.vmax

  let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

  let quantile t q =
    if t.total = 0 then 0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      (* The q-quantile is the value of the ceil(q * total)-th recording
         (1-based) in sorted order; we answer with the upper bound of the
         bucket that holds it. *)
      let rank = int_of_float (ceil (q *. float_of_int t.total)) in
      let rank = if rank < 1 then 1 else rank in
      let acc = ref 0 and idx = ref 0 in
      while !acc < rank && !idx < nbuckets do
        acc := !acc + t.counts.(!idx);
        incr idx
      done;
      let hi = snd (bucket_bounds (!idx - 1)) in
      (* Never overshoot the exact maximum (the last bucket may extend
         beyond every recorded value). *)
      if hi > t.vmax then t.vmax else hi
    end

  (* Every non-empty bucket lies between those of [vmin] and [vmax], so
     [merge] and [clear] walk only that range: a histogram holding one
     value costs one bucket, not 1888. *)
  let merge ~into src =
    if src.total > 0 then begin
      for i = bucket_of src.vmin to bucket_of src.vmax do
        into.counts.(i) <- into.counts.(i) + src.counts.(i)
      done;
      into.total <- into.total + src.total;
      into.sum <- into.sum + src.sum;
      if src.vmin < into.vmin then into.vmin <- src.vmin;
      if src.vmax > into.vmax then into.vmax <- src.vmax
    end

  let clear t =
    if t.total > 0 then begin
      let lo = bucket_of t.vmin in
      Array.fill t.counts lo (bucket_of t.vmax - lo + 1) 0;
      t.total <- 0;
      t.sum <- 0;
      t.vmin <- max_int;
      t.vmax <- -1
    end

  let copy t =
    {
      counts = Array.copy t.counts;
      total = t.total;
      sum = t.sum;
      vmin = t.vmin;
      vmax = t.vmax;
    }

  let equal a b =
    a.total = b.total && a.sum = b.sum
    && (a.total = 0 || (a.vmin = b.vmin && a.vmax = b.vmax))
    && a.counts = b.counts

  let fold_buckets f acc t =
    let acc = ref acc in
    for i = 0 to nbuckets - 1 do
      if t.counts.(i) > 0 then begin
        let low, high = bucket_bounds i in
        acc := f !acc ~low ~high ~count:t.counts.(i)
      end
    done;
    !acc

  let buckets t =
    List.rev
      (fold_buckets (fun acc ~low ~high ~count -> (low, high, count) :: acc) [] t)
end

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

module Counter = struct
  (* A counter is its slot in an active sink's array.  Every counter is
     declared here, once: the exporters list exactly this set, and
     DESIGN.md's counter table is checked against it. *)
  type t = int

  let declared = ref [] (* (name, unit, doc), newest first *)

  let declare name unit doc =
    let c = List.length !declared in
    declared := (name, unit, doc) :: !declared;
    c

  (* Engine work: each engine adds its search's totals when it returns. *)
  let engine_nodes = declare "engine.nodes" "nodes" "search and mismatching-tree nodes created"
  let engine_leaves = declare "engine.leaves" "leaves" "paths terminated during exploration"
  let engine_rank_calls = declare "engine.rank_calls" "calls"
    "extension steps, two per extended node however they are served (fm.* counts the kernel work)"
  let engine_derivations = declare "engine.derivations" "subtrees" "subtrees derived instead of explored"
  let engine_derived_leaves = declare "engine.derived_leaves" "leaves" "path terminations inside derivations"
  let engine_resumes = declare "engine.resumes" "searches" "real searches resumed inside derivations"

  (* Taps in [Fm_index]. *)
  let fm_rank_ops = declare "fm.rank_ops" "ops" "rank primitives: one per extend, backward-search step or LF step"
  let fm_block_decodes = declare "fm.block_decodes" "blocks" "interleaved Occ blocks decoded"
  let fm_locate_walks = declare "fm.locate_walks" "walks" "rows located (LF walks started)"
  let fm_locate_steps = declare "fm.locate_steps" "steps" "LF steps across those walks"

  (* Taps in [Packed_text]. *)
  let verify_calls = declare "verify.calls" "calls" "word-parallel Hamming kernel calls"
  let verify_words = declare "verify.words" "words" "28-lane words compared by those calls"
  let verify_early_exits = declare "verify.early_exits" "calls" "kernel calls stopped before the last word"

  let bidir_extends = declare "bidir.extends" "extends" "bidirectional interval extensions by Oss"
  let bidir_verifications = declare "bidir.verifications" "candidates" "candidates Oss verified against the text"
  let bidir_searches = declare "bidir.searches" "searches" "search-scheme searches Oss ran"
  let query_count = declare "query.count" "queries" "queries answered by Kmismatch"
  let query_hits = declare "query.hits" "hits" "hits those queries returned"
  let pool_tasks = declare "pool.tasks" "tasks" "tasks a worker pulled (Work_pool or a serve worker)"
  let map_reads = declare "map.reads" "reads" "reads the mapper searched"
  let map_reads_skipped = declare "map.reads_skipped" "reads" "reads skipped with a typed reason"
  let map_reads_failed = declare "map.reads_failed" "reads" "reads whose engine raised"
  let serve_requests = declare "serve.requests" "frames" "well-formed request frames"
  let serve_rejected = declare "serve.rejected" "frames" "frames rejected before admission"
  let serve_shed = declare "serve.shed" "queries" "queries refused at admission (queue full or draining)"
  let serve_queries = declare "serve.queries" "queries" "queries answered, on a worker or on the loop"
  let serve_hits = declare "serve.hits" "hits" "hits found for those queries"
  let serve_truncated = declare "serve.truncated" "queries" "replies cut to max_hits"
  let serve_timeouts = declare "serve.timeouts" "queries" "queries answered Timeout"
  let serve_errors = declare "serve.errors" "queries" "queries answered with another error"
  let serve_inline = declare "serve.inline" "queries" "queries the event loop answered itself"
  let serve_inline_cut = declare "serve.inline_cut" "queries" "lone queries the loop cut for other work and handed to the pool"
  let serve_connections = declare "serve.connections" "connections" "connections accepted"
  let serve_conns_refused = declare "serve.conns_refused" "connections" "connections refused (descriptor beyond the select limit)"
  let serve_accept_errors = declare "serve.accept_errors" "errors" "accept failures that paused the listener"
  let serve_disconnects = declare "serve.disconnects" "connections" "connections closed, for any reason"
  let serve_conns_dropped = declare "serve.conns_dropped" "connections" "connections lost by the peer"
  let serve_conns_failed = declare "serve.conns_failed" "connections" "connections closed after an unexpected exception"
  let serve_conns_stalled = declare "serve.conns_stalled" "connections" "connections closed for not reading their replies"
  let serve_io_wakeups = declare "serve.io_wakeups" "wakeups" "event-loop rounds"
  let serve_io_busy_ns = declare "serve.io_busy_ns" "ns" "event-loop time spent outside select and polls"
  let serve_poll_ns = declare "serve.poll_ns" "ns" "event-loop time spent polling after replies"
  let serve_poll_hits = declare "serve.poll_hits" "polls" "polls that ended on a ready descriptor before the window ran out"
  let trace_dropped = declare "obs.trace_dropped" "events" "trace events dropped beyond the buffer cap"

  let specs = Array.of_list (List.rev !declared)
  let count = Array.length specs
  let all = List.init count Fun.id
  let name c = let n, _, _ = specs.(c) in n
  let unit c = let _, u, _ = specs.(c) in u
  let doc c = let _, _, d = specs.(c) in d
  let by_name = List.sort (fun a b -> String.compare (name a) (name b)) all
  let of_name n = List.find_opt (fun c -> name c = n) all
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)

module Hist = struct
  (* A histogram is its slot in an active sink's array, declared here
     once like the counters: DESIGN.md's histogram table is checked
     against this list.  [span] names the trace event {!time} emits for
     the scope on a tracing sink. *)
  type t = int

  type spec = { name : string; unit : string; doc : string; span : string option }

  let declared = ref [] (* newest first *)

  let declare ?span name unit doc =
    let h = List.length !declared in
    declared := { name; unit; doc; span } :: !declared;
    h

  let query_ns = declare ~span:"query" "query_ns" "ns" "one Kmismatch query, validation excluded"
  let mtree_delta_ns = declare ~span:"mtree.delta" "mtree.delta_ns" "ns" "the delta heuristic of one m-tree or s-tree search"
  let mtree_explore_ns = declare ~span:"mtree.explore" "mtree.explore_ns" "ns" "the exploration of one m-tree or s-tree search"
  let mtree_derive_ns = declare "mtree.derive_ns" "ns" "one subtree derivation"
  let bidir_explore_ns = declare ~span:"bidir.explore" "bidir.explore_ns" "ns" "the search-scheme searches of one Oss search"
  let pool_queue_wait_ns = declare "pool.queue_wait_ns" "ns" "a task's wait until a worker (or the serve loop) started it"
  let pool_task_ns = declare "pool.task_ns" "ns" "one task a worker (or the serve loop) ran"
  let map_read_ns = declare "map.read_ns" "ns" "one read mapped, both strands"
  let map_read_hits = declare "map.read_hits" "hits" "hits of one mapped read"
  let map_prepare_ns = declare "map.prepare_ns" "ns" "a batch's prepare phase"
  let map_search_ns = declare "map.search_ns" "ns" "a batch's search phase"
  let map_merge_ns = declare "map.merge_ns" "ns" "a batch's merge phase"
  let serve_request_ns = declare "serve.request_ns" "ns" "admission to the reply handed to the write"
  let serve_batch_size = declare "serve.batch_size" "queries" "queries per hand-off to a worker or the serve loop"

  let specs = Array.of_list (List.rev !declared)
  let count = Array.length specs
  let all = List.init count Fun.id
  let name h = specs.(h).name
  let unit h = specs.(h).unit
  let doc h = specs.(h).doc
  let span h = specs.(h).span
  let by_name = List.sort (fun a b -> String.compare (name a) (name b)) all
  let of_name n = List.find_opt (fun h -> name h = n) all
end

(* ------------------------------------------------------------------ *)
(* Sink                                                                 *)

type event = {
  ev_name : string;
  ev_tid : int;
  ev_ts : int; (* monotonic ns *)
  ev_dur : int; (* ns *)
  ev_args : (string * string) list;
}

type state = {
  counts : int array; (* indexed by [Counter.t] *)
  hists : Histogram.t option array; (* indexed by [Hist.t]; allocated on first record *)
  trace : bool;
  mutable events : event list; (* newest first *)
  mutable nevents : int;
}

type t = Noop | Active of state

let max_trace_events = 1_000_000

let noop = Noop

let create ?(trace = false) () =
  Active
    {
      counts = Array.make Counter.count 0;
      hists = Array.make Hist.count None;
      trace;
      events = [];
      nevents = 0;
    }

let enabled = function Noop -> false | Active _ -> true
let tracing = function Noop -> false | Active s -> s.trace
let fork = function Noop -> Noop | Active s -> create ~trace:s.trace ()

(* --- counters ------------------------------------------------------- *)

let bump s c n = s.counts.(c) <- s.counts.(c) + n

let add t c n = match t with Noop -> () | Active s -> bump s c n
let incr t c = add t c 1

let counter_value t name =
  match (t, Counter.of_name name) with
  | Active s, Some c -> s.counts.(c)
  | _ -> 0

let counters t =
  match t with
  | Noop -> []
  | Active s -> List.map (fun c -> (Counter.name c, s.counts.(c))) Counter.by_name

(* --- taps ------------------------------------------------------------ *)

(* Layers with no sink in scope ([Fm_index], [Packed_text]) count into
   the calling domain's ambient sink, and only while the process-wide
   switch is armed: disarmed, a tap is one atomic load and a branch. *)
let taps = Atomic.make false
let set_taps b = Atomic.set taps b

let ambient = Domain.DLS.new_key (fun () -> Noop)

let with_ambient t f =
  let prev = Domain.DLS.get ambient in
  if prev == t then f ()
  else begin
    Domain.DLS.set ambient t;
    Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f
  end

let tap c n = if Atomic.get taps then add (Domain.DLS.get ambient) c n

(* --- histograms ----------------------------------------------------- *)

let hist_cell s h =
  match s.hists.(h) with
  | Some x -> x
  | None ->
      let x = Histogram.create () in
      s.hists.(h) <- Some x;
      x

let record t h v =
  match t with Noop -> () | Active s -> Histogram.record (hist_cell s h) v

let histogram t name =
  match (t, Hist.of_name name) with
  | Active s, Some h -> s.hists.(h)
  | _ -> None

let histograms t =
  match t with
  | Noop -> []
  | Active s ->
      List.filter_map
        (fun h -> Option.map (fun x -> (Hist.name h, x)) s.hists.(h))
        Hist.by_name

(* --- spans ----------------------------------------------------------- *)

let push_event s ev =
  if s.nevents < max_trace_events then begin
    s.events <- ev :: s.events;
    s.nevents <- s.nevents + 1
  end
  else bump s Counter.trace_dropped 1

let emit s name args t0 t1 =
  push_event s
    { ev_name = name; ev_tid = (Domain.self () :> int); ev_ts = t0; ev_dur = t1 - t0; ev_args = args }

let time ?(args = []) t h f =
  match t with
  | Noop -> f ()
  | Active s ->
      let t0 = Clock.now_ns () in
      Fun.protect f ~finally:(fun () ->
          let t1 = Clock.now_ns () in
          Histogram.record (hist_cell s h) (t1 - t0);
          if s.trace then Option.iter (fun name -> emit s name args t0 t1) (Hist.span h))

let span ?(args = []) t name f =
  match t with
  | Active s when s.trace ->
      let t0 = Clock.now_ns () in
      Fun.protect f ~finally:(fun () -> emit s name args t0 (Clock.now_ns ()))
  | _ -> f ()

(* --- merge ----------------------------------------------------------- *)

let merge ~into src =
  match (into, src) with
  | Noop, _ | _, Noop -> ()
  | Active dst, Active s ->
      Array.iteri (fun c n -> bump dst c n) s.counts;
      Array.iteri
        (fun h ->
          Option.iter (fun x ->
              if Histogram.count x > 0 then Histogram.merge ~into:(hist_cell dst h) x))
        s.hists;
      if dst.trace then
        (* Newest-first lists concatenate src after dst; the exporter
           sorts by timestamp, so ordering here is immaterial. *)
        List.iter (fun ev -> push_event dst ev) s.events

let reset = function
  | Noop -> ()
  | Active s ->
      Array.fill s.counts 0 Counter.count 0;
      Array.iter (Option.iter Histogram.clear) s.hists;
      s.events <- [];
      s.nevents <- 0

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_trace ?(process_name = "kmm") t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
        \"args\":{\"name\":\"%s\"}}"
       (json_escape process_name));
  (match t with
  | Noop -> ()
  | Active s ->
      let events =
        List.sort (fun a b -> compare (a.ev_ts, a.ev_dur) (b.ev_ts, b.ev_dur))
          s.events
      in
      (* Rebase timestamps so traces start near 0 regardless of uptime. *)
      let t0 = match events with [] -> 0 | e :: _ -> e.ev_ts in
      let args_json args =
        if args = [] then ""
        else
          Printf.sprintf ",\"args\":{%s}"
            (String.concat ","
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
                  args))
      in
      List.iter
        (fun ev ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"kmm\",\"ph\":\"X\",\"ts\":%.3f,\
                \"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
               (json_escape ev.ev_name)
               (float_of_int (ev.ev_ts - t0) /. 1e3)
               (float_of_int ev.ev_dur /. 1e3)
               ev.ev_tid (args_json ev.ev_args)))
        events);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* Prometheus metric names admit [a-zA-Z0-9_:] only; dots and dashes in
   our internal names become underscores. *)
let prom_name prefix name =
  let b = Bytes.of_string (prefix ^ "_" ^ name) in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  Bytes.to_string b

let to_prometheus ?(prefix = "kmm") t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = prom_name prefix name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters t);
  List.iter
    (fun (name, h) ->
      let n = prom_name prefix name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (_, high, count) ->
          cum := !cum + count;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n high !cum))
        (Histogram.buckets h);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h));
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n (Histogram.sum h));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Histogram.count h)))
    (histograms t);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_chrome_trace ?process_name t path =
  write_file path (to_chrome_trace ?process_name t)

let write_prometheus ?prefix t path = write_file path (to_prometheus ?prefix t)
