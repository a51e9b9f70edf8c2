(** Zero-dependency observability: monotonic timers, log-bucketed
    mergeable histograms, declared counters and histograms, and two
    exporters (Chrome trace events for [about://tracing]/Perfetto, and a
    Prometheus-style text exposition).

    {2 Sinks}

    Everything is recorded into a {e sink} ({!t}).  A sink is either
    {!noop} — a flat constant on which every operation is a single
    pattern match returning immediately, so fully-instrumented code with
    observability disabled stays within a <2% overhead budget (measured
    in EXPERIMENTS.md) — or an {e active} sink created by {!create},
    holding one slot per declared {!Counter} and {!Hist} (a histogram
    is allocated on its first record), and (optionally) a trace buffer.

    Sinks are single-domain: each worker owns its own ({!fork}), and the
    owner {!merge}s them after the domains join — or, for workers that
    live on, under a lock the worker holds while it records.

    {2 Merge semantics}

    [merge] adds counters, adds histogram buckets, and concatenates
    trace events.  Counters and histograms are sums over per-record
    increments, so merging per-domain sinks yields {e bit-for-bit} the
    counters and histograms a sequential run recording the same values
    would have produced,
    regardless of sharding or scheduling.  (Wall-clock {e values} — the
    [_ns] durations — naturally differ between runs; the determinism claim is
    about the merge, and about metrics derived from deterministic
    quantities.) *)

(** The monotonic clock behind every duration ([CLOCK_MONOTONIC]; immune
    to NTP steps of the wall clock). *)
module Clock : sig
  val now_ns : unit -> int
  (** Nanoseconds from an arbitrary fixed origin; never decreases.
      Allocation-free. *)
end

(** Log-bucketed (HDR-style) histograms of non-negative integers with
    exact merge semantics.

    Buckets are log-linear in base 2 with 5 bits of precision: values
    below 64 are held in exact unit buckets; above, every power-of-two
    octave is split into 32 equal sub-buckets, so no bucket is wider
    than 1/32 of its values (3.125% maximum relative quantile error).
    {!merge} is element-wise bucket addition — the multiset union,
    bit for bit. *)
module Histogram : sig
  type t

  val create : unit -> t
  (** An empty histogram (fixed bucket geometry, ~15 KB). *)

  val record : t -> int -> unit
  (** Record one value.  Negative values clamp to 0. *)

  val count : t -> int
  (** Number of recorded values. *)

  val sum : t -> int
  (** Exact sum of recorded values. *)

  val min_value : t -> int
  (** Exact minimum recorded value; 0 when empty. *)

  val max_value : t -> int
  (** Exact maximum recorded value; 0 when empty. *)

  val mean : t -> float
  (** [sum / count]; 0.0 when empty. *)

  val quantile : t -> float -> int
  (** [quantile t q] (with [q] clamped into [0, 1]) returns an upper
      bound of the value at rank [ceil (q * count)]: exact for values
      below 64, within 3.125% above, and never beyond {!max_value}.
      0 when empty. *)

  val merge : into:t -> t -> unit
  (** Element-wise bucket addition; also sums [count]/[sum] and tightens
      min/max.  Merging shards equals recording sequentially.  It walks
      only the buckets between the source's minimum and maximum, so
      merging a histogram of few, close values is cheap. *)

  val copy : t -> t
  (** An independent copy. *)

  val equal : t -> t -> bool
  (** Structural equality of contents (buckets, count, sum, min, max) —
      the bit-for-bit check the sharded-merge tests rely on. *)

  val buckets : t -> (int * int * int) list
  (** Non-empty buckets in ascending value order, as
      [(low, high_inclusive, count)] — the exporter's view. *)
end

(** The counter schema: every counter any layer bumps, declared once
    with its name, unit and doc.  Names are dot-separated; a name no
    declaration carries cannot be counted. *)
module Counter : sig
  type t

  val engine_nodes : t
  val engine_leaves : t
  val engine_rank_calls : t
  val engine_derivations : t
  val engine_derived_leaves : t
  val engine_resumes : t
  val fm_rank_ops : t
  val fm_block_decodes : t
  val fm_locate_walks : t
  val fm_locate_steps : t
  val verify_calls : t
  val verify_words : t
  val verify_early_exits : t
  val bidir_extends : t
  val bidir_verifications : t
  val bidir_searches : t
  val query_count : t
  val query_hits : t
  val pool_tasks : t
  val map_reads : t
  val map_reads_skipped : t
  val map_reads_failed : t
  val serve_requests : t
  val serve_rejected : t
  val serve_shed : t
  val serve_queries : t
  val serve_hits : t
  val serve_truncated : t
  val serve_timeouts : t
  val serve_errors : t
  val serve_inline : t
  val serve_inline_cut : t
  val serve_connections : t
  val serve_conns_refused : t
  val serve_accept_errors : t
  val serve_disconnects : t
  val serve_conns_dropped : t
  val serve_conns_failed : t
  val serve_conns_stalled : t
  val serve_io_wakeups : t
  val serve_io_busy_ns : t

  val all : t list
  (** Every counter, in declaration order ([obs.trace_dropped], which
      only {!Obs} itself bumps, included). *)

  val name : t -> string
  (** The exported name, e.g. ["fm.rank_ops"]. *)

  val unit : t -> string
  val doc : t -> string
end

(** The histogram schema: every histogram any layer records, declared
    once with its name, unit and doc, like {!Counter}.  A name ending in
    [_ns] holds monotonic durations. *)
module Hist : sig
  type t

  val query_ns : t
  val mtree_delta_ns : t
  val mtree_explore_ns : t
  val mtree_derive_ns : t
  val bidir_explore_ns : t
  val pool_queue_wait_ns : t
  val pool_task_ns : t
  val map_read_ns : t
  val map_read_hits : t
  val map_prepare_ns : t
  val map_search_ns : t
  val map_merge_ns : t
  val serve_request_ns : t
  val serve_batch_size : t

  val all : t list
  (** Every histogram, in declaration order. *)

  val name : t -> string
  val unit : t -> string
  val doc : t -> string

  val span : t -> string option
  (** The span {!time} emits on a tracing sink (["query"] for
      {!query_ns}); [None] for a scope too frequent to trace. *)
end

type t
(** A sink: {!noop} or an active recorder.  Not thread-safe; use one
    sink per domain and {!merge}. *)

val noop : t
(** The disabled sink.  Every operation on it is a constant-time
    pattern match; [span noop name f] is [f ()]. *)

val create : ?trace:bool -> unit -> t
(** A fresh active sink.  With [trace] (default [false]) spans are also
    buffered as Chrome trace events (capped at one million; overflow
    increments the [obs.trace_dropped] counter). *)

val enabled : t -> bool
(** [false] exactly for {!noop} — the guard for any instrumentation
    whose cost is more than a counter bump. *)

val tracing : t -> bool
(** Whether the sink buffers trace events. *)

val fork : t -> t
(** A fresh sink of the same kind ({!noop} forks to {!noop}, active to
    an empty active sink with the same [trace] flag) — one per worker
    domain, {!merge}d back after the join.

    A sink is meant to live per worker, not per request or per batch:
    each histogram it records into is 1888 buckets (about 15 KB),
    allocated on the first record, and a merge walks every bucket.  On
    the serve-short benchmark (2-vCPU host), a query daemon that forked
    a fresh sink per query served 5.0–6.1k queries/s (7 runs), against
    35.8–37.7k with one long-lived sink per worker domain. *)

(** {1 Counters} *)

val incr : t -> Counter.t -> unit
(** Add 1 to the counter. *)

val add : t -> Counter.t -> int -> unit
(** [add t c n] adds [n] to the counter. *)

val counter_value : t -> string -> int
(** The value of the counter with this {!Counter.name}; 0 for a name
    no counter carries (always 0 on {!noop}). *)

val counters : t -> (string * int) list
(** Every declared counter with its value, zeros included, sorted by
    name (deterministic export order); [[]] on {!noop}. *)

(** {1 Taps}

    Counting for code with no sink in scope (the FM-index, the
    verification kernel): {!tap} adds into the sink its domain's caller
    installed with {!with_ambient}, so that sink gets exactly the taps
    its own domain made meanwhile. *)

val set_taps : bool -> unit
(** Arm or disarm every {!tap} in the process (default: disarmed, where
    a tap is one atomic load and a branch). *)

val taps : bool Atomic.t
(** The switch {!set_taps} sets.  Hot paths read it with [Atomic.get],
    which compiles inline where a call into this module may not, and
    tap only while it is [true]. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient t f] runs [f] with [t] as the calling domain's
    ambient sink ({!noop} by default) and restores the previous one when
    [f] returns or raises. *)

val tap : Counter.t -> int -> unit
(** [tap c n] adds [n] to [c] in the ambient sink if the taps are armed. *)

(** {1 Histograms} *)

val record : t -> Hist.t -> int -> unit
(** Record a value into the histogram. *)

val time : ?args:(string * string) list -> t -> Hist.t -> (unit -> 'a) -> 'a
(** [time t h f] runs [f] and records its monotonic duration into [h],
    even if [f] raises.  When {!tracing} and [h] declares a
    {!Hist.span}, it also buffers a Chrome complete event of that name
    with the current domain as [tid] and [args] as its argument map.
    On {!noop} this is exactly [f ()]. *)

val histogram : t -> string -> Histogram.t option
(** The histogram with this {!Hist.name}, if anything was recorded into
    it ([None] on {!noop}). *)

val histograms : t -> (string * Histogram.t) list
(** Every histogram recorded into, sorted by name. *)

(** {1 Spans} *)

val span : ?args:(string * string) list -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and, when {!tracing}, buffers a Chrome
    complete event named [name] (with [args]) for it, even if [f]
    raises; it records no histogram.  On a sink that does not trace
    this is exactly [f ()]. *)

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Add every counter and histogram of the source into the destination
    and append its trace events (subject to the destination's cap).
    No-op if either side is {!noop}.  See the module preamble for the
    exactness contract. *)

val reset : t -> unit
(** Zero every counter and histogram of the sink and drop its buffered
    trace events, keeping the histograms it allocated (empty): what a
    long-lived scratch sink needs between uses, so that recording into
    it, {!merge}-ing the result and resetting it allocates nothing.
    [merge] skips empty histograms, so a reset sink merges like a fresh
    one.  A no-op on {!noop}. *)

(** {1 Exporters} *)

val to_chrome_trace : ?process_name:string -> t -> string
(** The buffered trace as Chrome trace-event JSON: a top-level array,
    one event object per line, loadable in [about://tracing] and
    Perfetto.  Timestamps are rebased to the earliest event and
    expressed in microseconds.  Always valid JSON, even for {!noop} or
    an empty sink. *)

val to_prometheus : ?prefix:string -> t -> string
(** Every declared counter (zeros included) and every histogram recorded
    into, in the Prometheus text exposition format
    (version 0.0.4): [# TYPE] comments, [<prefix>_<name>] with
    non-metric characters mapped to [_], histogram [_bucket{le="..."}]
    cumulative series plus [_sum] and [_count].  Output order is sorted
    by name, so deterministic metrics produce byte-identical
    expositions.  [prefix] defaults to ["kmm"]. *)

val write_chrome_trace : ?process_name:string -> t -> string -> unit
(** [write_chrome_trace t path] writes {!to_chrome_trace} to [path]. *)

val write_prometheus : ?prefix:string -> t -> string -> unit
(** [write_prometheus t path] writes {!to_prometheus} to [path]. *)
