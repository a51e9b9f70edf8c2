(** Batch read mapping on top of the k-mismatch engines — the paper's
    end-to-end workload (locate every read of a sequencing run in the
    genome, both strands, despite up to [k] mismatches). *)

type hit = {
  read_id : int;
  pos : int;  (** 0-based start on the forward strand *)
  strand : [ `Forward | `Reverse ];
      (** strand of the read that produced the hit *)
  distance : int;
}

type summary = {
  total : int;
  mapped : int;  (** reads with at least one hit *)
  unique : int;  (** reads with exactly one hit *)
  ambiguous : int;  (** reads with several hits *)
  skipped : (int * Kmm_error.t) list;
      (** reads the batch could not process — [(read id, reason)] in
          batch order.  A fault in one read (non-ACGT base, empty or
          oversize sequence, or an engine exception) lands here instead
          of aborting the whole batch; the surviving reads' hits are
          unaffected. *)
}

val deterministic_summary : summary -> summary
(** The identity: every field of a summary is identical across all
    [domains]/[chunk_size] combinations. *)

val default_chunk_size : int
(** Reads per pool task when sharding a batch (currently 16): small
    enough to load-balance engines whose per-read cost varies, large
    enough to amortize queue traffic. *)

(** {1 Options and the primary entry point} *)

type options = {
  engine : Kmismatch.engine;  (** search engine; {!Kmismatch.default_engine} in {!default} *)
  both_strands : bool;
      (** also search the reverse complement (default true) *)
  domains : int;
      (** domains the batch fans out over; 1 = sequential (default) *)
  chunk_size : int;  (** reads per pool task *)
  obs : Obs.t;
      (** observability sink; {!Obs.noop} (the default) disables all
          recording at the cost of one branch per read *)
  deadline : Deadline.t;
      (** compute budget for the whole batch ({!Deadline.none}, the
          default, runs to completion).  Once it expires the batch
          drains fast instead of aborting: every read not yet started
          is skipped with a typed [Timeout] by the worker's per-read
          check and counted in [map.reads_skipped], reads in flight are
          cut at the engines' next cooperative poll and skipped likewise,
          and everything finished before expiry keeps its hits — the
          summary stays fail-soft, it just attributes the unfinished
          tail to the deadline.  Which reads land on each side of the
          cut depends on timing, so a deadline forfeits the seq≡par
          byte-identity guarantee (only {!Deadline.none} keeps it). *)
}

val default : options
(** [{ engine = Kmismatch.default_engine; both_strands = true;
    domains = 1; chunk_size = default_chunk_size; obs = Obs.noop;
    deadline = Deadline.none }] —
    override fields with [{ default with ... }]. *)

val run :
  options ->
  Kmismatch.index ->
  reads:(int * string) list ->
  k:int ->
  hit list * summary
(** Map every [(id, sequence)] read; with [both_strands] the reverse
    complement is searched too and hits are reported on the forward
    coordinate system.  Hits are sorted by read id, then position.
    Before the fan-out the engine's registry [prepare] forces the
    derived state it reads (suffix tree, unpacked text, prefix table),
    so the [map.prepare_ns] phase carries that cost on every domain count.

    {b Re-check:} every engine hit [(pos, d)] of an [m] bp read is
    re-checked with the word-parallel kernel
    ({!Fmindex.Packed_text.hamming}) as window [n - pos - m] of the
    index's own packed payload (the reversed text) against the reversed
    read.  A refuted hit skips its read with a typed [Internal] error.

    [domains] fans the batch out over that many OCaml domains
    ({!Work_pool.run}) in [chunk_size]-read chunks.  The FM-index is
    immutable, so workers share it without copying.  {b Determinism guarantee:} hits
    and the summary are byte-identical for every
    [domains]/[chunk_size] combination — each read's hits land in a slot
    indexed by read position and the merge never depends on scheduling;
    [domains = 1] {e is} the sequential path (no helper domain is woken).

    {b Observability:} when [obs] is active, every worker records into
    its own {!Obs.fork} of the sink, merged back in worker-index order
    after the fan-out finishes.  Per read: a [map.read_ns] latency histogram
    entry, a [map.read_hits] histogram entry (hit multiplicity — a
    function of the input alone, so it merges bit-for-bit across any
    domain count, as do the [map.reads]/[map.reads_skipped]/
    [map.reads_failed] and [engine.*]/[fm.*] counters), plus the
    {!Work_pool} [pool.*] metrics and whole-batch [map.prepare_ns]/
    [map.search_ns]/[map.merge_ns] phase histograms.  The sink is where
    a batch's engine counts live: the summary carries none, and with
    {!Obs.noop} nothing is counted.

    {b Fail-soft:} a read the engines cannot process is recorded in
    [summary.skipped] with a typed reason and costs nothing but itself —
    the batch never aborts, the per-read slots of the surviving reads
    are byte-identical to a run without the bad read, and the skipped
    list itself is deterministic across every [domains]/[chunk_size]
    combination.
    @raise Invalid_argument if [domains < 1] or [chunk_size < 1]. *)

val best_hits : hit list -> hit list
(** Keep only minimal-distance hits per read (ties all kept). *)

val to_tsv : hit list -> string
(** One [read_id <tab> pos <tab> strand <tab> distance] line per hit. *)
