(** Unified front door for string matching with k mismatches.

    An {!index} is built once per target and shared by all engines; each
    engine then answers queries [(pattern, k)] with the full list of
    [(position, distance)] occurrences.  All engines return identical
    results — they differ only in cost:

    - [M_tree]: the paper's Algorithm A, O(kn' + n + m log m);
    - [S_tree]: the BWT baseline of ref. [34] with the delta heuristic;
    - [S_tree_no_delta]: the same baseline without it (the paper's
      plain BWT method).  Both run Algorithm A's explorer with nothing
      stored, so nothing is derived ({!M_tree.config}'s [store_width]
      at [max_int]);
    - [Cole]: suffix-tree brute force (ref. [14]);
    - [Amir]: online mark-and-verify (ref. [2]);
    - [Naive]: online O(mn) scanning;
    - [Bidir]: bidirectional FM-index executing optimum search schemes
      (Kianfar & Pockrandt; see {!Oss}) — the state of the art at
      [k >= 2]. *)

type engine = ..
(** An engine is an open enumeration: the built-in constructors below
    ship with the library, and any module can add one with
    [type Kmismatch.engine += Mine] plus a single
    {!Engine_registry.register} call — that one registration makes the
    new engine reachable from {!engine_of_string}, the [kmm --engine]
    help text, the fuzz oracle's subject list and every dispatch site.
    An engine value that was never registered is rejected by {!try_run}
    as [Bad_input]. *)

type engine +=
  | M_tree
  | S_tree
  | S_tree_no_delta
  | Cole
  | Amir
  | Naive
  | Bidir
      (** The built-in engines, pre-registered in declaration order. *)

val default_engine : engine
(** The engine used when none is named: [Bidir].  [kmm]'s [--engine],
    {!Mapper.default}, a daemon query frame without an [engine] field
    and the engine a daemon prepares at start all take it. *)

type index

(** {1 The engine registry}

    One table drives everything that enumerates or dispatches engines.
    Mirrors [Bench_registry]: an entry carries the engine value, its
    wire/CLI name, a one-line doc string, capability flags, a
    pre-forcing hook for the mapper's parallel fan-out, and the search
    function itself.  {!all_engines}, {!engine_name},
    {!engine_of_string}, the CLI's [--engine] help, the server's
    engine parsing and the oracle's subject list are all derived views
    of this table. *)
module Engine_registry : sig
  type caps = {
    scales : bool;
        (** answers from what the index file holds, with no per-index
            build and no O(n) scan per query.  It gates two things: the
            engines [kmm serve] accepts ([Kmm_server.Protocol]) and
            the large-text tier of [kmm bench engines].  Cole's suffix
            tree and the online references (amir, naive) are
            [false]. *)
  }

  type run_args = {
    pattern : string;  (** validated, normalized, nonempty *)
    k : int;  (** clamped to the pattern length, nonnegative *)
    obs : Obs.t;  (** per-query observability sink *)
  }
  (** What {!Kmismatch.run} hands an engine: the validated query plus
      the query's sink.  An engine that counts its work adds the
      [engine.*] counters to [obs] once, when its search returns. *)

  type entry = {
    engine : engine;  (** the (nullary) constructor this entry answers *)
    name : string;
        (** wire/CLI name, lowercase with [-] separators; looked up
            spelling-insensitively (see {!Kmismatch.engine_of_string}) *)
    doc : string;  (** one line for [--engine] help *)
    caps : caps;
    prepare : index -> unit;
        (** force the derived index components this engine reads, so a
            parallel fan-out does not serialize on the first query *)
    run : index -> run_args -> (int * int) list;
        (** answer one validated query: every [(position, distance)]
            with [distance <= k], ascending by position *)
  }

  val register : entry -> unit
  (** Append an entry to the table.  Raises [Invalid_argument] if the
      name (after spelling normalization) or the engine value is already
      registered. *)

  val all : unit -> entry list
  (** Every entry, in registration order (built-ins first). *)

  val find : engine -> entry option
  val find_name : string -> entry option
  (** Lookup by engine value (one hashed probe) / by name
      ([-]/[_]-insensitive, case folded, compared in place).  Neither
      allocates. *)

  val names : unit -> string list
end

val all_engines : unit -> engine list
(** Registered engines in registration order — a derived view of
    {!Engine_registry.all}, so it includes engines registered after
    startup. *)

val engine_name : engine -> string
(** The registry name of an engine ("m-tree", "bidir", ...);
    ["unregistered-engine"] for a value never registered. *)

val engine_of_string : string -> engine option
(** Parse an engine name.  Case-insensitive, and [-]/[_] are
    interchangeable (and optional): ["s-tree-nodelta"],
    ["s_tree_no_delta"] and ["STreeNoDelta"] all name [S_tree_no_delta]. *)

val engine_of_string_err : string -> (engine, Kmm_error.t) result
(** {!engine_of_string} with a typed rejection: an unknown name comes
    back as [Error (Bad_input _)] whose message lists every valid
    registry name. *)

val engine_names : unit -> string list
(** The registered names, registration order ({!Engine_registry.names}). *)

val prepare : engine -> index -> unit
(** Run [engine]'s registry [prepare] on the index: build the derived
    state the engine reads (suffix tree, unpacked text, prefix table)
    now, so no query pays for it.  A no-op for an unregistered engine. *)

val build_index : string -> index
(** Build the shared index of a target text ([acgt], any case; validated
    and normalized exactly once, then {!of_sequence}). *)

val of_sequence : Dna.Sequence.t -> index
(** Build the shared index of an already validated sequence, with no
    second validation or copy of it.  The FM-index of the reversed text,
    forward rank side included, is built eagerly
    ({!Fmindex.Fm_index.build}, its two suffix sorts at once on two
    domains); the suffix tree (used only by [Cole]) lazily.  The
    reversed string is garbage once the build has packed it.  Raises
    [Invalid_argument] on a sequence longer than
    {!Fmindex.Fm_index.max_length}. *)

val text : index -> string
(** The forward target text, unpacked on first use from the FM
    component's 2-bit payload (the reversed text), back to front in one
    pass, and cached behind a domain-safe memo: an mmap'd load stays
    O(1) until an engine actually needs the string, and an index built
    by {!of_sequence} does not keep the caller's sequence alive.  Only
    [Naive] and [Cole]'s suffix tree force it. *)

val length : index -> int
(** Target length, answered from the FM component without materializing
    the text. *)

val fm_rev : index -> Fmindex.Fm_index.t

val suffix_tree : index -> Suffix.Suffix_tree.t
(** The suffix tree of the forward text, built on first use (domain-safe
    memo). *)

val packed_text : index -> Fmindex.Packed_text.t
(** A fresh forward copy of the text, 2-bit packed, built lane by lane
    from the FM component's payload on every call (no memo).  The index
    keeps no forward packed text: [Amir], [Bidir] and the mapper's hit
    re-check all read the payload, the reversed text, in place.  Nothing
    in the library, the CLI, the benches or the examples calls this;
    it stays for the layer timings of the performance harness. *)

val bidir : index -> Fmindex.Bidir.t
(** The bidirectional index: the forward rank side the FM component
    carries, paired with that component.  It is part of the index (built
    with it, persisted with it, adopted by both loaders), so this is a
    field read; no load pays a suffix sort for it. *)

(** {1 Queries and responses}

    The primary entry point is {!run}: a {!Query.t} names the engine,
    pattern, budget and (optionally) an observability sink; the
    {!Response.t} carries the hits, and the sink the query's time and
    engine counters. *)

module Query : sig
  type t = {
    engine : engine;  (** which algorithm answers the query *)
    pattern : string;  (** raw pattern; normalized (case) by {!run} *)
    k : int;  (** mismatch budget; clamped to [length pattern] *)
    obs : Obs.t;
        (** sink receiving the [query_ns] histogram, the engine-internal
            histograms and spans, and the query's counters ({!run});
            {!Obs.noop} disables all of it *)
    deadline : Deadline.t;
        (** the query's compute budget as an absolute monotonic instant;
            {!Deadline.none} (the default) runs to completion.  Enforced
            cooperatively: the engines poll it in their hot loops, and
            an expired query comes back from {!try_run} as
            [Error (Timeout _)] with all partial work discarded. *)
  }

  val make :
    ?obs:Obs.t ->
    ?deadline:Deadline.t ->
    engine:engine ->
    pattern:string ->
    k:int ->
    unit ->
    t
  (** Build a query.  [obs] defaults to {!Obs.noop}, [deadline] to
      {!Deadline.none}. *)
end

module Response : sig
  type t = {
    hits : (int * int) list;
        (** every [(position, distance)] with [distance <= k], ascending
            by position *)
  }

  val positions : t -> int list
  (** The hit positions only. *)
end

val try_run : index -> Query.t -> (Response.t, Kmm_error.t) result
(** Execute one query, reporting validation failures as values: an
    empty pattern, a non-ACGT character, [k < 0], or an engine value
    that was never registered comes back as
    [Error (Kmm_error.Bad_input _)] (message identical to the
    [Invalid_argument] that {!run} would raise) instead of an exception.
    This is the entry point for long-running callers — the [kmm serve]
    daemon and the CLI — that must answer a bad query, not crash on it.
    A valid query behaves exactly as under {!run}.

    The query's [deadline] is enforced here: a budget already expired on
    entry is answered [Error (Timeout _)] without touching the index,
    and one that expires mid-search (detected by the engines'
    cooperative {!Deadline.poll} checkpoints, within
    {!Deadline.poll_stride} hot-loop iterations) comes back as
    [Error (Timeout _)] with the partial hit set discarded — a timed-out
    query never returns a truncated answer.

    A typed failure of the index under the search, such as the
    [Corrupt (Sa_marks, _)] of an LF walk that overruns its sample rate
    on an index adopted by [Mmap], comes back as that [Error]. *)

val run : index -> Query.t -> Response.t
(** Execute one query.  The pattern is normalized (case); raises
    [Invalid_argument] if it is empty, contains non-ACGT characters, or
    [k < 0] — a thin raising wrapper over {!try_run}.

    Degenerate budgets are uniform across engines: any [k >= length
    pattern] is equivalent to [k = length pattern] (every window position
    is returned at its true distance), and the budget is clamped there
    internally, so even [k = max_int] is safe.

    When the query's [obs] sink is active, [run] records the search's
    duration into [query_ns] (on a tracing sink also a ["query"] span
    with engine, [k] and [m] as its args), bumps [query.count] and
    [query.hits]; the engine adds its own [engine.*] counts to the
    same sink when its search returns (m-tree, s-tree, s-tree-nodelta,
    bidir and cole count; the online engines do not).  It is
    the ambient sink while the query runs ({!Obs.with_ambient}), so the
    [fm.*] and [verify.*] taps of the query land in it too.  All of
    these are per-record sums, so per-domain sinks {!Obs.merge} to the
    sequential totals. *)

val save_index : index -> string -> unit
(** Persist the index (its FM component; about 1.33 bytes per base).
    The suffix tree is rebuilt lazily on demand after {!load_index}. *)

val load_index : ?mode:Fmindex.Fm_index.mode -> string -> index
(** Reload an index written by {!save_index}: {!try_load_index} with
    its error raised, [Failure] with a descriptive message for a file
    that is not a valid index and the original exception
    ([Sys_error]/[Unix_error]) for one that cannot be read at all.
    [mode] (default [Copy]) is forwarded to
    {!Fmindex.Fm_index.try_load}: [Mmap] adopts the bulk sections in
    place for O(1) cold start. *)

val try_load_index :
  ?mode:Fmindex.Fm_index.mode -> string -> (index, Kmm_error.t) result
(** {!load_index} with the failure reported as a typed error (see
    {!Fmindex.Fm_index.try_load}): corruption, truncation, version and
    I/O problems each get their own constructor instead of a [Failure]
    message. *)
