(** Optimum search schemes over the bidirectional FM-index.

    Kianfar & Pockrandt et al. ("Optimum Search Schemes for Approximate
    String Matching Using Bidirectional FM-Index"): split the pattern
    into [p = k + 1] pieces and run a small set of {e searches}, each a
    permutation of the pieces with cumulative lower/upper mismatch
    bounds.  Because the bidirectional index can grow a match to either
    side, a search may start from a middle piece and force it to be
    matched {e exactly} ([U_1 = 0]), which prunes the 4-way mismatch
    branching far earlier than the paper's purely backward S-/M-tree
    walk — the win grows with [k].

    {!Scheme} holds the precomputed tables (k ≤ 4) and the generic
    pigeonhole family (any k), with checkers the test suite runs
    exhaustively; {!search} executes a scheme set over a
    {!Fmindex.Bidir.t} with word-parallel verification of
    narrow-interval candidates. *)

(** Search-scheme tables.

    A {e search} over [p] pieces is [(π, L, U)]: piece processing order
    [π] (1-based piece numbers; each next piece adjacent to the span
    already processed, so the matched region stays contiguous) and
    cumulative mismatch bounds — after processing the [t]-th piece of
    the order, the total number of mismatches spent must lie in
    [L.(t), U.(t)].  A mismatch {e distribution} is the per-piece error
    count vector [a] of a real occurrence; a scheme (set of searches) is
    {e complete} for [k] when every [a] with [Σa ≤ k] is admitted by at
    least one search.  Completeness is what makes the engine exact;
    the tables below are verified complete by enumeration in the test
    suite. *)
module Scheme : sig
  type search = {
    pi : int array;  (** processing order: a permutation of [1..p] *)
    lower : int array;  (** cumulative lower bounds, one per step *)
    upper : int array;  (** cumulative upper bounds, one per step *)
  }

  val pieces : k:int -> int
  (** Number of pattern pieces used at mismatch budget [k]: [k + 1]. *)

  val for_k : k:int -> search list
  (** The scheme executed at budget [k] ([k >= 0]): hand-tuned
      precomputed tables for [k <= 4], the generic family for larger
      budgets.  Every search starts with an exact piece ([U.(0) = 0]). *)

  val generic : k:int -> i:int -> search
  (** The [i]-th member ([1 <= i <= k+1]) of the generic
      leftmost-zero-piece family: process pieces [i, i+1, ..., p] to the
      right then [i-1, ..., 1] to the left, with piece [i] exact.  The
      family is complete for every [k] by pigeonhole: an occurrence with
      [Σa ≤ k < p] has a zero piece, and the search of its {e leftmost}
      zero piece admits it. *)

  val covers : search -> int array -> bool
  (** Does this search admit the mismatch distribution [a] (length [p],
      indexed by piece number - 1)? *)

  val complete : k:int -> bool
  (** Exhaustive completeness check of [for_k ~k]: true iff every
      distribution with [Σa ≤ k] is covered.  Enumeration is
      [O((k+1)^(k+1))] — meant for tests and small [k]. *)

  val valid : k:int -> bool
  (** Structural validity of [for_k ~k]: every [π] a permutation of
      [1..p] with the contiguous-span (connectivity) property, bounds
      monotone nondecreasing with [L ≤ U] pointwise, and [U] within
      [0..k]. *)
end

val search :
  ?stats:Stats.t ->
  ?obs:Obs.t ->
  Fmindex.Bidir.t ->
  pattern:string ->
  k:int ->
  (int * int) list
(** [search bidir ~pattern ~k] returns every [(position, distance)]
    with [distance <= k], sorted by position — the same contract as
    every other engine.

    Execution: the pattern splits into [Scheme.pieces ~k] near-equal
    pieces; each search of [Scheme.for_k ~k] grows a synchronized
    interval pair piece by piece, branching over the four bases with the
    cumulative bounds pruning.  A search whose opening (exact) piece
    spans at least {!Fmindex.Bidir.prefix_len} bases starts from the
    {!Fmindex.Bidir.prefix_table} entry of that piece's first q bases
    instead of extending q times from the empty match; an empty entry
    ends the search.  When an interval narrows to at most two candidate
    rows, the executor leaves the index: it locates the rows through
    the reverse side's sampled SA and verifies the whole pattern window
    with the word-parallel SWAR kernel ({!Fmindex.Packed_text.hamming},
    limit [k]), in place on the index's packed reversed text against
    the reversed pattern.  Occurrences reached by several searches are
    deduplicated by position before the sorted return.

    Degenerate budgets follow the house rules: [k] is clamped to the
    pattern length; [k >= m] answers every window at its true distance;
    a pattern longer than the text has no hits.  Raises
    [Invalid_argument] on an empty pattern, non-lowercase-ACGT pattern,
    or negative [k].

    Cooperative cancellation: {!Deadline.poll} runs at every node of the
    branching walk.  [obs] receives a [bidir.explore] span and
    [bidir.extends] / [bidir.verifications] / [bidir.searches]
    counters. *)
