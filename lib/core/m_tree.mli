(** Algorithm A (paper §IV): k-mismatch search over a BWT array with
    mismatch-information reuse through a mismatching tree.

    The search explores the S-tree of the BWT method (ref. [34]): the
    pattern is consumed left to right, each step extending the current
    BWT interval of [rev s] by one character — the matching character
    for free, every mismatching character against the budget [k].  It
    keeps every explored node in a hash table keyed by its pair
    [<x, [lo, hi]>].  When a pair
    reappears at a deeper pattern position, the subtree below it is not
    re-explored with [search()] (rank) operations; instead the stored
    subtree is *derived*: walked with O(1) character logic, using the
    mismatch information between the two pattern suffixes ([R_ij]) to skip
    collapsed match runs (the M-tree's [<-, 0>] nodes).  Occurrences found
    by derivation reuse the BWT intervals recorded on the stored nodes.

    Two refinements over the paper keep the algorithm exact:
    - stored nodes remember budget-skipped branches (with their intervals),
      so a derived path whose budget still has room can *resume* a real
      search where the stored exploration stopped (the paper's case
      "D[u] needs to be extended");
    - [R_ij] is computed with [2k+3] entries so that no surviving derived
      path can outrun the reliable horizon of the table ([k+2] entries as
      in the paper can be outrun when stored mismatches absorb entries).

    {b Storage.}  The stored tree is a flat arena of int arrays (one per
    node field, plus pools for skipped branches and memoised match runs)
    and an int-to-int {!Int_table}, so a stored node holds no pointer and
    costs the GC nothing.  Each domain keeps one arena and reuses it:
    a search resets it at its start, so a search cut short by its
    deadline leaves nothing behind, and an arena grown past a fixed
    bound by one outlier search is dropped for a fresh one.  A search is
    not meant to re-enter {!search} on the same domain, and nothing in
    this library does; if one does (a nested call, or two systhreads of
    one domain searching at once), the inner search runs in a private
    arena that is not kept.  The pattern's LCE structure for [R_ij] is
    built by the first derivation only. *)

type config = {
  chain_skip : bool;
      (** walk collapsed match runs with [R_ij] jumps instead of node by
          node (default true; false gives the plain derivation walk) *)
  use_delta : bool;
      (** prune with the delta heuristic of ref. [34] (default true).
          The paper's Algorithm A does not use delta; we add it because it
          is sound under any alignment and, at laptop-scaled targets,
          leaving it out handicaps A() against the BWT baseline (which the
          paper *does* run with delta).  Branches pruned by delta are
          remembered like budget-skipped ones, so derivations remain
          exact.  Set false for the paper-pure variant (the ablation bench
          reports both). *)
  store_width : int;
      (** minimum BWT-interval width for a node to be materialized in the
          M-tree and hash table (default 2).  Subtrees below narrower
          intervals are near-chains whose derivation could never repay the
          cost of storing them; they are explored with a storage-free
          S-tree recursion and recorded like budget-skipped branches, so
          derivations through them stay exact.  Set 1 to materialize
          everything (the paper's literal structure); [max_int] stores
          nothing, so nothing is derived and the search is the BWT
          baseline of ref. [34] (the [S_tree] engines of {!Kmismatch}). *)
}

val default_config : config

val delta_heuristic : Fmindex.Fm_index.t -> pattern:string -> k:int -> int array
(** The delta heuristic of ref. [34]: [delta.(i)] is the number of
    consecutive disjoint substrings of [r[i ..]] absent from [s]; a
    branch whose remaining budget is below it cannot reach an
    occurrence.  [delta_heuristic fm_rev ~pattern ~k] is the 1-based array
    [min (delta.(i), k + 1)] for [i = 1 .. m+1] over the FM-index of
    [rev s] ([delta.(m+1) = 0]).  Every pruning test compares delta
    against a remaining budget [k - q <= k], so the cap changes no
    decision; a [k >= m] returns delta itself.  Raises [Invalid_argument]
    on a negative [k].  Exposed for tests and benchmarks.

    Let E(i) be the end of the first window r[i .. E(i)] absent from [s].
    If r[i+1 .. E(i+1)] is absent so is r[i .. E(i+1)], hence E is
    nondecreasing, delta nonincreasing, and the starts with
    [delta >= v] form a prefix [1 .. b_v] of the pattern: [b_0 = m+1],
    and [b_v] is the largest [i < b_(v-1)] whose window
    r[i .. b_(v-1) - 1] is absent.  Windows with one end are absent
    from some start down, so [b_v] is where one backward search on the
    forward side of the index ({!Fmindex.Fm_index.longest_left_extension}
    over BWT([s])), prepending r[b_(v-1) - 1], r[b_(v-1) - 2], ..., first
    empties its interval; level [v + 1] scans on from [b_v - 1].  No
    character is prepended twice, so the whole array costs at most [m]
    rank steps ([fm.rank_ops]). *)

val search :
  ?config:config ->
  ?obs:Obs.t ->
  Fmindex.Fm_index.t ->
  pattern:string ->
  k:int ->
  (int * int) list
(** [search fm_rev ~pattern ~k] returns every [(position, distance)] with
    [distance <= k], sorted by position; [fm_rev] indexes the reverse of
    the target.  Raises [Invalid_argument] on an empty pattern, a pattern
    with characters outside lowercase [acgt], or negative [k].

    [obs] (default {!Obs.noop}) records the [mtree.delta_ns] and
    [mtree.explore_ns] histograms (and on a tracing sink their
    [mtree.delta] and [mtree.explore] spans) plus a per-derivation
    [mtree.derive_ns]; with the noop sink the instrumentation costs one
    branch per scope.  The search counts its work in the domain's arena and
    adds it to [obs] once, when it returns, as the six [engine.*]
    counters ([nodes], [leaves], [rank_calls] (two per [extend_all]),
    [derivations], [derived_leaves], [resumes]).  A search cut by its
    deadline or by an exception adds nothing.  A root none of whose
    children survives the budget counts no leaf. *)
