(** The BWT-based baseline (the paper's "BWT method", ref. [34]): a
    brute-force search tree over BWT intervals.

    The pattern is consumed left to right, each step extending the current
    BWT interval of [rev s] by one character — the matching character for
    free, every mismatching character against the budget [k].  Optionally
    the delta-heuristic of [34] prunes branches: [delta.(i)] is the number
    of consecutive disjoint substrings of [r[i ..]] absent from [s]; a
    branch whose remaining budget is below it cannot reach an occurrence. *)

val delta_heuristic : Fmindex.Fm_index.t -> pattern:string -> k:int -> int array
(** [delta_heuristic fm_rev ~pattern ~k] is the 1-based array
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
    r[i .. b_(v-1) - 1] is absent.  So the array costs at most [k + 1]
    binary searches, each probe one {!Fmindex.Fm_index.longest_extension}
    stopped at the window end, instead of one extension run from every
    start; no start is charged rank operations twice, so the cost never
    exceeds that of the per-start runs. *)

val search :
  ?use_delta:bool ->
  ?stats:Stats.t ->
  ?obs:Obs.t ->
  Fmindex.Fm_index.t ->
  pattern:string ->
  k:int ->
  (int * int) list
(** [search fm_rev ~pattern ~k] returns every [(position, distance)] with
    [distance <= k], sorted by position, where [fm_rev] indexes the
    *reverse* of the target.  [use_delta] (default true) switches the
    pruning heuristic.  Raises [Invalid_argument] on an empty pattern or
    negative [k].

    [obs] (default {!Obs.noop}) records the [stree.delta] and
    [stree.explore] spans. *)
