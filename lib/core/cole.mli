(** Cole-style k-mismatch baseline (paper ref. [14]): brute-force bounded
    traversal of a suffix tree of the target, exactly as the paper's
    comparator implements it (their code sits on the gsuffix suffix-tree
    package; ours sits on {!Suffix.Suffix_tree}). *)

val search :
  ?obs:Obs.t ->
  Suffix.Suffix_tree.t ->
  pattern:string ->
  k:int ->
  (int * int) list
(** [search tree ~pattern ~k] returns every [(position, distance)] with
    [distance <= k], ascending, where [tree] is the suffix tree of the
    target.  Raises [Invalid_argument] on an empty pattern or negative
    [k].  When the search returns, its [engine.nodes] (edges entered)
    and [engine.leaves] (paths ended) are added to [obs] (default
    {!Obs.noop}); a search cut by its deadline adds nothing. *)
