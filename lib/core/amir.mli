(** Amir-style k-mismatch baseline (paper ref. [2]): mark-and-verify.

    The pattern is cut into [2k] blocks ("breaks"); every exact occurrence
    of a block in the text (found with one Aho-Corasick pass) marks the
    implied candidate start; a window with at most [k] mismatches must
    exact-match at least [k] of the [2k] blocks, so candidates marked fewer
    than [k] times are discarded and the survivors are verified with the
    word-parallel kernel ({!Fmindex.Packed_text.hamming}, limit [k]).  When the pattern is too short to cut into [2k] useful
    blocks, every position is verified directly (Amir's algorithm also
    special-cases such patterns).  Every pass over the text (the [k = 0]
    KMP scan, the block marking, verification) polls {!Deadline.poll}.
    See DESIGN.md for the fidelity notes. *)

val blocks : pattern:string -> k:int -> (int * string) list
(** The [(offset, block)] decomposition used for filtering; exposed for
    tests.  Empty when the filter is not applicable. *)

val search :
  ptext:Fmindex.Packed_text.t ->
  pattern:string ->
  k:int ->
  string ->
  (int * int) list
(** [search ~ptext ~pattern ~k text] returns all [(position, distance)]
    with [distance <= k], ascending.  [ptext] is the packed form of
    [text], which the candidates are verified against.  Raises
    [Invalid_argument] on an empty pattern, a negative [k], or a
    [ptext] whose length differs from [text]'s. *)
