(** Amir-style k-mismatch baseline (paper ref. [2]): mark-and-verify in
    one pass over the forward 2-bit packed text.

    The pattern is cut into [b] blocks ("breaks"): [2k] of them, or the
    whole pattern as one block at [k = 0].  A window with at most [k]
    mismatches exact-matches at least [b - k] blocks, so one scan of a
    dense Aho-Corasick automaton over the blocks
    ({!Stringmatch.Aho_corasick}) marks each occurrence's implied window
    in a ring of window counts (at most [2m] slots, never [n]), and a
    window is verified with the word-parallel kernel
    ({!Fmindex.Packed_text.hamming}, limit [k]) as soon as the scan has
    passed its last block, if it is marked [b - k] times or more.  When
    the pattern is too short for blocks of two or more characters, every
    window is verified directly (Amir's algorithm also special-cases
    such patterns).  The scan polls {!Deadline.poll} once per 1024 text
    characters, the direct verification once per window.
    See DESIGN.md for the fidelity notes. *)

val blocks : pattern:string -> k:int -> (int * string) list
(** The [(offset, block)] decomposition used for filtering; exposed for
    tests.  Empty when the filter is not applicable. *)

val search :
  ptext:Fmindex.Packed_text.t -> pattern:string -> k:int -> (int * int) list
(** [search ~ptext ~pattern ~k] returns all [(position, distance)] with
    [distance <= k] of [pattern] in the packed text, ascending.  Its
    allocation is linear in the pattern length plus the hits, whatever
    the text length.  Raises [Invalid_argument] on an empty pattern, a
    negative [k] or a pattern outside lowercase [acgt]. *)
