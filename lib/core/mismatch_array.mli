(** Mismatch information within a pattern (paper §IV.B).

    [R_ij] records where the pattern disagrees with itself under two
    shifts: the first mismatch positions [x] (1-based) such that
    [r[i+x] <> r[j+x]], over the overlap of [r[i+1 ..]] and [r[j+1 ..]].
    The paper's [R_i] is [R_0i]; it keeps [k+2] entries of each [R_i] and
    merges two of them into [R_ij] (Proposition 1).  The M-tree engine
    instead computes each [R_ij] it needs directly, [2k+3] entries, by
    comparing the two shifted suffixes (DESIGN.md §4, refinement 2), so
    no [R_i] table is stored and no merge runs.

    All positions in this module are 1-based, matching the paper; arrays
    are exactly as long as the number of mismatches found (no 0-padding —
    absence is conveyed by the array ending). *)

val rij : string -> i:int -> j:int -> limit:int -> int array
(** [rij r ~i ~j ~limit] is [R_ij]: the first [limit] mismatch positions
    between [r[i+1 ..]] and [r[j+1 ..]] over their overlap (length
    [m - max i j]), found by comparing the two left to right and stopping
    at the [limit]-th mismatch, so it reads at most the overlap.  Raises
    [Invalid_argument] unless [0 <= i, j < m]. *)

val naive_pairwise : string -> string -> limit:int -> int array
(** First [limit] mismatch positions (1-based) between two equal-length
    strings; the test oracle.  Raises [Invalid_argument] on length
    mismatch. *)
