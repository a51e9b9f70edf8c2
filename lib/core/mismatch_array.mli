(** Mismatch information within a pattern (paper §IV.B).

    [R_ij] records where the pattern disagrees with itself under two
    shifts: the first mismatch positions [x] (1-based) such that
    [r[i+x] <> r[j+x]], over the overlap of [r[i+1 ..]] and [r[j+1 ..]].
    The paper's [R_i] is [R_0i]; it keeps [k+2] entries of each [R_i] and
    merges two of them into [R_ij] (Proposition 1).  The M-tree engine
    instead computes each [R_ij] it needs directly, [2k+3] entries with
    O(1) self-LCE jumps (DESIGN.md §4, refinement 2), so no [R_i] table
    is stored and no merge runs.

    All positions in this module are 1-based, matching the paper; arrays
    are exactly as long as the number of mismatches found (no 0-padding —
    absence is conveyed by the array ending). *)

type t
(** A pattern's self-LCE structure. *)

val build : string -> t
(** Prepare pattern [r]'s self-LCE structure in O(m).
    Raises [Invalid_argument] if [r] is empty. *)

val pairwise_lce : t -> i:int -> j:int -> limit:int -> int array
(** [pairwise_lce t ~i ~j ~limit] is [R_ij]: the first [limit] mismatch
    positions between [r[i+1 ..]] and [r[j+1 ..]] over their overlap
    (length [m - max i j]), found with one LCE jump per entry.  Raises
    [Invalid_argument] unless [0 <= i, j < m]. *)

val naive_pairwise : string -> string -> limit:int -> int array
(** First [limit] mismatch positions (1-based) between two equal-length
    strings; the test oracle.  Raises [Invalid_argument] on length
    mismatch. *)
