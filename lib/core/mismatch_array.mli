(** Mismatch information within a pattern (paper §IV.B).

    [R_i] records where the pattern disagrees with itself at relative shift
    [i]: the first [k+2] positions [x] (1-based) such that
    [r[x] <> r[i+x]], where both sides range over the overlap
    [r[1 .. m-i]] versus [r[i+1 .. m]].  Keeping [k+2] rather than [k+1]
    entries is the paper's provision for exact merging.

    All positions in this module are 1-based, matching the paper; arrays
    are exactly as long as the number of mismatches found (no 0-padding —
    absence is conveyed by the array ending). *)

type t
(** A pattern's self-LCE structure plus its shift tables [R_1 .. R_{m-1}];
    the tables are computed on first use by {!shift_table} or {!derive},
    so that first use must not race between domains. *)

val build : string -> k:int -> t
(** Prepare pattern [r]'s self-LCE structure; [R_1 .. R_{m-1}], each
    holding at most [k+2] entries, follow on first use in O(km) total via
    kangaroo jumps (the paper quotes O(m log m) for its construction; ours
    is not worse for k = O(log m)).
    Raises [Invalid_argument] if [r] is empty or [k < 0]. *)

val shift_table : t -> int -> int array
(** [shift_table t i] is [R_i].  Raises [Invalid_argument] outside
    [0 .. m-1]. *)

val naive_pairwise : string -> string -> limit:int -> int array
(** First [limit] mismatch positions (1-based) between two equal-length
    strings; the test oracle.  Raises [Invalid_argument] on length
    mismatch. *)

val merge :
  a1:int array ->
  a2:int array ->
  beta:(int -> char) ->
  gamma:(int -> char) ->
  limit:int ->
  int array
(** The paper's [merge(A1, A2, beta, gamma)] (§IV.B): [a1] holds the
    mismatch positions of [alpha] vs [beta], [a2] those of [alpha] vs
    [gamma]; the result holds the mismatch positions of [beta] vs [gamma].
    Positions present in both inputs are resolved by comparing
    [beta]/[gamma] directly (their 1-based character accessors).  At most
    [limit] entries are produced.  Inputs must be strictly increasing. *)

val derive : t -> i:int -> j:int -> int array
(** [derive t ~i ~j] is [R_ij]: the first [k+2] mismatch positions between
    [r[i+1 ..]] and [r[j+1 ..]] over their common overlap (length
    [m - max i j]), obtained by merging [R_i] and [R_j] exactly as
    Algorithm A does.  Requires [0 <= i < j <= m-1]. *)

val pairwise_lce : t -> i:int -> j:int -> limit:int -> int array
(** Same quantity as {!derive} but computed directly with self-LCE kangaroo
    jumps; exact for any [limit].  Used as the oracle for {!derive} and as
    the default inner loop of the M-tree engine. *)
