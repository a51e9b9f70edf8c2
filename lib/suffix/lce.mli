(** Constant-time longest-common-extension queries.

    Built from a suffix array, its LCP array (Kasai) and a sparse-table RMQ.
    This is the O(1)-per-jump primitive behind the paper's R-table
    construction ([Core.Mismatch_array], the [R_ij] mismatch arrays of
    Algorithm A). *)

type t

val make : string -> t
(** Preprocess one string for same-string LCE queries. *)

val lce : t -> int -> int -> int
(** [lce t i j] is the length of the longest common prefix of the suffixes
    starting at [i] and [j].  Out-of-range indices (== length) yield 0. *)
