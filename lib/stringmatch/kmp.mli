(** Knuth-Morris-Pratt exact matching (paper §II): O(m + n) with the
    failure-function shift table. *)

val failure : string -> int array
(** [failure p] is the border table: [f.(i)] is the length of the longest
    proper border of [p[0 .. i]]. *)

val find_all : pattern:string -> text:string -> int list
(** Every start of [pattern] in [text], ascending.  Polls
    {!Deadline.poll} once per text character. *)
