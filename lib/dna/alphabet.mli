(** DNA alphabet used throughout the library.

    Characters are ordered [$ < a < c < g < t] as in the paper: the sentinel
    [$] terminates every indexed text and is alphabetically smallest.  All
    functions are case-insensitive on input and produce lowercase output. *)

val sigma : int
(** Number of distinct codes, sentinel included (5). *)

val sentinel : char
(** The terminator character [$]. *)

val sentinel_code : int
(** Code of the sentinel (0). *)

val code : char -> int
(** [code c] is the integer code of [c]: [$ -> 0], [a -> 1], [c -> 2],
    [g -> 3], [t -> 4].  Raises [Invalid_argument] on any other character. *)

val code_opt : char -> int option
(** Like {!code} but returns [None] instead of raising. *)

val of_code : int -> char
(** Inverse of {!code}.  Raises [Invalid_argument] if the code is out of
    range. *)

val is_base : char -> bool
(** [is_base c] is true iff [c] is one of [acgt] (either case). *)

val normalize : char -> char
(** Lowercase a base; raises [Invalid_argument] for non-bases other than the
    sentinel. *)

val complement : char -> char
(** Watson-Crick complement of a base ([a<->t], [c<->g]). *)

val bases : char array
(** The four bases in alphabetical order, [| 'a'; 'c'; 'g'; 't' |]. *)
