(** Aho-Corasick multiple-pattern matching (paper §II), used by the Amir
    baseline to locate every "break" of the pattern in one pass over the
    text. *)

type t

val build : string array -> t
(** Build the goto/failure automaton for the given patterns.  Empty
    patterns are rejected. *)

val scan : t -> string -> f:(pattern:int -> pos:int -> unit) -> unit
(** Run the automaton over [text], calling [f] for every occurrence:
    [pattern] is the index into the build array, [pos] the 0-based start of
    the occurrence.  Polls {!Deadline.poll} once per text character. *)

val find_all : t -> string -> (int * int) list
(** All [(pattern, pos)] occurrences, in scan order. *)
