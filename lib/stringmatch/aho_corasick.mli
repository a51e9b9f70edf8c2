(** Aho-Corasick multiple-pattern matching (paper §II) over the 2-bit
    packed text, used by the Amir baseline to find every exact
    occurrence of the pattern's blocks in one pass.

    The automaton is dense: four transitions per state, one per lane
    code, with the failure links folded in when it is built, so a text
    character costs one array load and a state's outputs (those of its
    failure chain included) are one int array. *)

type t

val build : string array -> t
(** Build the automaton for the given [acgt] patterns (either case).
    Raises [Invalid_argument] on an empty pattern or any other
    character. *)

val scan :
  t -> Fmindex.Packed_text.t -> f:(pattern:int -> pos:int -> unit) -> unit
(** Run the automaton over the packed text, calling [f] for every
    occurrence in ascending order of its last character: [pattern] is
    the index into the build array, [pos] the 0-based start of the
    occurrence.  Polls {!Deadline.poll} before each run of 1024 text
    characters, so before the first. *)
