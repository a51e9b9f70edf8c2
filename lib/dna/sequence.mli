(** Validated DNA sequences.

    A [Sequence.t] is an immutable lowercase ACGT string.  The sentinel never
    appears inside a sequence; index structures append it themselves. *)

type t
(** A validated DNA sequence. *)

val of_string : string -> t
(** [of_string s] validates and normalizes [s]: one table scan, which
    returns [s] itself when it is already lowercase [acgt] and a
    case-folded copy otherwise.  Raises [Invalid_argument] if [s]
    contains a character outside [acgtACGT]. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** The underlying lowercase string (no copy). *)

val length : t -> int
val get : t -> int -> char
val sub : t -> pos:int -> len:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val rev : t -> t
(** Plain character reversal. *)

val revcomp : t -> t
(** Reverse complement (the opposite strand). *)

val random : ?state:Random.State.t -> int -> t
(** [random n] is a uniformly random sequence of length [n]. *)

val hamming : t -> t -> int
(** Hamming distance between two sequences of equal length.  Raises
    [Invalid_argument] on length mismatch. *)

val pp : Format.formatter -> t -> unit
