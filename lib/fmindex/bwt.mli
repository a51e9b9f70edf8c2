(** The Burrows-Wheeler transform of a DNA text.

    We always transform [s ^ "$"] where [$] is the unique smallest
    terminator, so [BWT(s)] is a string of length [n+1] over [$acgt]. *)

val of_text : string -> string
(** [of_text s] computes BWT(s ^ "$") through the suffix array (SA-IS),
    using the paper's formula (3): [L[i] = $ if H[i] = 1 else s[H[i]-1]]. *)

val of_suffix_array : string -> int array -> string
(** Same, given a precomputed suffix array of [s] (without sentinel). *)

val of_packed_text :
  ?reversed:bool -> Packed_text.t -> Packed_text.t * int * Suffix.Suffix_array.cells
(** [of_packed_text ptext] builds BWT(s ^ "$") of the 2-bit text [s]
    straight from its lanes, through one SA-IS pass over the codes
    (sentinel 0, bases 1..4), without an unpacked string.
    [~reversed:true] (default [false]) takes [s] to be [ptext] read back
    to front, with no reversed copy; the suffix array then indexes that
    reverse.  It returns the packed BWT with its sentinel removed, the
    sentinel's row index (the form the packed FM-index core consumes),
    and the row-indexed suffix array in 32-bit cells: [sa.{r}] is the
    text position of row [r]'s suffix, [sa.{0} = n].  Raises [Invalid_argument] when [s] has
    {!Suffix.Suffix_array.max_length} bases or more. *)

val inverse : string -> string
(** [inverse l] recovers [s] from [l = BWT(s ^ "$")] by iterated
    LF-mapping.  Raises [Invalid_argument] if [l] does not contain exactly
    one sentinel. *)
