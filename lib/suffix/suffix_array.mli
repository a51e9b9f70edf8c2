(** Suffix-array construction.

    One linear-time SA-IS core is used everywhere in production, through
    two entry points: {!build} over the byte alphabet and {!sais_codes}
    over a byte string of small symbol codes (the DNA BWT builder's input).
    A prefix-doubling and a naive builder are kept as independently
    written cross-checks for tests.

    The suffix array of [s] is the permutation [sa] of [0 .. n-1] such that
    the suffix [s[sa.(i) ..]] is the [i]-th smallest suffix in plain
    lexicographic order (a proper prefix sorts before its extensions). *)

type cells = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The SA-IS core's working array: one 32-bit cell per symbol, outside
    the OCaml heap. *)

val max_length : int
(** [2{^31} - 2]: the longest symbol string, sentinel included, whose
    positions and LMS names fit the 32-bit cells. *)

val build : string -> int array
(** Linear-time SA-IS construction over the byte alphabet (all 256 byte
    values allowed).  Raises [Invalid_argument] on a string of
    {!max_length} bytes or more. *)

val sais_codes : Bytes.t -> sigma:int -> cells
(** [sais_codes codes ~sigma] is the suffix array of [codes], read as
    symbols [0 .. sigma-1] ([sigma <= 256]): its last byte must be a
    sentinel 0 that occurs nowhere else.  The result has one cell per
    byte, the sentinel suffix first ([sa.{0} = Bytes.length codes - 1]).
    Working memory beyond the result's 4 bytes per symbol is one byte
    per symbol plus the recursion's type bytes and buckets.  Raises
    [Invalid_argument] when [codes] breaks that contract or is longer
    than {!max_length}. *)

val build_doubling : string -> int array
(** O(n log^2 n) prefix-doubling construction; reference implementation for
    cross-checking. *)

val build_naive : string -> int array
(** O(n^2 log n) sort of explicit suffixes; only for tiny test inputs. *)

val is_valid : string -> int array -> bool
(** Full validity check (permutation + sortedness); for tests. *)
