(** Byte and word storage shared by heap-resident and memory-mapped
    indexes.

    Every bulk buffer of the FM-index core (packed text, interleaved
    rank blocks, SA mark bitvector, SA sample words) is a [Bigarray]
    over bytes or 64-bit words.  A buffer is either allocated on the
    OCaml heap ({!create}) or adopted zero-copy from a format-v5 index
    file ({!map_bytes}/{!map_words} over [Unix.map_file]) — the hot
    rank/locate kernels are written once against this representation
    and cannot tell the two apart.

    The types are transparent aliases so call sites can use
    [Bigarray.Array1.unsafe_get] directly: with the kind and layout
    statically known, those compile to inline loads, which keeps the
    packed-count kernels at the same cost they had on [Bytes].

    Mappings are always {e private} ([MAP_PRIVATE]): loaders may clear
    padding lanes in place without ever writing through to the file,
    and page frames remain shared between processes until (never, in
    practice) written. *)

type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A byte buffer; elements read as ints in 0..255. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A buffer of little-endian 64-bit words (the on-disk int encoding). *)

val create : int -> t
(** [create n] is a zero-filled heap buffer of [n] bytes.  (Unlike
    [Bytes.create], bigarray allocation does not zero; this does.) *)

val create_words : int -> words
(** Zero-filled heap buffer of [n] words. *)

val length : t -> int
val length_words : words -> int

val of_string : string -> t
(** Copy a string into a fresh buffer (an in-memory index image, for
    {!Fm_index.try_of_string}). *)

val map_bytes : Unix.file_descr -> pos:int -> len:int -> t
(** [map_bytes fd ~pos ~len] maps [len] bytes of the file at absolute
    offset [pos] (private, copy-on-write).  [len = 0] yields an empty
    heap buffer (zero-length mappings are not portable).  The mapping
    survives [Unix.close fd].  Raises [Unix.Unix_error] on mmap
    failure. *)

val map_words : Unix.file_descr -> pos:int -> len:int -> words
(** Same for a buffer of [len] 64-bit words; [pos] must be 8-byte
    aligned (the index format aligns every section). *)

(** A domain-safe memoized thunk — [Lazy.t] without the undefined
    behaviour of concurrent forcing.  Adopting loaders defer expensive
    derived values (the unpacked text string, the suffix tree) behind
    these; the first caller computes under a mutex, everyone later pays
    one atomic load. *)
module Memo : sig
  type 'a t

  val make : (unit -> 'a) -> 'a t
  val force : 'a t -> 'a
  val is_forced : 'a t -> bool
end
