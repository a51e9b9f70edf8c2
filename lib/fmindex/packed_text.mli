(** 2-bit packed DNA text: the shared payload representation of the
    FM-index core.

    A {!t} stores a sequence of {e lane codes} 0..3 (['a'] = 0, ['c'] = 1,
    ['g'] = 2, ['t'] = 3 — i.e. {!Dna.Alphabet} codes shifted down by one,
    with the sentinel excluded) at four lanes per byte: lane [i] lives in
    byte [i / 4] at bit offset [(i mod 4) * 2], least significant bits
    first.  This is exactly the byte layout of the on-disk index payload
    (every format version), so persistence is a flat copy — or, for
    format v5, no copy at all: {!of_storage} adopts an mmap'd section in
    place.

    Unused lanes in the final byte are always zero — builders guarantee
    it and the adopting constructors enforce it — so word/byte-parallel
    population counts over whole bytes never see garbage lanes. *)

type t

val empty : t

val length : t -> int
(** Number of lanes (bases). *)

val get : t -> int -> int
(** [get t i] is the lane code (0..3) at position [i].
    Raises [Invalid_argument] when out of range. *)

val unsafe_get : t -> int -> int
(** {!get} without the bounds check. *)

val init : int -> (int -> int) -> t
(** [init n f] packs lane codes [f 0 .. f (n-1)]; each must be in 0..3
    (raises [Invalid_argument] otherwise). *)

val of_string : string -> t
(** Pack a lowercase [acgt] string.  Raises [Invalid_argument] on any
    other character (including the sentinel and uppercase). *)

val to_string : t -> string
(** Unpack back to a lowercase [acgt] string. *)

val storage : t -> Storage.t
(** The underlying packed buffer, [ceil (length / 4)] bytes.  Shared,
    not copied: treat as read-only. *)

val of_storage : Storage.t -> len:int -> t
(** [of_storage data ~len] adopts a packed buffer — heap or mmap'd —
    holding [len] lanes, without copying.  Raises [Invalid_argument] if
    [data] is not exactly [ceil (len / 4)] bytes.  Trailing lanes of
    the final byte are cleared in place (copy-on-write for mapped
    storage), so a file whose padding bits are dirty still yields a
    canonical value. *)

val base_of_code : int -> char
(** [base_of_code d] is the base character of lane code [d] (0..3). *)

val code_of_base : char -> int option
(** Lane code of a base character; [None] for non-ACGT (case folded). *)

(** {1 SWAR count tables}

    Shared 256-entry per-byte lookup tables for byte- and word-parallel
    lane counting.  [Occ] aliases {!lane_count_table} as its rank scan
    table, so the rank kernel and the verification kernel can never
    drift. *)

val lane_count_table : int array
(** [lane_count_table.(byte)] packs the number of lanes of [byte] equal
    to lane code 1 (bits 0..15), 2 (bits 16..31) and 3 (bits 32..47).
    The count of code 0 is derivable as [lanes - c1 - c2 - c3], which
    makes zero-padding lanes harmless. *)

val mismatch_count_table : int array
(** [mismatch_count_table.(byte)] is the number of non-zero 2-bit lanes
    of [byte] — the per-byte Hamming weight of a XOR of two packed
    payloads.  Derived from {!lane_count_table}. *)

(** {1 Word-parallel Hamming verification}

    The filter-and-verify hot path: compare a pre-packed pattern
    against any window of the packed text 28 bases per word operation
    (7-byte XOR + SWAR 2-bit-lane popcount), early-exiting once a
    mismatch budget is blown.  See DESIGN.md "Word-parallel
    verification". *)

val word_lanes : int
(** Lanes compared per kernel word operation (28: 7 packed bytes — the
    widest branch-free load+reduce expressible over a byte Bigarray
    within OCaml's 63-bit native [int]). *)

type packed := t

(** A pattern packed at the four lane phases.  Phase [p] stores the
    pattern shifted up by [p] lanes with first/last-word padding masks,
    so verifying against text position [pos] reduces to whole-byte
    loads starting at byte [pos / 4] — alignment-free and mmap-safe.
    A phase is built on its first use; a pattern may be shared by
    domains. *)
module Pattern : sig
  type t

  val make : string -> t
  (** Pack a lowercase [acgt] pattern.  Raises [Invalid_argument] on an
      empty string or any other character. *)

  val make_rev : string -> t
  (** [make_rev s] is [make] of [s] reversed, without building the
      reversed string: the pattern to verify against a reversed text
      (window [pos] of a length-[n] text is window [n - pos - m] of its
      reverse).  Same errors as {!make}. *)

  val of_codes : int array -> t
  (** Pack an array of lane codes 0..3.  Raises [Invalid_argument] on
      an empty array or out-of-range code. *)

  val of_packed : packed -> pos:int -> len:int -> t
  (** [of_packed t ~pos ~len] packs the window [pos, pos+len) of an
      existing packed text.  Raises [Invalid_argument] when the window
      is out of range or empty. *)

  val length : t -> int

  type phase = {
    words : int array;
        (** the pattern shifted up by the phase's lane count, in
            28-lane little-endian words *)
    masks : int array;  (** same shape: [0b11] on pattern lanes, [0b00] on padding *)
    last_bytes : int;  (** packed bytes the final word covers, 1..7 *)
  }

  val phase : t -> int -> phase
  (** [phase t p] ([p] in 0..3) is the packing compared against text
      positions [pos] with [pos mod 4 = p].  {!make} packs the
      pattern's words in one pass; phase [p] is derived from them by
      2-bit shifts on its first use (here or by {!hamming}).
      Read-only.  Raises [Invalid_argument] unless [p] is in 0..3. *)
end

val hamming : limit:int -> t -> Pattern.t -> pos:int -> int
(** [hamming ~limit t p ~pos] is the Hamming distance between pattern
    [p] and the text window starting at lane [pos], scanning word by
    word and stopping as soon as the running count exceeds [limit]
    ([max_int] for none).  After an early exit the result is only
    meaningful as "greater than [limit]" — it counts the scanned prefix
    only.  The limit is required, not optional, so a call allocates
    nothing (an optional argument boxes a [Some] per call).  Raises
    [Invalid_argument] when the window does not fit. *)

(** {1 Counters}

    When {!Obs.set_taps} has armed the taps, every kernel scan (a
    {!hamming} call) counts into the calling domain's ambient sink
    ({!Obs.with_ambient}): [verify.calls] (one per scan),
    [verify.words] (28-lane words compared) and [verify.early_exits]
    (calls stopped before the last word).  Disarmed, a call pays one
    load and a branch. *)

module Telemetry : sig
  val set_enabled : bool -> unit
  (** {!Obs.set_taps} under its old name, kept for
      [perfbench/layers.ml], its only caller. *)
end
