(** Rank ("rankall") structure over a BWT string — packed-rank edition.

    This is the paper's Fig. 2 device: for each character [x], [A_x.(k)] is
    the number of occurrences of [x] in [L[0 .. k)].  The seed kept a full
    byte-per-position copy of the BWT and scanned it between checkpoints;
    this version stores the DNA payload at 2 bits per base and interleaves
    it with its checkpoints so a rank touches one compact block:

    - the BWT is split into {e blocks} of [block_lanes] bases
      ([block_lanes] is the checkpoint [rate] rounded up to a power of two
      in 32..65536, so every index computation is a shift/mask, never a
      division);
    - each block is [8 + block_lanes/4] bytes: four little-endian [uint16]
      counts (occurrences of a/c/g/t {e before} the block, relative to the
      enclosing superblock) immediately followed by the block's 2-bit
      payload — counts and payload share cache lines;
    - absolute counts live in {e superblock} counters (one [int] per code
      every 65536 bases), which is what keeps the per-block counts in 16
      bits;
    - the remainder inside a block is counted 4 lanes at a time through a
      256-entry packed-count table (a SWAR popcount over the packed word,
      processed bytewise so the hot loop allocates nothing — OCaml boxes
      [int64], so genuine 64-bit words would cost more than they save);
    - the sentinel ['$'] is not stored in the payload at all: its row
      index is kept out-of-band and rank queries adjust around it.

    The external contract is unchanged from the seed: codes are the
    {!Dna.Alphabet} codes over [$acgt] and indices are BWT positions with
    the sentinel {e included}, so every call site gets the packed kernel
    for free. *)

type t

val make : ?rate:int -> string -> t
(** [make l] preprocesses the BWT string [l] (over [$acgt], case folded).
    [rate] (default 32) is the requested checkpoint spacing; must be
    positive.  It is rounded up to a power of two in 32..65536. *)

val of_packed : ?rate:int -> ?sentinels:int array -> Packed_text.t -> t
(** [of_packed pt ~sentinels] builds the structure straight from a packed
    payload, avoiding any byte-per-base intermediate.  [sentinels] are the
    {e BWT row indices} (ascending, default none) that hold the sentinel;
    the payload holds every other row in order. *)

val rank : t -> int -> int -> int
(** [rank t c i] is the number of occurrences of character code [c] in
    [l[0 .. i)].  O(block_lanes / 4) worst case, with [i = 0] and
    [i = length t] answered from precomputed totals. *)

val rank_pair : t -> int -> int -> int -> int * int
(** [rank_pair t c lo hi] is [(rank t c lo, rank t c hi)].  Width-1
    intervals — the bulk of deep mismatching-tree traffic — are answered
    with a single block decode plus an indicator of row [lo]'s own code;
    otherwise the two decodes of a narrow interval share a cache line. *)

val rank_all : t -> int -> int array -> unit
(** [rank_all t i dst] writes [rank t c i] into [dst.(c)] for every
    character code in one block decode.  [dst] must have length [sigma]. *)

val rank_all_pair : t -> int -> int -> int array -> int array -> unit
(** [rank_all_pair t lo hi los his] = [rank_all t lo los; rank_all t hi
    his].  A width-1 interval costs a single block decode plus one
    payload read; other narrow intervals pay two decodes of the same
    cache line. *)

(** {1 Unchecked entry points}

    The same kernels with argument validation hoisted out: the caller
    guarantees [0 <= lo, hi <= length t], [0 <= c < sigma] and the
    destination sizes ([sigma] resp. [>= 2]).  {!Fm_index} validates
    once at its own API boundary and then drives these from loops that
    keep the preconditions invariant, so the per-step checks would be
    pure overhead.  Violating a precondition is undefined behaviour
    (these kernels use unchecked array access internally). *)

val rank_all_pair_unsafe : t -> int -> int -> int array -> int array -> unit
val rank_pair_into_unsafe : t -> int -> int -> int -> int array -> unit

val get : t -> int -> int
(** [get t row] is the character code of BWT position [row] — the packed
    replacement for indexing the [l] string. *)

val lf : t -> int array -> int -> int
(** [lf t c row] is [c.(x) + rank t x row] for [x = get t row]: the LF
    mapping of [row] given the C array [c] (length [sigma]).  One block
    decode, and it allocates nothing, so locate walks can call it per
    step.  Raises [Invalid_argument] if [row] is outside [0, length t). *)

val counts : t -> int array
(** Total occurrences of every character code in the whole BWT (a fresh
    array of length [sigma]); [C]-array construction reads this. *)

val rate : t -> int
(** The {e requested} checkpoint rate (persisted in index headers). *)

val length : t -> int
val space_bytes : t -> int
(** Exact heap footprint of the structure: the interleaved block buffer
    plus superblock counters, sentinel table and totals. *)

(** {1 Persistence hooks}

    The index format (v5) writes the interleaved buffers verbatim, so
    [load] never recounts the text, and the block buffer can be adopted
    {e in place} from an mmap'd section.  Treat the returned buffers as
    read-only. *)

val raw_blocks : t -> Storage.t
val raw_super : t -> int array

val of_raw :
  rate:int -> len:int -> sentinels:int array -> blocks:Storage.t -> super:int array -> t
(** Re-adopt buffers read (or mapped) from an index file.  Validates the
    geometry (buffer sizes for [len] and [rate], sorted sentinels),
    clears payload padding lanes, and verifies every stored checkpoint
    against one sequential table recount of the payload (a
    memory-bandwidth scan; no reconstruction of any kind); raises
    [Invalid_argument] on any mismatch. *)

val of_raw_trusted :
  rate:int ->
  len:int ->
  sentinels:int array ->
  blocks:Storage.t ->
  super:int array ->
  totals:int array ->
  t
(** {!of_raw} minus the O(n) checkpoint recount, for the mmap fast
    path: geometry and sentinel validation and padding clearing still
    happen, but the stored checkpoints are taken at face value and the
    character [totals] (length [sigma], [totals.(0)] = sentinel count,
    summing to [len]) come from the caller — in practice the v5 header,
    whose own CRC has already been checked.  A corrupted payload that
    slips past the file-level CRCs therefore yields wrong answers, not
    crashes: every offset derived from the validated geometry stays in
    bounds.  [kmm verify] re-runs the full {!of_raw} recount. *)

(** {1 Differential reference} *)

(** The seed's byte-scan rank, kept verbatim as the oracle the
    packed kernel is tested against. *)
module Reference : sig
  type t

  val make : ?rate:int -> string -> t
  val rank : t -> int -> int -> int
end
