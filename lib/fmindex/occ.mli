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
    - the one sentinel ['$'] is not stored in the payload at all: its
      row index is kept out-of-band and rank queries adjust around it.

    The external contract is unchanged from the seed: codes are the
    {!Dna.Alphabet} codes over [$acgt] and indices are BWT positions with
    the sentinel {e included}, so every call site gets the packed kernel
    for free. *)

type t

val make : ?rate:int -> string -> t
(** [make l] preprocesses the BWT string [l] (over [$acgt], case folded),
    which must hold exactly one sentinel ([Invalid_argument]
    otherwise).  [rate] (default 32) is the requested checkpoint
    spacing; must be positive.  It is rounded up to a power of two in
    32..65536. *)

val of_packed : ?rate:int -> sentinel:int -> Packed_text.t -> t
(** [of_packed pt ~sentinel] builds the structure straight from a packed
    payload, avoiding any byte-per-base intermediate.  [sentinel] is the
    {e BWT row index} that holds the sentinel, in [0, length pt]; the
    payload holds every other row in order. *)

val rank : t -> int -> int -> int
(** [rank t c i] is the number of occurrences of character code [c] in
    [l[0 .. i)].  O(block_lanes / 4) worst case, with [i = 0] and
    [i = length t] answered from precomputed totals. *)

(** {1 Pair kernels}

    Rank at both ends of an interval in one call, without argument
    checks: the caller guarantees [0 <= lo, hi <= length t],
    [0 <= c < sigma] and the destination sizes ([sigma] resp. [>= 2]).
    {!Fm_index} validates once at its own API boundary and then drives
    these from loops that keep the preconditions invariant, so per-step
    checks would be pure overhead.  Violating a precondition is
    undefined behaviour (these kernels use unchecked array access
    internally).  A width-1 interval — the bulk of deep
    mismatching-tree traffic — costs a single block decode plus one
    payload read; the two decodes of another narrow interval share a
    cache line. *)

val rank_all_pair_unsafe : t -> int -> int -> int array -> int array -> unit
(** [rank_all_pair_unsafe t lo hi los his] writes [rank t c lo] into
    [los.(c)] and [rank t c hi] into [his.(c)] for every code [c]. *)

val rank_pair_into_unsafe : t -> int -> int -> int -> int array -> unit
(** [rank_pair_into_unsafe t c lo hi dst] writes [rank t c lo] into
    [dst.(0)] and [rank t c hi] into [dst.(1)]. *)

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
    plus superblock counters, sentinel row and totals. *)

(** {1 Persistence hooks}

    The index format (v5) writes the interleaved buffers verbatim, so
    [load] never recounts the text, and the block buffer can be adopted
    {e in place} from an mmap'd section.  Treat the returned buffers as
    read-only. *)

val raw_blocks : t -> Storage.t
val raw_super : t -> int array

val of_raw :
  rate:int ->
  len:int ->
  sentinel:int ->
  blocks:Storage.t ->
  super:int array ->
  totals:int array ->
  t
(** Adopt buffers from an index image, heap or mmap'd, without copying
    them.  Validates the geometry (buffer sizes for [len] and [rate],
    the sentinel row in [0, len)) and the character [totals] (length
    [sigma], [totals.(0) = 1], none negative, summing to [len]), and
    clears payload padding lanes; raises [Invalid_argument] otherwise.
    The stored checkpoints and [totals] are taken as they are — in
    practice from the v5 header, whose own CRC has been checked — so
    a corrupted payload yields wrong answers, not crashes: every
    offset derived from the validated geometry stays in bounds.
    {!recount} checks them. *)

val recount : t -> int array
(** [recount t] recounts the payload in one pass (one table lookup per
    4 lanes, no reconstruction) and checks every stored checkpoint
    (superblock counters and per-block counts) against it, raising
    [Invalid_argument] at the first that disagrees.  Returns the
    recounted totals of every code, for the caller to compare with
    {!counts}.  {!of_packed} stores its checkpoints through the same
    loop. *)

(** {1 Differential reference} *)

(** The seed's byte-scan rank, kept verbatim as the oracle the
    packed kernel is tested against. *)
module Reference : sig
  type t

  val make : ?rate:int -> string -> t
  val rank : t -> int -> int -> int
end
