(** FM-index: BWT-based full-text index with backward search and locate.

    Rows of the conceptual Burrows-Wheeler matrix of [s ^ "$"] are numbered
    [0 .. n], and an interval is a half-open row range [(lo, hi)].  Backward
    search extends a matched string one character *to the left*; this is the
    paper's [search(z, L_v)] primitive.

    Extensions use one of two rank primitives, on either rank side, and
    both are counted alike.  A step that branches on all four codes is
    the rank-all pair kernel ({!Occ.rank_all_pair_unsafe}) at both ends
    of the interval, offset by the C array: {!extend_all} and
    {!extend_forward_all} are its checked entries.  A step along one
    code is {!Occ}'s checked one-code rank: {!search}, {!count} and
    {!longest_left_extension} take {!Occ.rank} of the prepended code at
    both ends, and {!extend_row} and the LF walk take {!Occ.lf} of a
    row's own code.  Every locate is one lockstep LF walk
    ({!locate_rows}). *)

type t

type interval = int * int
(** Half-open row range [lo, hi); nonempty iff [lo < hi]. *)

val build : ?occ_rate:int -> ?sa_rate:int -> string -> t
(** Index the DNA text [s] (lowercase [acgt]; the sentinel is appended
    internally).  [occ_rate] is the rank checkpoint spacing (default 32,
    quantized by {!Occ} to a power of two); [sa_rate] the suffix-array
    sampling rate for the locate walks (default 16).

    The index also carries the {e forward side}: the rank blocks of
    BWT([rev s]) at checkpoint rate 128, which {!Bidir} and
    {!longest_left_extension} prepend through (for the system's index
    of a reversed genome that is the BWT of the genome itself).
    Building it is a second SA-IS pass; for a text of at least 64 Ki
    bases the two passes run at once, the second on a helper domain
    (on the caller's when the runtime refuses one).  The result is the
    same either way, byte for byte.

    Each pass sorts in 32-bit cells outside the OCaml heap (4 bytes per
    base) beside a byte per base of codes and the sort's type bytes.
    The index does not keep [s]: {!text} unpacks it on demand.  Raises
    [Invalid_argument] on a non-[acgt] character, a nonpositive
    [sa_rate], or a text longer than {!max_length}. *)

val max_length : int
(** [2{^31} - 3]: the longest text {!build} indexes, so that the text
    and its sentinel fit the suffix sort's 32-bit cells. *)

val forward_occ : t -> Occ.t
(** The forward side: rank blocks over BWT([rev s]) with its sentinel
    row, built at index time and adopted by both loaders like the rest
    of the index.  Rank-only: no SA samples are kept for it; queries
    reach it through {!extend_forward_all} and
    {!longest_left_extension}. *)

val length : t -> int
(** Length of the indexed text (sentinel excluded). *)

val packed_text : t -> Packed_text.t
(** The indexed text in its native 2-bit packed form — shared with the
    index (possibly an mmap'd view), never copied.  This is what the
    word-parallel verifiers ({!Packed_text.hamming}) run against. *)

val bwt : t -> string

val whole : t -> interval
(** The interval of every row, [(0, n+1)]. *)

val search : t -> string -> interval option
(** Backward search of a pattern; [None] when absent.  Patterns are case
    folded ([ACGT] matches [acgt]); a pattern containing any character
    outside ACGT occurs nowhere and yields [None] rather than raising,
    without a rank step.  Each step ranks the prepended code at both
    ends ({!Occ.rank}; a width-1 interval ranks its low end and reads
    its row's code, one block decode), counted like one {!extend_all}
    (the step that empties the interval included); a step allocates
    nothing. *)

val count : t -> string -> int
(** Number of occurrences of a pattern in the text: the width of
    {!search}'s interval, 0 when it is [None], by the same steps and
    with the same counts. *)

val longest_left_extension : t -> int array -> stop:int -> int
(** [longest_left_extension t codes ~stop] is the largest [l <= stop]
    such that backward search on the forward side ({!forward_occ}) from
    the whole interval, prepending [codes.(stop - 1)],
    [codes.(stop - 2)], ..., [codes.(stop - l)] in turn, keeps the
    interval nonempty; a code outside [1 .. 4] ends the run.  The
    forward side is the BWT of the reversed text, so on the index of a
    reversed text this is the length of the longest suffix of
    [codes.(0 .. stop - 1)] occurring in the forward text, and when
    [l < stop] the window [codes.(stop - l - 1 .. stop - 1)] is the
    shortest one ending at [stop - 1] that does not occur.  Each step
    ranks the prepended code at both ends, like {!search}, and is
    counted like one {!extend_forward_all}: the step that empties the
    interval counts, a code outside [1 .. 4] does not.  It allocates
    nothing.  Raises [Invalid_argument] unless
    [0 <= stop <= Array.length codes], and, through {!Occ.rank}, when
    a step leaves the forward side's rows, which only a corrupt forward
    side adopted by [Mmap] can make. *)

val locate_rows : t -> int array -> len:int -> unit
(** [locate_rows t rows ~len] replaces each row [rows.(i)], [i < len],
    with the text position of its suffix, without allocating: each row
    LF-walks to the nearest sampled row.  The rows walk in lockstep, one
    step per round for every row not yet at a sampled row, so the walks'
    cache misses overlap; a single row ([len = 1]) is the plain walk.  Rows may repeat and come in any order.
    Raises [Invalid_argument] unless [0 <= len <= Array.length rows]
    and every row is in [0, length t]. *)

val locate_into : t -> interval -> int array -> unit
(** [locate_into t (lo, hi) dst] writes the position of row [lo + i] into
    [dst.(i)] for [i < hi - lo], unsorted and without allocating: the
    lockstep walk of {!locate_rows} over the interval's rows, and the
    batched primitive under {!find_all}.  Raises [Invalid_argument] if the
    interval is out of range or [dst] is shorter than [hi - lo].

    Every LF walk ({!locate_rows}, {!locate_into}, {!find_all}) reaches a sampled row within [sa_rate] steps on an
    intact index.  One that does not, which only an index adopted by
    [Mmap] with a corrupt marks or rank payload can make, raises
    [Kmm_error.Error (Corrupt (Sa_marks, _))]. *)

val find_all : t -> string -> int list
(** [search] then {!locate_into}; sorted positions of the pattern.  Invalid
    patterns (outside ACGT after case folding) yield []. *)

(** {1 Counters}

    When {!Obs.set_taps} has armed the taps, the query paths count into
    the calling domain's ambient sink ({!Obs.with_ambient}):
    [fm.rank_ops] (one per extension — each {!extend_all},
    {!extend_forward_all} and {!extend_row} call and each
    backward-search step of {!search}, {!count} or
    {!longest_left_extension} — and one per LF step of a locate walk),
    [fm.block_decodes] (interleaved Occ blocks decoded: one for a
    width-1 interval, two otherwise, one per LF step), [fm.locate_walks] (rows located) and [fm.locate_steps]
    (LF steps across them).  Disarmed, each entry point pays one load
    and a branch. *)

module Telemetry : sig
  val set_enabled : bool -> unit
  (** {!Obs.set_taps} under its old name, kept for
      [perfbench/layers.ml], its only caller. *)
end

val space_report : t -> (string * int) list
(** Named byte sizes of the index components, one entry per owned buffer
    (packed rank blocks, the forward side's rank blocks, SA mark
    bitvector + rank directory, bit-packed SA samples, C array, and the
    2-bit packed text); entries sum to the index's resident footprint,
    with no component counted twice.  (A text string forced through
    {!text} is a cache, not an owned component, and is not listed.) *)

val extend_all : t -> lo:int -> hi:int -> los:int array -> his:int array -> unit
(** Prepend every character code at once: afterwards the extension of
    the interval [[lo, hi)] by code [c] — the rows whose suffix starts
    with [c] followed by the previous match — is [(los.(c), his.(c))],
    nonempty iff [los.(c) < his.(c)]; from {!whole} it is the paper's
    [F_c].  Both arrays must have length 5 (the alphabet size).  Costs
    two block scans, and allocates nothing: the bounds are passed
    unboxed, not as an {!interval}.  Raises [Invalid_argument] if the
    interval is not within [0, n+1] or an array has another length. *)

val extend_forward_all : t -> lo:int -> hi:int -> los:int array -> his:int array -> unit
(** {!extend_all} on the forward side ({!forward_occ}): the same kernel,
    C array and counts over BWT([rev s]), for {!Bidir}'s prepends. *)

val extend_row : t -> int -> int
(** [extend_row t row] is {!extend_all} of the single-row interval
    [(row, row + 1)].  That interval has at most one nonempty child: the
    row's own BWT code [c] (1..4) at its LF row [r], returned as
    [(r lsl 3) lor c].  The sentinel row has none and gives [-1].  It
    reads the code and [r] with one block decode, counts as one
    [fm.rank_ops] and one [fm.block_decodes] like the width-1
    {!extend_all}, and allocates nothing.  Raises [Invalid_argument] if
    [row] is outside [0, length t]. *)

(** {1 Persistence}

    The on-disk format is {b v5}: a CRC-guarded ASCII header carrying a
    section-offset table, then seven sections — the 2-bit packed text,
    the interleaved rank blocks and superblock counters of the located
    side, the same two of the forward side ({!forward_occ}), and the SA
    mark bitvector and samples — the index's own buffers written
    verbatim at 8-byte-aligned offsets, plus an 8-byte trailer ([kmm5]
    + the CRC-32 of the whole preceding file).  SA samples are
    bit-packed: every sampled row but row 0 sits at a multiple of
    [sa_rate], so its position divided by [sa_rate] is stored in
    ⌈log2(n/sa_rate + 1)⌉ bits (18 at 4 Mbp) instead of a 64-bit word.
    At the default rates a file costs about 1.33 bytes per base.  The
    alignment and offset table exist so the bulk sections can be
    adopted {e in place} from [Unix.map_file]: see {!mode}.  One
    layout function places the sections when writing and checks the
    section table when reading, and one reader serves both modes: it
    validates the header of a byte image of the file and adopts every
    section as a view into it.  Any single-byte corruption or
    truncation of a v5 file is detected by a Copy load with a typed
    {!Kmm_error.t}; both modes refuse a header whose forward totals
    differ from the character totals (both BWTs permute [s$]), a
    forward sentinel row outside [0, n] and a non-positive forward
    rate.  v5 is the only format read or written: a file of the retired
    formats v1–v4 fails in both modes with [Unsupported_version], and
    the index is rebuilt with [kmm index]. *)

type sink = {
  sink_write : string -> int -> int -> unit;
      (** [sink_write image off len] appends [image.[off .. off+len-1]]
          in place; may raise *)
  sink_flush : unit -> unit;  (** flush + fsync barrier before rename; may raise *)
}
(** The byte stream [save] writes through.  Test harnesses interpose on
    it (via the [wrap] argument) to inject I/O faults — ENOSPC, crashes,
    short or corrupted writes — without touching the production path. *)

val serialize : t -> string
(** The complete v5 file image in memory — what {!save} writes and
    {!try_of_string} parses.  The header, padding and sections are
    written into one buffer of the image's length, every CRC taken in
    place, so the image is the one thing it allocates.  Separated from
    file I/O so corruption sweeps and fuzzers can work on images
    directly. *)

val save : ?fsync:bool -> ?wrap:(sink -> sink) -> t -> string -> unit
(** Persist the index to [path] in format v5, {b atomically}: the image
    is streamed to a fresh temp file in the same directory, flushed and
    fsynced ([fsync] defaults to [true]), and renamed over [path] only
    then.  If anything fails mid-save — disk full, a crash simulated by
    a [wrap]-injected fault, an exception from the OS — the temp file is
    removed and [path] keeps its previous contents (or stays absent);
    all fds are released via [Fun.protect] on every path.  The saved
    file is readable by other users: the temp file's 0o600 creation mode
    is widened to 0o644 masked by the process umask before the data is
    written. *)

val try_of_string : string -> (t, Kmm_error.t) result
(** A [Copy] load (see {!mode}) of an in-memory image: the image is
    copied into one buffer, verified in full and adopted (structural
    validation, no reconstruction).  Never raises on bad input: a
    forged header, flipped byte, truncation or trailing garbage comes
    back as [Error] with the failing section attributed — and never as
    [Out_of_memory], [End_of_file] or a silently wrong index.  Any
    version other than 5 is [Error (Unsupported_version v)]. *)

type mode =
  | Copy
      (** read the file into one buffer and verify it in full: the
          trailer, whole-file and section CRCs before adoption, then
          {e recount}, a pass over the adopted index that recounts both
          sides' checkpoints, the text's bases against the BWT's and
          the header totals, and checks every sample's range *)
  | Mmap  (** map the file and adopt it in place, without those checks *)
(** How {!try_load} gets the file's bytes and how much of them it
    checks.  Both modes run one prologue over the image — header CRC,
    geometry, exact file size, trailer magic — and one adoption path
    that views every section in place; they differ only in the checks
    [Copy] adds.  So truncation and header corruption are typed errors
    in both, and a v1–v4 file fails either way with
    [Unsupported_version]. *)

val try_load : ?mode:mode -> string -> (t, Kmm_error.t) result
(** Read and parse a file: [Error (Io _)] for filesystem failures, a
    typed error for a file that is not a valid index.  The fd is
    released on every path (an mmap'd index keeps its pages alive
    without the fd).

    [mode] defaults to [Copy]: the file is read to end of file into one
    buffer outside the OCaml heap — its reported size is never trusted,
    so a proc-style file or one that shrinks mid-read is read for what
    it holds — verified and adopted, so nothing of the image is copied
    onto the heap.  [Mmap] trusts the bulk payloads, skipping
    everything O(n): cold start becomes O(header + superblocks + marks)
    and the OS shares the mapped pages across processes.  Run
    [kmm verify] (or a [Copy] load) when payload integrity must be
    proven. *)
