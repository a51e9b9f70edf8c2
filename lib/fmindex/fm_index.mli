(** FM-index: BWT-based full-text index with backward search and locate.

    Rows of the conceptual Burrows-Wheeler matrix of [s ^ "$"] are numbered
    [0 .. n], and an interval is a half-open row range [(lo, hi)].  Backward
    search extends a matched string one character *to the left*; this is the
    paper's [search(z, L_v)] primitive. *)

type t

type interval = int * int
(** Half-open row range [lo, hi); nonempty iff [lo < hi]. *)

val build : ?occ_rate:int -> ?sa_rate:int -> string -> t
(** Index the DNA text [s] (lowercase [acgt]; the sentinel is appended
    internally).  [occ_rate] is the rank checkpoint spacing (default 32,
    quantized by {!Occ} to a power of two); [sa_rate] the suffix-array
    sampling rate for {!locate} (default 16). *)

val length : t -> int
(** Length of the indexed text (sentinel excluded). *)

val text : t -> string
(** The indexed text.  The index keeps the text 2-bit packed; the
    unpacked string is materialized on first use and cached behind a
    domain-safe memo, so the call is O(n) once and O(1) after, from any
    number of domains. *)

val packed_text : t -> Packed_text.t
(** The indexed text in its native 2-bit packed form — shared with the
    index (possibly an mmap'd view), never copied.  This is what the
    word-parallel verifiers ({!Packed_text.hamming_le}) run against. *)

val bwt : t -> string

val whole : t -> interval
(** The interval of every row, [(0, n+1)]. *)

val extend : t -> int -> interval -> interval option
(** [extend t c (lo, hi)] narrows the interval by prepending character code
    [c]: the result covers exactly the rows whose suffix starts with [c]
    followed by the previous match.  [None] if the extension is empty. *)

val interval_of_char : t -> int -> interval option
(** Rows whose first character is the given code — the paper's [F_x]. *)

val search : t -> string -> interval option
(** Backward search of a pattern; [None] when absent.  Patterns are case
    folded ([ACGT] matches [acgt]); a pattern containing any character
    outside ACGT occurs nowhere and yields [None] rather than raising. *)

val count : t -> string -> int
(** Number of occurrences of a pattern in the text.  Same pattern
    normalization as {!search}: invalid patterns count 0. *)

val longest_extension : t -> int array -> pos:int -> stop:int -> int
(** [longest_extension t codes ~pos ~stop] is the largest [l <= stop - pos]
    such that extending {!whole} by [codes.(pos)], [codes.(pos + 1)], ...,
    [codes.(pos + l - 1)] in turn (each {!extend} prepends its code)
    keeps the interval nonempty; a code outside [1 .. 4] ends the run.
    On the index of a reversed text this is the length of the longest
    prefix of [codes.(pos .. stop - 1)] occurring in the forward text, so
    that window occurs iff the result is [stop - pos].  Allocation free
    per step, with the telemetry of the {!extend} calls it stands for:
    the step that empties the interval counts, a code outside [1 .. 4]
    does not, and no step is taken at [stop].  Raises [Invalid_argument]
    unless [0 <= pos <= stop <= Array.length codes]. *)

val locate : t -> interval -> int list
(** Sorted 0-based starting positions of the suffixes in the interval.
    Rows are resolved through the sampled suffix array by LF-walking. *)

val locate_row : t -> int -> int
(** [locate_row t row] is the text position of the suffix at BWT row
    [row], by an LF walk to the nearest sampled row; it allocates
    nothing.  Raises [Invalid_argument] if [row] is outside
    [0, length t]. *)

val locate_into : t -> interval -> int array -> unit
(** [locate_into t (lo, hi) dst] writes the position of row [lo + i] into
    [dst.(i)] for [i < hi - lo], unsorted and without allocating — the
    batched primitive under {!locate}.  Raises [Invalid_argument] if the
    interval is out of range or [dst] is shorter than [hi - lo]. *)

val find_all : t -> string -> int list
(** [search] then [locate]; sorted positions of the pattern.  Invalid
    patterns (outside ACGT after case folding) yield []. *)

(** {1 Telemetry}

    Hot-path counters for the observability layer ([lib/obs]): rank
    primitives executed, interleaved Occ blocks decoded, and LF-walk
    effort spent by locate.  Counters are kept in {e domain-local}
    storage so concurrent engines never contend and per-domain deltas
    merge to the sequential totals.  The hook is disabled by default;
    when disabled, every instrumented entry point pays one
    load-and-branch (measured < 2% end to end, see EXPERIMENTS.md), and
    flipping the [compiled] constant in the implementation removes even
    that. *)
module Telemetry : sig
  type counters = {
    mutable rank_ops : int;
        (** rank primitives: one per {!extend}/{!extend_all} call, one
            per backward-search step of {!count}, one per LF step of a
            locate walk *)
    mutable block_decodes : int;
        (** interleaved Occ blocks decoded (width-1 intervals decode one
            block, general intervals two) *)
    mutable locate_walks : int;  (** {!locate}d rows (LF walks started) *)
    mutable locate_steps : int;  (** total LF steps across those walks *)
  }

  val set_enabled : bool -> unit
  (** Globally enable/disable the hook.  Set it {e before} spawning
      worker domains; the flag is a process-wide atomic. *)

  val is_enabled : unit -> bool

  val snapshot : unit -> counters
  (** A copy of the calling domain's counters.  Callers measure a region
      by taking a snapshot before and after and {!diff}ing. *)

  val diff : since:counters -> counters -> counters
  (** [diff ~since now] is the per-field difference [now - since]. *)
end

val space_report : t -> (string * int) list
(** Named byte sizes of the index components, one entry per owned buffer
    (packed rank blocks, SA mark bitvector + rank directory, SA samples,
    C array, and the 2-bit packed text); entries sum to the index's
    resident footprint, with no component counted twice.  (A text string
    forced through {!text} is a cache, not an owned component, and is
    not listed.) *)

val extend_all : t -> lo:int -> hi:int -> los:int array -> his:int array -> unit
(** One-pass variant of {!extend} for every character code at once:
    afterwards the extension of the interval [[lo, hi)] by code [c] is
    [(los.(c), his.(c))], nonempty iff [los.(c) < his.(c)].  Both arrays
    must have length 5 (the alphabet size).  Costs two block scans
    instead of eight, and allocates nothing: the bounds are passed
    unboxed, not as an {!interval}. *)

(** {1 Persistence}

    The on-disk format is {b v4}: a CRC-guarded ASCII header carrying a
    section-offset table, then the 2-bit packed text, the interleaved
    rank blocks, the superblock counters, and the SA mark bitvector and
    samples — the index's own buffers written verbatim at 8-byte-aligned
    offsets — plus an 8-byte trailer ([kmm4] + the CRC-32 of the whole
    preceding file).  The alignment and offset table exist so the bulk
    sections can be adopted {e in place} from [Unix.map_file]: see
    {!mode}.  Any single-byte corruption or truncation of a v4 file is
    detected by the Copy-mode reader with a typed {!Kmm_error.t}.
    v4 is the only format read or written: a file of the retired
    formats v1–v3 fails in both modes with
    [Unsupported_version], and the index is rebuilt with [kmm index]. *)

type sink = {
  sink_write : string -> unit;  (** append a chunk; may raise *)
  sink_flush : unit -> unit;  (** flush + fsync barrier before rename; may raise *)
}
(** The byte stream [save] writes through.  Test harnesses interpose on
    it (via the [wrap] argument) to inject I/O faults — ENOSPC, crashes,
    short or corrupted writes — without touching the production path. *)

val serialize : t -> string
(** The complete v4 file image in memory — what {!save} writes and
    {!try_of_string} parses.  Separated from file I/O so corruption
    sweeps and fuzzers can work on images directly. *)

val save : ?fsync:bool -> ?wrap:(sink -> sink) -> t -> string -> unit
(** Persist the index to [path] in format v4, {b atomically}: the image
    is streamed to a fresh temp file in the same directory, flushed and
    fsynced ([fsync] defaults to [true]), and renamed over [path] only
    then.  If anything fails mid-save — disk full, a crash simulated by
    a [wrap]-injected fault, an exception from the OS — the temp file is
    removed and [path] keeps its previous contents (or stays absent);
    all fds are released via [Fun.protect] on every path.  The saved
    file is readable by other users: the temp file's 0o600 creation mode
    is widened to 0o644 masked by the process umask before the data is
    written. *)

val write_atomic : ?fsync:bool -> ?wrap:(sink -> sink) -> string -> string -> unit
(** [write_atomic image path]: the atomic temp-file + fsync + rename
    protocol of {!save}, for any byte image.  The corpus manifest writer
    reuses it so shard files and manifests get the same crash-safety and
    permission guarantees as index files. *)

val try_of_string : string -> (t, Kmm_error.t) result
(** Parse a v4 index image with the full Copy-mode verification and
    adopt its buffers directly (structural validation, no
    reconstruction).  Never raises on bad input: a forged header,
    flipped byte, truncation or trailing garbage comes back as [Error]
    with the failing section attributed — and never as [Out_of_memory],
    [End_of_file] or a silently wrong index.  Any version other than 4
    is [Error (Unsupported_version v)]. *)

type mode =
  | Copy  (** read the whole file and adopt heap copies *)
  | Mmap  (** map the file and adopt the bulk sections in place *)

val try_load : ?mode:mode -> string -> (t, Kmm_error.t) result
(** Read and parse a file: {!try_of_string} plus an [Error (Io _)] for
    filesystem failures.  The fd is released on every path (an mmap'd
    index keeps its pages alive without the fd).

    [mode] (default [Copy]) selects the adoption strategy.  [Copy] runs
    the full verification: header CRC, per-section CRCs, whole-file
    trailer CRC and the structural recount.  [Mmap] validates the
    header (CRC + geometry), the exact file size and the trailer magic —
    so truncation and header corruption are still typed errors — but
    trusts the bulk payloads, skipping everything O(n): cold-start
    becomes O(header + superblocks + marks) and the OS shares the
    mapped pages across processes.  Run [kmm verify] (or a [Copy] load)
    when payload integrity must be proven.  Both modes run the same
    header checks, so a v1–v3 file fails either way with
    [Unsupported_version]. *)

val load : ?mode:mode -> string -> t
(** Raising wrapper over {!try_load}, kept for callers that prefer
    exceptions: raises [Failure] with a descriptive message on a file
    that is not a valid index, and re-raises the original exception
    ([Sys_error]/[Unix_error]) when the file cannot be read at all. *)
