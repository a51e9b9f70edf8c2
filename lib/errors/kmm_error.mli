(** Typed failure taxonomy shared by the whole pipeline.

    Every durable artifact (the on-disk FM-index, FASTA inputs) and every
    batch layer reports faults through this one variant instead of ad-hoc
    [Failure _] strings, so callers — including the [kmm] CLI, which maps
    each constructor to a distinct exit code — can react to {e what} went
    wrong, not to the wording of a message.

    The constructors are ordered roughly by "distance from the data":
    wrong file type, wrong version, missing bytes, inconsistent bytes,
    failing I/O, bad user input, internal fault. *)

(** The on-disk index is divided into named sections; corruption and
    truncation are attributed to the first section that fails its check. *)
type section =
  | Header  (** the ASCII header line (magic, version, geometry) *)
  | Text_section  (** 2-bit packed text payload *)
  | Rank_blocks  (** interleaved Occ checkpoint blocks *)
  | Superblocks  (** absolute superblock counters *)
  | Forward_blocks  (** checkpoint blocks of the forward rank side *)
  | Forward_superblocks  (** superblock counters of the forward rank side *)
  | Sa_marks  (** sampled-row bitvector *)
  | Sa_samples  (** sampled suffix-array positions *)
  | Trailer  (** whole-file checksum trailer *)

val section_name : section -> string

type t =
  | Bad_magic  (** not a kmm index file at all *)
  | Unsupported_version of int
      (** a kmm index, but a format this build cannot read *)
  | Truncated of string
      (** the file ends before the named section/field is complete *)
  | Corrupt of section * string
      (** the bytes are all there but fail a checksum or invariant *)
  | Io of exn  (** the operating system failed us ([Sys_error], [Unix_error]) *)
  | Bad_input of string  (** malformed user-supplied data (FASTA, reads, patterns) *)
  | Internal of string  (** a bug: an invariant the library itself broke *)
  | Timeout of string
      (** a deadline expired before the work finished; partial work is
          discarded, so a retry (with a larger budget) is safe *)
  | Overloaded of string
      (** the server shed the request before doing any work (admission
          queue full, or draining for shutdown); retryable with backoff *)

exception Error of t
(** The raising channel for contexts where a [result] is impractical.
    [raise_error] and the [try_*] entry points round-trip through it. *)

val raise_error : t -> 'a

val to_string : t -> string
(** One-line human-readable rendering.  Messages are stable prefixes
    ("corrupt index header", "truncated index", "not a kmm FM-index
    file", ...) that predate the typed channel; tests and scripts match
    on them. *)

val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** The [kmm] CLI contract (also in the README table):
    {ul
    {- [2] — [Bad_input]}
    {- [3] — [Bad_magic]}
    {- [4] — [Unsupported_version]}
    {- [5] — [Truncated]}
    {- [6] — [Corrupt]}
    {- [7] — [Io]}
    {- [8] — [Internal]}
    {- [9] — [Timeout]}
    {- [10] — [Overloaded]}}
    [0] is success; [1] and [123..125] stay reserved for the argument
    parser. *)

val equal : t -> t -> bool
(** Structural equality, except [Io]: two [Io] errors compare equal on
    the printed form of their exceptions (an [exn] has no useful
    structural equality). *)
