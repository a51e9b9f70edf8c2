(** Cross-engine differential fuzzing oracle.

    The library's central invariant is that every engine in
    {!Kmismatch.all_engines} returns *exactly* the same
    [(position, distance)] set for any [(text, pattern, k)] query — the
    paper's Algorithm A is only interesting because it matches the naive
    answer while doing less work.  This module enforces that invariant
    mechanically:

    - seeded {e generators} produce random and adversarial cases
      (periodic texts, homopolymer runs, [pattern] ≈ [text] length,
      [k = 0], [k >= m], single-character genomes, windows hugging the
      text boundaries, planted near-matches);
    - a {e checker} runs every engine — plus the packed verification
      kernel and the FM-index subjects — against the naive Hamming
      reference and reports divergences;
    - a {e shrinker} greedily minimizes any failing case to a smallest
      reproducer;
    - a tiny {e corpus} text format ([test/corpus/*.case]) persists
      reproducers so [dune runtest] replays them deterministically
      forever after.

    The same harness backs [kmm fuzz] on the command line. *)

type case = { text : string; pattern : string; k : int }
(** One query.  Invariants (enforced by {!make_case} and the corpus
    parser): [text] and [pattern] are lowercase [acgt], [pattern] is
    nonempty and [k >= 0].  [text] may be shorter than [pattern] (all
    engines must then agree on the empty answer). *)

val make_case : text:string -> pattern:string -> k:int -> case
(** Normalizes case (upper to lower) and validates the invariants above.
    Raises [Invalid_argument] on empty patterns, [k < 0] or non-ACGT
    characters. *)

val case_to_string : case -> string
val pp_case : Format.formatter -> case -> unit

(** {1 Reference answer} *)

val reference : case -> (int * int) list
(** The naive O(mn) Hamming scan: all [(position, distance)] with
    [distance <= k], ascending by position.  Every subject must
    reproduce this list exactly. *)

(** {1 Subjects under test} *)

type subject = {
  sub_name : string;
  run : Kmismatch.index -> case -> (int * int) list option;
      (** [None] means "not applicable to this case" (e.g. the
          exact-match [find_all] subject on a case with [k > 0]); the
          subject is then skipped, not failed.  Exceptions
          escaping [run] are recorded as divergences. *)
}

val default_subjects : unit -> subject list
(** Every engine of {!Kmismatch.all_engines} (a registry snapshot, so
    engines registered after startup join automatically) plus a
    [packed-verify] subject that answers every case by scanning all
    windows with the word-parallel kernel
    ({!Fmindex.Packed_text.hamming}, limit [k]), plus three
    packed-FM-index subjects: a forward-index [find_all] check on
    [k = 0] cases, a save/load roundtrip (current on-disk format,
    reloaded by Copy and by Mmap, each queried through m-tree and bidir;
    the four answers must agree), and an [fm-image-corruption] subject
    that serializes the index and verifies that each of a
    pseudo-random battery of image corruptions (bit flips, truncations,
    ENOSPC prefixes) is either rejected with a typed error or decodes
    to identical contents, plus a [mapper] subject: {!Mapper.run} maps
    the pattern and its reverse complement as two reads with m-tree and
    bidir, on one and on two domains, and every read's hits on each
    strand must equal the naive scan of the text for it or for its
    reverse complement (a read equal to its own reverse complement is
    reported once; a read longer than the text is skipped as bad
    input). *)

(** {1 Checking} *)

type outcome =
  | Hits of (int * int) list
  | Engine_error of string  (** the subject raised; message recorded *)

type divergence = {
  div_case : case;
  div_subject : string;
  expected : (int * int) list;
  got : outcome;
}

val pp_divergence : Format.formatter -> divergence -> unit

val check_case : ?subjects:subject list -> case -> divergence list
(** Build one shared index for [case.text], run every subject, and
    return all divergences from {!reference} (empty list = agreement). *)

(** {1 Case generators} *)

type gen_class =
  | Uniform  (** i.i.d. random text and pattern *)
  | Planted  (** pattern copied from the text with a few mutations *)
  | Periodic  (** text is a short unit repeated; pattern related *)
  | Homopolymer  (** long single-letter runs in text and pattern *)
  | Near_full  (** pattern length close to (or equal to, or above) [n] *)
  | Boundary  (** pattern sampled hugging position 0 or [n - m] *)
  | Zero_k  (** exact matching, [k = 0] *)
  | Big_k  (** degenerate budget, [k >= m]: every window matches *)
  | Single_char  (** single-character genome and/or pattern *)
  | Repeats
      (** near-identical (1-3% diverged) copies of one to three units;
          a 30-150 bp pattern cut from one copy with up to [k + 1]
          substitutions, [k] up to 6 *)

val all_classes : gen_class list
val class_name : gen_class -> string

val generate : ?classes:gen_class list -> ?max_text:int -> Random.State.t -> case
(** Draw one case: pick a class uniformly from [classes] (default
    {!all_classes}), then sample from it.  Text length is at most
    [max_text] (default 160) and at least 0; patterns stay short enough
    to keep the naive reference fast. *)

(** {1 Shrinking} *)

val shrink : ?max_evals:int -> (case -> bool) -> case -> case
(** [shrink still_fails c] greedily minimizes [c] under the predicate:
    chunk-deletes text and pattern, lowers [k], and rewrites characters
    to ['a'], looping to a fixpoint.  [still_fails c] must hold on
    entry; the result also satisfies it.  At most [max_evals]
    (default 4000) predicate evaluations are spent. *)

val shrink_divergence : ?subjects:subject list -> divergence -> case
(** Minimize the case of a recorded divergence: shrinks under
    "the named subject still disagrees with the reference". *)

(** {1 Fuzz driver} *)

type report = {
  iters_run : int;
  by_class : (string * int) list;  (** cases drawn per generator class *)
  divergences : divergence list;
      (** shrunk; at most one per subject name (first hit wins) *)
}

val fuzz :
  ?subjects:subject list ->
  ?classes:gen_class list ->
  ?max_text:int ->
  ?progress:(int -> unit) ->
  seed:int ->
  iters:int ->
  unit ->
  report
(** Run [iters] generated cases from the seeded PRNG.  Every divergence
    is shrunk before being reported; subjects that already diverged are
    still checked on later cases but only their first divergence is
    kept.  [progress] is called with the 1-based iteration number. *)

(** {1 Regression corpus} *)

val corpus_to_string : ?comment:string list -> case -> string
(** Serialize a case in the [.case] format: optional leading [#]
    comment lines, then [k <int>], [pattern <acgt>], [text <acgt>]
    lines ([text] may be empty).  Designed to be written by hand. *)

val corpus_of_string : string -> (case, string) result
(** Parse a [.case] document; [Error msg] on malformed input. *)

val save_case : ?comment:string list -> string -> case -> unit
(** Write a reproducer file.  The comment lines (without the leading
    [#]) are prepended. *)

val load_case : string -> case
(** Read one [.case] file.  Raises [Failure] with the parse error. *)

val replay_file : ?subjects:subject list -> string -> divergence list
(** {!load_case} then {!check_case}. *)

val replay_dir : ?subjects:subject list -> string -> (string * divergence list) list
(** Replay every [*.case] file under a directory (sorted by name);
    returns per-file divergences.  Missing directory = empty list. *)
