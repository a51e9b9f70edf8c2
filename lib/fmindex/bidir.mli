(** Bidirectional FM-index: synchronized forward and reverse SA-intervals
    over one 2-bit packed payload pair.

    A unidirectional FM-index extends a match in one direction only (the
    paper's [search()] prepends characters).  The bidirectional index of
    Lam et al. keeps {e two} intervals in lockstep for the matched
    substring α of the text [s]:

    - the {e forward} interval: rows of the BWT matrix of [s ^ "$"] whose
      suffix starts with α;
    - the {e reverse} interval: rows of the BWT matrix of [rev s ^ "$"]
      whose suffix starts with [rev α].

    Both intervals always have the same width (each counts the
    occurrences of α in [s]), and either can be updated after an
    extension of α on {e either} side from one rank-all pass:
    prepending a character narrows the forward interval by a classic
    backward step over [BWT(s)], and the reverse interval is re-derived
    from the per-character occurrence counts of that same pass, because
    inside the reverse interval rows are grouped by the character that
    {e follows} [rev α] — in code order, sentinel first.  Appending is
    the mirror image through [BWT(rev s)].

    This is the primitive under optimum search schemes ({!Core.Oss}
    executes them): a pattern piece in the middle can be matched first
    and then grown to the left and right in any order, which is what
    lets a scheme force early exact pieces and prune mismatch branching
    far earlier than any unidirectional walk.

    The reverse side reuses the index the rest of the system already
    has — {!Fm_index.t} of the reversed text, SA samples included, so
    candidate occurrences are located through the existing sampled-SA
    walk.  The forward side is that index's {!Fm_index.forward_occ}
    (rank blocks over [BWT(s)], built at index time and persisted with
    it): it never locates, so it carries no SA samples.  Both
    directions extend through {!Fm_index}'s rank-all pair kernel, so
    every extension is counted in its [fm.*] taps. *)

type t

val make : Fm_index.t -> t
(** [make fm_rev] pairs [fm_rev], the index of the {e reversed} text,
    with the forward rank side it carries.  O(1): nothing is built or
    copied (the {!prefix_table} is built on first use), so a loaded
    index (Copy or Mmap) answers its first bidirectional query without
    any suffix sorting. *)

val length : t -> int
(** Length of the indexed text. *)

val fm_rev : t -> Fm_index.t
(** The shared reverse-text index (the locate-capable side). *)

(** {1 Extension}

    A match α is carried by the caller as its synchronized interval
    pair: the forward interval [[f_lo, f_hi)] (rows of suffixes of [s]
    starting with α) and the reverse interval [[r_lo, r_hi)] (rows of
    suffixes of [rev s] starting with [rev α]), always of the same width
    — the number of occurrences of α.  The empty match is [[0, n + 1)]
    on both sides.  The rank-all form mirrors {!Fm_index.extend_all}:
    one call derives the child pairs of all four bases at once from a
    single rank-all pass per side, into a caller-owned {!cursor}; the
    caller reads each child straight off it.  Nothing here allocates. *)

type cursor
(** Scratch holding the four child interval pairs of one extension. *)

val cursor : unit -> cursor

val extend_left_all :
  t -> cursor -> f_lo:int -> f_hi:int -> r_lo:int -> r_hi:int -> unit
(** Fill the cursor with the children of prepending each base to α
    (one rank-all pair over [BWT(s)], through
    {!Fm_index.extend_forward_all} — its taps count these).  Raises
    [Invalid_argument] if the pair is out of range or its sides differ
    in width. *)

val extend_right_all :
  t -> cursor -> f_lo:int -> f_hi:int -> r_lo:int -> r_hi:int -> unit
(** Fill the cursor with the children of appending each base to α
    (one rank-all pair over [BWT(rev s)], through the shared
    {!Fm_index.extend_all} — its taps count these). *)

val f_lo : cursor -> int -> int
(** [f_lo cur c] is the forward interval start of the child for base
    code [c] ({!Dna.Alphabet} codes 1..4) from the last [extend_*_all]
    on [cur]; the child is empty iff [f_lo cur c >= f_hi cur c]. *)

val f_hi : cursor -> int -> int
val r_lo : cursor -> int -> int
val r_hi : cursor -> int -> int

(** {1 Prefix table}

    The synchronized pair of every q-mer, so a search that opens with
    an exact piece of at least q bases starts q extensions down instead
    of at the empty match (Bowtie's [ftab]). *)

val prefix_len : t -> int
(** q = min 8 (⌊log4 n⌋ − 3) for a text of length n — at least 64
    expected occurrences per q-mer — or 0 (no table) below 256 bases. *)

val prefix_table : t -> int array
(** The table, built on first call by one depth-q walk of
    {!extend_right_all} from the empty match (at most 4^q / 3 extends,
    about n / 192) and shared after that, from any number of domains.
    The q-mer with base codes [c_0 .. c_(q-1)] (1..4) has key
    [Σ (c_i - 1) · 4^(q-1-i)]; slots [3·key], [3·key + 1] and
    [3·key + 2] hold its [f_lo], [r_lo] and width, so its pair is
    [[f_lo, f_lo + width)] / [[r_lo, r_lo + width)].  A q-mer that does
    not occur has width 0.  Length [3 · 4^q] (at most 1.5 MiB); empty
    when q = 0.  The build's {!Fm_index} taps count into no sink. *)

val prefix_table_built : t -> bool
(** Whether {!prefix_table} has been built: a daemon builds it before
    it accepts its first query. *)
