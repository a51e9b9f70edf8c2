(** The paper's mismatching tree (M-tree) as a literal data structure
    (Definitions 2-4, Fig. 7), plus the per-path mismatch arrays [B_l] of
    SS:IV.A (Fig. 3).

    {!M_tree} is the production engine; this module materializes the
    paper's objects exactly — maximal match sub-paths collapsed into
    single [<-, 0>] nodes, one [<x, i>] node per mismatching search-tree
    node — for inspection, teaching, and the fidelity tests that check the
    paper's worked example (r = tcaca against s = acagaca with k = 2). *)

type node = {
  label : [ `Match  (** the collapsed [<-, 0>] node *) | `Mismatch of char * int ];
  children : node list;
}

type path = {
  mismatches : int list;
      (** 1-based pattern positions of the path's mismatches — the
          non-empty prefix of the paper's array [B_l] *)
  complete : bool;
      (** true when the path spans the whole pattern (an occurrence
          group); false when it died on its (k+1)-th mismatch or ran out
          of text *)
  occurrences : int list;
      (** starting positions in the target, for complete paths *)
}

type t = { root : node; paths : path list }

val build : Fmindex.Fm_index.t -> pattern:string -> k:int -> t
(** Explore the S-tree of the pattern over the index of the *reversed*
    target and assemble the M-tree, recording every maximal path.  Paths
    are cut one mismatch *after* the budget (the paper stores the full
    [B] of k+1 entries before backtracking).  Same argument contract as
    {!M_tree.search}. *)

val count_nodes : node -> int
val leaves : t -> int
(** Number of paths (the paper's n'). *)

val pp : Format.formatter -> node -> unit
(** ASCII rendering of the tree, one node per line. *)
