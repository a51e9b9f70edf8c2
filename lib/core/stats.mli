(** Instrumentation counters shared by the search engines.

    The paper's complexity claims are phrased in terms of the number of
    leaf nodes of the produced tree ([n'] in O(kn' + n)) and, implicitly,
    the number of [search()] (rank) operations avoided; these counters let
    the benchmarks report exactly those quantities (Table 2). *)

type t = {
  mutable nodes : int;  (** search/mismatch-tree nodes created *)
  mutable leaves : int;
      (** paths terminated during exploration.  In the BWT search
          trees ([M_tree] and both [S_tree] engines), a root none of
          whose children survives the budget has no path and counts no
          leaf. *)
  mutable rank_calls : int;  (** FM-index [extend] invocations *)
  mutable derivations : int;  (** subtrees derived instead of explored *)
  mutable derived_leaves : int;  (** path terminations inside derivations *)
  mutable resumes : int;  (** real searches resumed inside derivations *)
}

val create : unit -> t

val reset : t -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] adds every counter of [src] into [into].  All
    counters are sums over per-search increments, so merging per-domain
    accumulators yields exactly the counters a sequential run would have
    produced, regardless of scheduling order. *)

val total_leaves : t -> int
val pp : Format.formatter -> t -> unit
