(** The reference a query runs against: one monolithic
    {!Kmismatch.index}.  The two functions below are aliases kept for
    the benchmark's serve workload, which loads and queries its index
    through these names; everything else calls {!Kmismatch}. *)

type t = Kmismatch.index

val load : ?mode:Fmindex.Fm_index.mode -> string -> t
(** {!Kmismatch.load_index}. *)

val try_run : t -> Kmismatch.Query.t -> (Kmismatch.Response.t, Kmm_error.t) result
(** {!Kmismatch.try_run}. *)
