(** Suffix trees via Ukkonen's online construction.

    The tree is built over [s ^ "$"]; the sentinel guarantees one leaf per
    suffix.  This substrate backs the Cole-style brute-force k-mismatch
    baseline (the paper builds its comparator [14] on the gsuffix suffix
    tree package, which we replace with our own construction). *)

type t
type node

val build : string -> t
(** Build the suffix tree of [s ^ "$"] in O(n) amortized time.  The input
    must not contain ['$']. *)

val text : t -> string
(** The indexed text including the final sentinel. *)

val root : t -> node

val edge : t -> node -> int * int
(** [(start, len)] of the edge label leading *into* the node; the label is
    [text.[start .. start+len-1]].  The root has the empty edge [(0, 0)]. *)

val children : t -> node -> (char * node) list
(** Children keyed by the first character of their edge label, in
    alphabetical order. *)

val find_child : t -> node -> char -> node option

val leaves_below : t -> node -> int list
(** Suffix indices of all leaves in the subtree, in no particular order. *)

val count_nodes : t -> int
(** Total number of nodes (for tests and the index-size experiment). *)

val contains : t -> string -> bool
(** Substring query by walking from the root; for tests. *)
