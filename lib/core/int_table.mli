(** Open-addressing hash table from nonnegative integer keys to integers.

    The M-tree search performs one lookup and often one insert per node;
    [Hashtbl] with boxed keys costs ~0.5us per operation, which at millions
    of nodes dominates the whole search.  Linear probing over flat int
    arrays brings this down by an order of magnitude, holds nothing the
    GC has to trace, and empties in O(1), so one table serves search after
    search. *)

type t

val create : int -> t
(** [create cap] makes an empty table with initial capacity at least
    [cap]. *)

val clear : t -> unit
(** Remove every binding in O(1); the capacity is kept. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when the key is absent (so store
    nonnegative values).  Raises [Invalid_argument] on negative keys. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite.  Raises [Invalid_argument] on negative keys. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t key v] is [find t key] when the key is present;
    otherwise it binds the key to [v] and returns [-1].  One probe where
    [find] then [replace] take two.  Raises [Invalid_argument] on negative
    keys. *)

val length : t -> int
