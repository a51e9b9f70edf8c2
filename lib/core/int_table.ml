(* A slot is live iff its stamp equals the table's generation, so [clear]
   is one increment instead of a pass over every slot. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable size : int;
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create cap =
  let cap = pow2 (max cap 8) 8 in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    stamps = Array.make cap (-1);
    gen = 0;
    size = 0;
    mask = cap - 1;
  }

let clear t =
  t.gen <- t.gen + 1;
  t.size <- 0

(* Multiplicative hashing, folding in the high bits so that consecutive
   packed keys spread instead of clustering under linear probing. *)
let slot t key =
  let h = key * 0x2545F4914F6CDD1D in
  ((h lsr 32) lxor h) land t.mask

let rec probe t key i =
  if Array.unsafe_get t.stamps i <> t.gen || Array.unsafe_get t.keys i = key then i
  else probe t key ((i + 1) land t.mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals and old_stamps = t.stamps in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  t.stamps <- Array.make cap (-1);
  t.mask <- cap - 1;
  Array.iteri
    (fun i s ->
      if s = t.gen then begin
        let k = Array.unsafe_get old_keys i in
        let j = probe t k (slot t k) in
        Array.unsafe_set t.keys j k;
        Array.unsafe_set t.vals j (Array.unsafe_get old_vals i);
        Array.unsafe_set t.stamps j t.gen
      end)
    old_stamps

let find t key =
  if key < 0 then invalid_arg "Int_table.find: negative key";
  let i = probe t key (slot t key) in
  if Array.unsafe_get t.stamps i = t.gen then Array.unsafe_get t.vals i else -1

let add_at t i key v =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.vals i v;
  Array.unsafe_set t.stamps i t.gen;
  t.size <- t.size + 1;
  (* Keep the load factor at or below one half. *)
  if t.size * 2 > t.mask + 1 then grow t

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let i = probe t key (slot t key) in
  if Array.unsafe_get t.stamps i = t.gen then Array.unsafe_set t.vals i v
  else add_at t i key v

let find_or_add t key v =
  if key < 0 then invalid_arg "Int_table.find_or_add: negative key";
  let i = probe t key (slot t key) in
  if Array.unsafe_get t.stamps i = t.gen then Array.unsafe_get t.vals i
  else begin
    add_at t i key v;
    -1
  end

let length t = t.size
