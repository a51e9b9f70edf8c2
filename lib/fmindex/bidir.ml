(* Bidirectional FM-index: a rank-only Occ over BWT(s) synchronized with
   the system's existing locate-capable FM-index of rev s.  See bidir.mli
   for the interval-pair invariant; DESIGN.md "Bidirectional index and
   optimum search schemes" for the derivation. *)

let sigma = Dna.Alphabet.sigma

type t = {
  n : int;
  occ_f : Occ.t;  (* rank structure over BWT(s); no SA samples *)
  c_f : int array;  (* c_f.(c) = # characters with code < c in BWT(s) *)
  fm_rev : Fm_index.t;  (* shared index of rev s: ranks + sampled SA *)
}

let c_array_of_counts counts =
  let c = Array.make sigma 0 in
  let sum = ref 0 in
  for i = 0 to sigma - 1 do
    c.(i) <- !sum;
    sum := !sum + counts.(i)
  done;
  c

let make ~ptext ~fm_rev =
  let n = Packed_text.length ptext in
  if n <> Fm_index.length fm_rev then
    invalid_arg "Bidir.make: text and reverse-index lengths differ";
  let packed, sentinel_row, _ = Bwt.of_packed_text ptext in
  let occ_f = Occ.of_packed ~sentinels:[| sentinel_row |] packed in
  { n; occ_f; c_f = c_array_of_counts (Occ.counts occ_f); fm_rev }

let length t = t.n
let fm_rev t = t.fm_rev

type state = { f_lo : int; f_hi : int; r_lo : int; r_hi : int; len : int }

let start t =
  let rows = t.n + 1 in
  { f_lo = 0; f_hi = rows; r_lo = 0; r_hi = rows; len = 0 }

let width st = st.f_hi - st.f_lo

(* Child intervals of one extension step, every base at once.  Both
   sides are stored as absolute row intervals; slot 0 (the sentinel) is
   never a child and holds scratch. *)
type cursor = {
  cf_lo : int array;
  cf_hi : int array;
  cr_lo : int array;
  cr_hi : int array;
  mutable clen : int;  (* parent len + 1, stamped by the last extend *)
}

let cursor () =
  {
    cf_lo = Array.make sigma 0;
    cf_hi = Array.make sigma 0;
    cr_lo = Array.make sigma 0;
    cr_hi = Array.make sigma 0;
    clen = 0;
  }

(* Prepend: a backward step over BWT(s) gives, for every code [b], the
   rank pair whose difference cnt(b) counts the occurrences of b·α.
   Those same counts re-partition the reverse interval, because within
   it rows sort by the character following rev α — i.e. the character
   preceding α in s — in code order with the sentinel first (rev α at
   the very end of rev s ⇔ α is a prefix of s, and '$' is smallest).
   So the reverse child of base c starts after the sentinel block and
   every smaller base's block. *)
let extend_left_all t st cur =
  if st.f_lo < 0 || st.f_hi < st.f_lo || st.f_hi > t.n + 1 then
    invalid_arg "Bidir.extend_left_all: interval out of range";
  Occ.rank_all_pair_unsafe t.occ_f st.f_lo st.f_hi cur.cf_lo cur.cf_hi;
  (* cf_* hold raw ranks here; cnt must be read before the C offset is
     folded in. *)
  let acc = ref (st.r_lo + (cur.cf_hi.(0) - cur.cf_lo.(0))) in
  for c = 1 to sigma - 1 do
    let cnt = cur.cf_hi.(c) - cur.cf_lo.(c) in
    cur.cr_lo.(c) <- !acc;
    cur.cr_hi.(c) <- !acc + cnt;
    acc := !acc + cnt;
    let base = t.c_f.(c) in
    cur.cf_lo.(c) <- base + cur.cf_lo.(c);
    cur.cf_hi.(c) <- base + cur.cf_hi.(c)
  done;
  cur.clen <- st.len + 1

(* Append is the mirror image through BWT(rev s); the shared
   [Fm_index.extend_all] already returns full (C-offset) intervals, and
   the forward interval re-partitions from the same counts. *)
let extend_right_all t st cur =
  Fm_index.extend_all t.fm_rev (st.r_lo, st.r_hi) ~los:cur.cr_lo
    ~his:cur.cr_hi;
  let acc = ref (st.f_lo + (cur.cr_hi.(0) - cur.cr_lo.(0))) in
  for c = 1 to sigma - 1 do
    let cnt = cur.cr_hi.(c) - cur.cr_lo.(c) in
    cur.cf_lo.(c) <- !acc;
    cur.cf_hi.(c) <- !acc + cnt;
    acc := !acc + cnt
  done;
  cur.clen <- st.len + 1

let child cur _parent c =
  if c <= 0 || c >= sigma then invalid_arg "Bidir.child: base code out of range";
  let f_lo = cur.cf_lo.(c) and f_hi = cur.cf_hi.(c) in
  if f_lo >= f_hi then None
  else
    Some
      {
        f_lo;
        f_hi;
        r_lo = cur.cr_lo.(c);
        r_hi = cur.cr_hi.(c);
        len = cur.clen;
      }

let extend_left t c st =
  let cur = cursor () in
  extend_left_all t st cur;
  child cur st c

let extend_right t c st =
  let cur = cursor () in
  extend_right_all t st cur;
  child cur st c

let locate_into t st dst =
  Fm_index.locate_into t.fm_rev (st.r_lo, st.r_hi) dst;
  for i = 0 to st.r_hi - st.r_lo - 1 do
    (* dst.(i) is where rev α starts in rev s; flip to where α starts
       in s. *)
    dst.(i) <- t.n - dst.(i) - st.len
  done
