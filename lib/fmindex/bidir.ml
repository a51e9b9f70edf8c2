(* Bidirectional FM-index: the forward rank side an FM-index of rev s
   carries (rank blocks over BWT(s)), synchronized with that index
   itself.  See bidir.mli for the interval-pair invariant; DESIGN.md
   "Bidirectional index and optimum search schemes" for the
   derivation. *)

let sigma = Dna.Alphabet.sigma

type t = {
  n : int;
  fm_rev : Fm_index.t;  (* shared index of rev s: both rank sides + sampled SA *)
  q : int;  (* prefix table depth; 0 = no table *)
  prefix : int array Storage.Memo.t;  (* built on first use, see below *)
}

(* q = min 8 (floor (log4 n) - 3): at least 64 expected occurrences
   per q-mer, at most 4^8 entries. *)
let prefix_depth n =
  let log4 = ref 0 in
  while n lsr (2 * (!log4 + 1)) > 0 do
    incr log4
  done;
  max 0 (min 8 (!log4 - 3))

(* Child intervals of one extension step, every base at once.  Both
   sides are stored as absolute row intervals; slot 0 (the sentinel) is
   never a child and holds scratch. *)
type cursor = {
  cf_lo : int array;
  cf_hi : int array;
  cr_lo : int array;
  cr_hi : int array;
}

let cursor () =
  {
    cf_lo = Array.make sigma 0;
    cf_hi = Array.make sigma 0;
    cr_lo = Array.make sigma 0;
    cr_hi = Array.make sigma 0;
  }

let f_lo cur c = cur.cf_lo.(c)
let f_hi cur c = cur.cf_hi.(c)
let r_lo cur c = cur.cr_lo.(c)
let r_hi cur c = cur.cr_hi.(c)

(* Both intervals inside [0, n + 1] and of the same width. *)
let check_pair t ~f_lo ~f_hi ~r_lo ~r_hi =
  let rows = t.n + 1 in
  if f_lo < 0 || f_hi < f_lo || f_hi > rows || r_lo < 0 || r_hi > rows
     || r_hi - r_lo <> f_hi - f_lo
  then invalid_arg "Bidir.extend_*_all: interval pair out of range"

(* One extension step fills one side's children (full intervals, whose
   widths are the occurrence counts of each extension of α) and
   re-partitions the other side's interval, starting at [base], by
   those counts.  Within that interval rows sort by the character that
   extends α on the far side, in code order with the sentinel first:
   for a prepend, the reverse rows of rev α sort by the character
   following rev α in rev s, i.e. the one preceding α in s, and '$'
   (rev α at the very end of rev s ⇔ α a prefix of s) is smallest.  So
   the child of base c starts after the sentinel block and every
   smaller base's block; an append is the mirror image. *)
let repartition ~base los his dst_lo dst_hi =
  let acc = ref (base + (his.(0) - los.(0))) in
  for c = 1 to sigma - 1 do
    let cnt = his.(c) - los.(c) in
    dst_lo.(c) <- !acc;
    dst_hi.(c) <- !acc + cnt;
    acc := !acc + cnt
  done

(* Prepend: a backward step over BWT(s), the forward side. *)
let extend_left_all t cur ~f_lo ~f_hi ~r_lo ~r_hi =
  check_pair t ~f_lo ~f_hi ~r_lo ~r_hi;
  Fm_index.extend_forward_all t.fm_rev ~lo:f_lo ~hi:f_hi ~los:cur.cf_lo ~his:cur.cf_hi;
  repartition ~base:r_lo cur.cf_lo cur.cf_hi cur.cr_lo cur.cr_hi

(* Append: a backward step over BWT(rev s), the located side. *)
let extend_right_all t cur ~f_lo ~f_hi ~r_lo ~r_hi =
  check_pair t ~f_lo ~f_hi ~r_lo ~r_hi;
  Fm_index.extend_all t.fm_rev ~lo:r_lo ~hi:r_hi ~los:cur.cr_lo ~his:cur.cr_hi;
  repartition ~base:f_lo cur.cr_lo cur.cr_hi cur.cf_lo cur.cf_hi

(* The prefix table: one depth-q walk of [extend_right_all] from the
   empty match, recording each q-mer's pair at slot 3·key.  A q-mer that
   does not occur keeps the zero entry (width 0); its subtree is never
   walked.  The build runs under the no-op ambient sink, so its fm.*
   taps never land in the query that happens to force it. *)
let build_prefix t =
  let q = t.q in
  let table = Array.make (if q = 0 then 0 else 3 lsl (2 * q)) 0 in
  let rows = Array.init q (fun _ -> cursor ()) in
  let rec walk d key f_lo f_hi r_lo r_hi =
    if d = q then begin
      table.(3 * key) <- f_lo;
      table.((3 * key) + 1) <- r_lo;
      table.((3 * key) + 2) <- f_hi - f_lo
    end
    else begin
      let cur = rows.(d) in
      extend_right_all t cur ~f_lo ~f_hi ~r_lo ~r_hi;
      for c = 1 to sigma - 1 do
        if cur.cf_lo.(c) < cur.cf_hi.(c) then
          walk (d + 1) ((4 * key) + c - 1) cur.cf_lo.(c) cur.cf_hi.(c) cur.cr_lo.(c)
            cur.cr_hi.(c)
      done
    end
  in
  if q > 0 then Obs.with_ambient Obs.noop (fun () -> walk 0 0 0 (t.n + 1) 0 (t.n + 1));
  table

let make fm_rev =
  let n = Fm_index.length fm_rev in
  let unseeded =
    { n; fm_rev; q = prefix_depth n; prefix = Storage.Memo.make (fun () -> [||]) }
  in
  (* The build only extends, which never reads the table. *)
  { unseeded with prefix = Storage.Memo.make (fun () -> build_prefix unseeded) }

let length t = t.n
let fm_rev t = t.fm_rev
let prefix_len t = t.q
let prefix_table t = Storage.Memo.force t.prefix
let prefix_table_built t = Storage.Memo.is_forced t.prefix
