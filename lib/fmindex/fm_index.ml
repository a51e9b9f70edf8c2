type interval = int * int

module A1 = Bigarray.Array1

(* The index owns no byte-per-character copy of anything: the BWT
   payload lives inside [occ]'s interleaved rank blocks (2 bits/base),
   the forward text is kept 2-bit packed with the unpacked string
   materialized on demand behind a domain-safe memo, the sentinel row is
   tracked out-of-band, and suffix-array samples are a marked-row
   bitvector with a rank directory plus a bit-packed sample array —
   a locate walk allocates nothing.  Every bulk buffer is a
   [Storage.t]/[Storage.words], so a loaded index is a set of views
   over one image of its file — a buffer the file was read into (Copy
   mode) or the file mapped (Mmap mode) — and the query paths cannot
   tell the difference.

   [fwd] is the rank side of the mirror transform, BWT(rev text): the
   system indexes the reversed genome, so for it this is BWT of the
   genome itself, the side a bidirectional search ({!Bidir}) and
   [longest_left_extension] prepend through.  It is rank-only and never
   located, so it is kept at a sparser checkpoint rate. *)
type t = {
  n : int;  (* text length *)
  ptext : Packed_text.t;  (* forward text, 2-bit packed *)
  occ : Occ.t;
  fwd : Occ.t;  (* rank blocks over BWT(rev text) *)
  fwd_sentinel_row : int;
  c_array : int array;  (* c_array.(c) = # characters with code < c in BWT *)
  sa_rate : int;
  sentinel_row : int;
  marks : Storage.t;  (* bit per row 0..n: row sampled? *)
  mark_cum : int array;  (* sampled rows before each 64-row chunk *)
  nsamples : int;  (* marked rows, row 0 included *)
  samples : Storage.words;
      (* position / sa_rate of each sampled row but row 0 (whose
         position is n), row order, [sample_bits] bits each *)
  sample_bits : int;
}

let sigma = Dna.Alphabet.sigma

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

(* Hot-path accounting as [Obs] taps (see the mli).  Each entry point
   reads [Obs.taps] once, so disarmed it pays one load and a branch. *)
module C = Obs.Counter

(* Kept for perfbench/layers.ml, its only caller. *)
module Telemetry = struct
  let set_enabled = Obs.set_taps
end

let tap_rank ops decodes =
  Obs.tap C.fm_rank_ops ops;
  Obs.tap C.fm_block_decodes decodes

(* ------------------------------------------------------------------ *)
(* Marked-row bitvector                                                 *)

let pop8 = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let mark_test (marks : Storage.t) row =
  (A1.get marks (row lsr 3) lsr (row land 7)) land 1 = 1

let mark_set (marks : Storage.t) row =
  A1.set marks (row lsr 3) (A1.get marks (row lsr 3) lor (1 lsl (row land 7)))

(* Number of marked rows strictly before [row]. *)
let mark_rank t row =
  let chunk = row lsr 6 in
  let acc = ref (Array.unsafe_get t.mark_cum chunk) in
  let first_byte = chunk lsl 3 in
  for b = first_byte to (row lsr 3) - 1 do
    acc := !acc + Array.unsafe_get pop8 (A1.unsafe_get t.marks b)
  done;
  let partial = row land 7 in
  if partial <> 0 then
    acc :=
      !acc
      + Array.unsafe_get pop8
          (A1.unsafe_get t.marks (row lsr 3) land ((1 lsl partial) - 1));
  !acc

(* Build the rank directory over a marks bitvector of [rows] rows and
   return the total number of marked rows. *)
let build_mark_cum (marks : Storage.t) rows =
  let nchunks = (rows + 63) / 64 in
  let cum = Array.make (max 1 nchunks) 0 in
  let total = ref 0 in
  for b = 0 to Storage.length marks - 1 do
    if b land 7 = 0 && b lsr 3 < nchunks then cum.(b lsr 3) <- !total;
    total := !total + pop8.(A1.get marks b)
  done;
  (cum, !total)

(* ------------------------------------------------------------------ *)
(* Bit-packed samples                                                   *)

(* Every sampled row but row 0 sits at a multiple of [sa_rate] below n,
   so its sample is stored as position / sa_rate, in the fewest bits
   that hold n / sa_rate. *)
let sample_bits ~n ~sa_rate =
  let rec go b = if (n / sa_rate) lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

let sample_words ~nsamples ~bits = (((nsamples - 1) * bits) + 63) / 64

(* Sample [j] straddles at most two little-endian words. *)
let[@inline] sample (w : Storage.words) bits j =
  let bit = j * bits in
  let i = bit lsr 6 and o = bit land 63 in
  let v = Int64.shift_right_logical (A1.unsafe_get w i) o in
  let v =
    if o + bits > 64 then Int64.logor v (Int64.shift_left (A1.unsafe_get w (i + 1)) (64 - o))
    else v
  in
  Int64.to_int v land ((1 lsl bits) - 1)

let set_sample (w : Storage.words) bits j v =
  let bit = j * bits in
  let i = bit lsr 6 and o = bit land 63 in
  let v = Int64.of_int v in
  A1.set w i (Int64.logor (A1.get w i) (Int64.shift_left v o));
  if o + bits > 64 then
    A1.set w (i + 1) (Int64.logor (A1.get w (i + 1)) (Int64.shift_right_logical v (64 - o)))

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

(* The forward side: the BWT of the packed text read back to front,
   with checkpoints every 128 bases (0.3125 B/base) where the located
   side keeps 32; it serves only prepend steps ([Bidir]'s and
   [longest_left_extension]'s). *)
let forward_rate = 128

let build_forward ptext =
  let packed, sentinel_row, _ = Bwt.of_packed_text ~reversed:true ptext in
  (Occ.of_packed ~rate:forward_rate ~sentinel:sentinel_row packed, sentinel_row)

(* Below this length a second domain costs more than the pass it
   overlaps. *)
let parallel_min = 1 lsl 16

(* [f ()] and [g ()], with [g] on a helper domain when [spawn]; a
   runtime that refuses the domain gets both on the caller's. *)
let both ~spawn f g =
  if not spawn then
    let a = f () in
    (a, g ())
  else
    match Domain.spawn g with
    | exception Failure _ ->
        let a = f () in
        (a, g ())
    | d ->
        let a =
          try f ()
          with e ->
            (try ignore (Domain.join d) with _ -> ());
            raise e
        in
        (a, Domain.join d)

(* The located side: BWT(text) with its rank blocks and the sampled SA.
   Row 0 is the sentinel suffix (position n), always sampled; other rows
   are sampled when their position is a multiple of sa_rate, so any
   locate walk ends within sa_rate LF steps. *)
let build_located ~occ_rate ~sa_rate ptext =
  let n = Packed_text.length ptext in
  let packed, sentinel_row, sa = Bwt.of_packed_text ptext in
  let occ = Occ.of_packed ~rate:occ_rate ~sentinel:sentinel_row packed in
  let marks = Storage.create ((n + 8) / 8) in
  mark_set marks 0;
  let nsamples = ref 1 in
  for row = 1 to n do
    if Int32.to_int sa.{row} mod sa_rate = 0 then begin
      mark_set marks row;
      incr nsamples
    end
  done;
  let bits = sample_bits ~n ~sa_rate in
  let samples = Storage.create_words (sample_words ~nsamples:!nsamples ~bits) in
  let j = ref 0 in
  for row = 1 to n do
    let p = Int32.to_int sa.{row} in
    if p mod sa_rate = 0 then begin
      set_sample samples bits !j (p / sa_rate);
      incr j
    end
  done;
  (occ, sentinel_row, marks, !nsamples, samples)

let max_length = Suffix.Suffix_array.max_length - 1

let build ?(occ_rate = 32) ?(sa_rate = 16) text =
  if sa_rate <= 0 then invalid_arg "Fm_index.build: sa_rate must be positive";
  if String.length text > max_length then
    invalid_arg
      (Printf.sprintf "Fm_index.build: a text of %d bases exceeds the limit of %d"
         (String.length text) max_length);
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c) || c <> Dna.Alphabet.normalize c then
        invalid_arg "Fm_index.build: text must be lowercase acgt")
    text;
  let n = String.length text in
  let ptext = Packed_text.of_string text in
  (* The two sides share nothing but the packed text, so each runs its
     own SA-IS pass, on its own domain when the text is long enough. *)
  let (occ, sentinel_row, marks, nsamples, samples), (fwd, fwd_sentinel_row) =
    both ~spawn:(n >= parallel_min)
      (fun () -> build_located ~occ_rate ~sa_rate ptext)
      (fun () -> build_forward ptext)
  in
  let mark_cum, total = build_mark_cum marks (n + 1) in
  assert (total = nsamples);
  {
    n;
    ptext;
    occ;
    fwd;
    fwd_sentinel_row;
    c_array = Occ.c_array_of_counts (Occ.counts occ);
    sa_rate;
    sentinel_row;
    marks;
    mark_cum;
    nsamples;
    samples;
    sample_bits = sample_bits ~n ~sa_rate;
  }

let length t = t.n
let forward_occ t = t.fwd
let packed_text t = t.ptext
let bwt t = String.init (Occ.length t.occ) (fun row -> Dna.Alphabet.of_code (Occ.get t.occ row))
let whole t = (0, Occ.length t.occ)

(* ------------------------------------------------------------------ *)
(* Extensions                                                           *)

(* Every extension that branches on all four codes, over either rank
   side: the rank-all pair at [lo] and [hi], offset by the C array
   (both BWTs permute the same [s$], so the located side's serves the
   forward side too), after one boundary check per call.  Engines call
   it millions of times per read with intervals they derived from
   [whole] and earlier extensions, so per-step revalidation inside the
   pair kernel would be pure overhead.  [count_extend] is the count of
   any extension, along one code or all four: one rank op, and one
   block decode for a width-1 interval, two otherwise. *)
let[@inline] count_extend ~lo ~hi =
  if Atomic.get Obs.taps then tap_rank 1 (if hi = lo + 1 then 1 else 2)

let[@inline] extend_checked name t occ ~lo ~hi ~los ~his =
  if lo < 0 || hi < lo || hi > Occ.length occ then invalid_arg (name ^ ": interval out of range");
  if Array.length los <> sigma || Array.length his <> sigma then
    invalid_arg (name ^ ": bad dst size");
  count_extend ~lo ~hi;
  Occ.rank_all_pair_unsafe occ t.c_array lo hi los his

let extend_all t ~lo ~hi ~los ~his =
  extend_checked "Fm_index.extend_all" t t.occ ~lo ~hi ~los ~his

let extend_forward_all t ~lo ~hi ~los ~his =
  extend_checked "Fm_index.extend_forward_all" t t.fwd ~lo ~hi ~los ~his

(* A step along one code: the row's own code at its LF row, one block
   decode, counted like the width-1 [extend_all]. *)
let extend_row t row =
  if row < 0 || row >= Occ.length t.occ then invalid_arg "Fm_index.extend_row: row out of range";
  count_extend ~lo:row ~hi:(row + 1);
  if row = t.sentinel_row then -1
  else (Occ.lf t.occ t.c_array row lsl 3) lor Occ.get t.occ row

(* ------------------------------------------------------------------ *)
(* Backward search                                                      *)

(* The one backward-search loop, over either rank side.  Each step
   prepends one code, so it takes Occ's checked one-code rank of that
   code at both ends, offset by the C array; a width-1 interval ranks
   [lo] only and adds its row's own code, one block decode, as the
   pair kernel does.  From the whole interval it prepends
   [codes.(stop - 1)], then [codes.(stop - 2)], ... and stops once
   [codes.(0)] is in, at a code outside 1..sigma-1 (uncounted), or after
   the step that empties the interval (counted, like any extension).
   It returns [finish j lo hi], where [j] is the index of the first code
   left out ([stop - j] codes were prepended, [j = 0] means all of
   them) and [lo, hi) the final interval.  The callers' [finish] is
   closed, so nothing is allocated. *)
let backward t occ codes ~stop finish =
  let lo = ref 0 and hi = ref (Occ.length occ) in
  let j = ref stop and live = ref true in
  while !live && !j > 0 do
    let c = Array.unsafe_get codes (!j - 1) in
    if c <= 0 || c >= sigma then live := false
    else begin
      count_extend ~lo:!lo ~hi:!hi;
      let base = Array.unsafe_get t.c_array c in
      let lo' = base + Occ.rank occ c !lo in
      let hi' =
        if !hi = !lo + 1 then lo' + Bool.to_int (Occ.get occ !lo = c)
        else base + Occ.rank occ c !hi
      in
      lo := lo';
      hi := hi';
      if lo' < hi' then decr j else live := false
    end
  done;
  finish !j !lo !hi

(* Character codes of a pattern, case folded; [None] when any character
   is outside ACGT (such a pattern occurs nowhere rather than raising,
   and no step is taken). *)
let codes_of_pattern pat =
  let m = String.length pat in
  let codes = Array.make m 0 in
  let ok = ref true in
  for i = 0 to m - 1 do
    match Dna.Alphabet.code_opt pat.[i] with
    | Some c when c > 0 -> codes.(i) <- c
    | _ -> ok := false
  done;
  if !ok then Some codes else None

let search t pat =
  match codes_of_pattern pat with
  | None -> None
  | Some codes ->
      backward t t.occ codes ~stop:(Array.length codes) (fun j lo hi ->
          if j = 0 then Some (lo, hi) else None)

let count t pat = match search t pat with None -> 0 | Some (lo, hi) -> hi - lo

let longest_left_extension t codes ~stop =
  if stop < 0 || stop > Array.length codes then
    invalid_arg "Fm_index.longest_left_extension: stop out of range";
  stop - backward t t.fwd codes ~stop (fun j _ _ -> j)

(* A legitimate LF walk reaches a marked row within [sa_rate] steps
   (positions decrease by one per step and every sa_rate-th is marked).
   A corrupted Occ payload — reachable only through an mmap'd load,
   which skips the payload CRCs — could otherwise cycle through
   unmarked rows forever, and a cleared mark sends a walk past its
   sampled row; the bound turns either into the typed error a corrupt
   marks section is. *)
let walk_overrun () =
  Kmm_error.(raise_error (Corrupt (Sa_marks, "LF walk exceeded the sample rate")))

(* The pieces of the LF walk.  [lf_step] moves an unmarked row that
   has taken [steps] steps one step on; [resolve] is the position of a
   marked row reached after [steps] steps; [tap_walks] counts [rows]
   walks of [steps] steps in all, each step one rank over the block
   holding its row. *)
let[@inline] lf_step t row ~steps =
  if steps >= t.sa_rate then walk_overrun ();
  Occ.lf t.occ t.c_array row

let[@inline] resolve t row ~steps =
  if row = 0 then t.n + steps
  else (t.sa_rate * sample t.samples t.sample_bits (mark_rank t row - 1)) + steps

let tap_walks rows steps =
  if Atomic.get Obs.taps then begin
    Obs.tap C.fm_locate_walks rows;
    Obs.tap C.fm_locate_steps steps;
    tap_rank steps steps
  end

(* The lockstep walk: every round advances each unresolved row of
   [rows.(0 .. len - 1)] by one LF step, so the rows' rank-block misses
   are independent loads that overlap rather than a chain of them.  A
   row found marked in round [r] has taken [r] steps.  Resolved slots
   hold [-1 - position] until the walk ends, so it needs no scratch. *)
let walk t rows len =
  let pending = ref len and round = ref 0 and steps = ref 0 in
  while !pending > 0 do
    let r = !round in
    for i = 0 to len - 1 do
      let row = Array.unsafe_get rows i in
      if row >= 0 then
        if mark_test t.marks row then begin
          Array.unsafe_set rows i (-1 - resolve t row ~steps:r);
          decr pending
        end
        else begin
          Array.unsafe_set rows i (lf_step t row ~steps:r);
          Stdlib.incr steps
        end
    done;
    round := r + 1
  done;
  for i = 0 to len - 1 do
    Array.unsafe_set rows i (-1 - Array.unsafe_get rows i)
  done;
  tap_walks len !steps

let locate_rows t rows ~len =
  if len < 0 || len > Array.length rows then invalid_arg "Fm_index.locate_rows: bad length";
  let nrows = Occ.length t.occ in
  for i = 0 to len - 1 do
    let row = Array.unsafe_get rows i in
    if row < 0 || row >= nrows then invalid_arg "Fm_index.locate_rows: row out of range"
  done;
  walk t rows len

let locate_into t (lo, hi) dst =
  let rows = Occ.length t.occ in
  if lo < 0 || hi > rows || lo > hi then invalid_arg "Fm_index.locate_into: bad interval";
  if Array.length dst < hi - lo then invalid_arg "Fm_index.locate_into: buffer too small";
  for i = 0 to hi - lo - 1 do
    Array.unsafe_set dst i (lo + i)
  done;
  walk t dst (hi - lo)

let find_all t pat =
  match search t pat with
  | None -> []
  | Some (lo, hi) ->
      let buf = Array.make (hi - lo) 0 in
      locate_into t (lo, hi) buf;
      Array.sort Int.compare buf;
      (* Distinct rows resolve to distinct suffix positions, so no dedup
         pass is needed. *)
      Array.to_list buf

let space_report t =
  [
    ("packed bwt + rank blocks", Occ.space_bytes t.occ);
    ("forward bwt + rank blocks", Occ.space_bytes t.fwd);
    ("sa marks (bitvector + rank dir)",
     Storage.length t.marks + (8 * Array.length t.mark_cum));
    ("sa samples (bit-packed)", 8 * Storage.length_words t.samples);
    ("c array", 8 * sigma);
    ("packed text (2 bit/base)", Storage.length (Packed_text.storage t.ptext));
  ]

(* --- persistence ----------------------------------------------------- *)

(* Format v5, the only format: three ASCII header lines

       "kmm-fm-index 5 <n> <occ_rate> <sa_rate> <sentinel_row> <nsamples>
        <blocks_bytes> <super_len> <a_total> <c_total> <g_total> <t_total>
        <fwd_rate> <fwd_sentinel_row> <fwd_blocks_bytes> <fwd_super_len>
        <fwd_a_total> <fwd_c_total> <fwd_g_total> <fwd_t_total>\n"
       "sections" + 7x " %012d %012d %08x" (offset, length, CRC-32) + "\n"
       "hcrc %08x\n"   (CRC-32 of the two preceding lines)

   followed by seven binary little-endian sections —
     1. packed text          ceil(n/4) bytes (2-bit codes, 4 bases/byte)
     2. occ blocks           <blocks_bytes> bytes (interleaved counts+payload)
     3. occ superblocks      <super_len> * 8 bytes (int64)
     4. forward blocks       <fwd_blocks_bytes> bytes, BWT(rev text)
     5. forward superblocks  <fwd_super_len> * 8 bytes (int64)
     6. sa marks bitvector   ceil((n+1)/8) bytes
     7. sa samples           ceil((nsamples-1) * b / 64) * 8 bytes: position
                             / sa_rate of every sampled row but row 0, at
                             b = bits of n / sa_rate, packed LSB first into
                             64-bit words
   — each placed at the 8-byte-aligned offset its table entry records
   (zero padding in the gaps), and an 8-byte trailer: the ASCII magic
   "kmm5" plus the 4-byte LE CRC-32 of every preceding byte of the file.
   [layout] is the one place these extents are derived: [serialize]
   places the sections by it and the reader checks the table against
   it.

   Both BWTs are permutations of text$, so the forward totals must equal
   the located side's; the reader refuses a header where they differ.

   The alignment + explicit offset table is what makes the file
   mmap-adoptable: every section can be turned into a Bigarray view in
   place (the int64 sections need 8-byte alignment).  The header CRC
   lets the reader trust the geometry before doing anything with it;
   the per-section CRCs attribute corruption; the whole-file trailer
   covers what they cannot (header, padding, the checksum fields
   themselves) and doubles as an end-of-file marker.

   There is one reader.  Both modes run the same prologue (header CRC,
   geometry, exact size, trailer magic) over a byte image of the file
   and adopt its sections as views through the same [adopt]; they
   differ only in where the image lives and in the checks they add.
   Mmap maps the file and adopts, touching O(header + superblocks +
   marks) bytes.  Copy reads the file into one buffer, checks the
   trailer and section CRCs before adopting and [recount]s the adopted
   index after, so any single-byte corruption or truncation is detected
   deterministically ([kmm verify] runs it).

   Loading adopts the buffers directly; no BWT inversion, no LF walk, no
   suffix sorting.  Files of the retired formats v1–v4 are rejected with
   [Unsupported_version]; such an index is rebuilt with [kmm index]. *)

let magic = "kmm-fm-index"
let version = 5
let trailer_magic = "kmm5"
let nsections = 7

type header = {
  h_n : int;
  h_occ_rate : int;
  h_sa_rate : int;
  h_sentinel_row : int;
  h_nsamples : int;
  h_blocks_bytes : int;
  h_super_len : int;
  h_totals : int array;  (* BWT character counts by code, sentinel included *)
  h_fwd_rate : int;
  h_fwd_sentinel_row : int;
  h_fwd_blocks_bytes : int;
  h_fwd_super_len : int;
}

(* Section indices in file order, and the section each one's failures
   are attributed to. *)
let s_text = 0
let s_blocks = 1
let s_super = 2
let s_fwd_blocks = 3
let s_fwd_super = 4
let s_marks = 5
let s_samples = 6

let section_of =
  Kmm_error.
    [| Text_section; Rank_blocks; Superblocks; Forward_blocks; Forward_superblocks; Sa_marks;
       Sa_samples |]

let align8 x = (x + 7) land lnot 7

(* Fixed-width section-table geometry: "sections" + 7 entries of
   " <12-digit offset> <12-digit length> <8-hex CRC>" + "\n". *)
let section_table_len = 8 + (nsections * (1 + 12 + 1 + 12 + 1 + 8)) + 1
let hcrc_line_len = String.length "hcrc " + 8 + 1

(* Where one section lies in the image. *)
type extent = { off : int; len : int }

(* The v5 layout: the extent of every section, in file order, of an
   image whose header [h] and three header lines ([hdr_len] bytes)
   come first — each section at the 8-byte-aligned end of the one
   before it. *)
let layout h ~hdr_len =
  let bits = sample_bits ~n:h.h_n ~sa_rate:h.h_sa_rate in
  let lens =
    [| (h.h_n + 3) / 4; h.h_blocks_bytes; 8 * h.h_super_len; h.h_fwd_blocks_bytes;
       8 * h.h_fwd_super_len; (h.h_n + 8) / 8;
       8 * sample_words ~nsamples:h.h_nsamples ~bits |]
  in
  let cur = ref hdr_len in
  Array.map
    (fun len ->
      let off = align8 !cur in
      cur := off + len;
      { off; len })
    lens

(* The [n] (at most 8) little-endian bytes at [off] of an image, as an
   int (modulo 2^63, as [Int64.to_int] reads them). *)
let get_le (img : Storage.t) off n =
  let v = ref 0 in
  for j = n - 1 downto 0 do
    v := (!v lsl 8) lor A1.get img (off + j)
  done;
  !v

(* The trailer's CRC, of the image's first [size - 4] bytes, from the
   sections' CRCs [crcs] (as computed from the bytes, never as stored)
   and [crc] (the CRC of an image span) over only what no section
   covers: the header lines, the zero padding before each section and
   the trailer magic.  No section byte is hashed twice. *)
let whole_crc ~crc ext crcs ~size =
  let acc = ref (crc ~pos:0 ~len:ext.(0).off) in
  Array.iteri
    (fun i e ->
      let gap = e.off + e.len in
      let next = if i + 1 < nsections then ext.(i + 1).off else size - 4 in
      acc := Crc32.combine !acc crcs.(i) e.len;
      acc := Crc32.combine !acc (crc ~pos:gap ~len:(next - gap)) (next - gap))
    ext;
  !acc

(* --- serialization ---------------------------------------------------- *)

let header_of t =
  {
    h_n = t.n;
    h_occ_rate = Occ.rate t.occ;
    h_sa_rate = t.sa_rate;
    h_sentinel_row = t.sentinel_row;
    h_nsamples = t.nsamples;
    h_blocks_bytes = Storage.length (Occ.raw_blocks t.occ);
    h_super_len = Array.length (Occ.raw_super t.occ);
    h_totals = Occ.counts t.occ;
    h_fwd_rate = Occ.rate t.fwd;
    h_fwd_sentinel_row = t.fwd_sentinel_row;
    h_fwd_blocks_bytes = Storage.length (Occ.raw_blocks t.fwd);
    h_fwd_super_len = Array.length (Occ.raw_super t.fwd);
  }

(* Line 1.  The forward totals repeat the character totals: both BWTs
   permute text$. *)
let header_line h =
  let c = h.h_totals in
  Printf.sprintf "%s %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n" magic version
    h.h_n h.h_occ_rate h.h_sa_rate h.h_sentinel_row h.h_nsamples h.h_blocks_bytes h.h_super_len
    c.(1) c.(2) c.(3) c.(4) h.h_fwd_rate h.h_fwd_sentinel_row h.h_fwd_blocks_bytes
    h.h_fwd_super_len c.(1) c.(2) c.(3) c.(4)

(* The whole v5 file as one in-memory image, written into one buffer of
   its length with every CRC taken in place: serialization is separated
   from file I/O so the byte-sweep tests (and the fuzz oracle) can
   corrupt and re-parse images without touching the filesystem. *)
let serialize t =
  let h = header_of t in
  let l1 = header_line h in
  let ext = layout h ~hdr_len:(String.length l1 + section_table_len + hcrc_line_len) in
  if Array.exists (fun e -> e.off > 999_999_999_999) ext then
    invalid_arg "Fm_index.serialize: index too large for the v5 section table";
  let last = ext.(nsections - 1) in
  let size = last.off + last.len + 8 in
  let b = Bytes.make size '\000' in
  let crc ~pos ~len = Crc32.sub (Bytes.unsafe_to_string b) ~pos ~len in
  let bytes i (src : Storage.t) =
    assert (Storage.length src = ext.(i).len);
    for j = 0 to ext.(i).len - 1 do
      Bytes.unsafe_set b (ext.(i).off + j) (Char.unsafe_chr (A1.unsafe_get src j))
    done
  in
  let ints i a =
    assert (8 * Array.length a = ext.(i).len);
    Array.iteri (fun j v -> Bytes.set_int64_le b (ext.(i).off + (8 * j)) (Int64.of_int v)) a
  in
  bytes s_text (Packed_text.storage t.ptext);
  bytes s_blocks (Occ.raw_blocks t.occ);
  ints s_super (Occ.raw_super t.occ);
  bytes s_fwd_blocks (Occ.raw_blocks t.fwd);
  ints s_fwd_super (Occ.raw_super t.fwd);
  bytes s_marks t.marks;
  assert (8 * Storage.length_words t.samples = ext.(s_samples).len);
  for j = 0 to Storage.length_words t.samples - 1 do
    Bytes.set_int64_le b (ext.(s_samples).off + (8 * j)) (A1.get t.samples j)
  done;
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  let crcs = Array.map (fun e -> crc ~pos:e.off ~len:e.len) ext in
  put l1;
  put "sections";
  Array.iter2 (fun e c -> put (Printf.sprintf " %012d %012d %08x" e.off e.len c)) ext crcs;
  put "\n";
  put (Printf.sprintf "hcrc %08x\n" (crc ~pos:0 ~len:!pos));
  assert (!pos = String.length l1 + section_table_len + hcrc_line_len);
  Bytes.blit_string trailer_magic 0 b (size - 8) 4;
  Bytes.set_int32_le b (size - 4) (Int32.of_int (whole_crc ~crc ext crcs ~size));
  Bytes.unsafe_to_string b

(* --- atomic, crash-safe file writing ---------------------------------- *)

type sink = { sink_write : string -> int -> int -> unit; sink_flush : unit -> unit }

(* Write [image] to [path] atomically: stream into a same-directory temp
   file, flush + fsync, close, then rename over [path].  On {e any}
   failure (including one injected through [wrap]) the temp file is
   removed and [path] is untouched; every fd is released via
   [Fun.protect].  [wrap] interposes on the byte stream — the
   fault-injection hook the crash-safety tests drive. *)
let write_atomic ?(fsync = true) ?(wrap = fun (s : sink) -> s) image path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".kmm-save-" ".tmp" in
  (* [Filename.temp_file] creates at mode 0o600, and rename preserves
     it — which would leave every saved index unreadable to other
     users.  Widen to the usual 0o644 minus the process umask before
     any data lands in the file. *)
  (try
     let um = Unix.umask 0 in
     ignore (Unix.umask um);
     Unix.chmod tmp (0o644 land lnot um)
   with Unix.Unix_error _ -> ());
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  (match
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         let base =
           {
             sink_write = (fun s off len -> output_substring oc s off len);
             sink_flush =
               (fun () ->
                 flush oc;
                 if fsync then Unix.fsync (Unix.descr_of_out_channel oc));
           }
         in
         let s = wrap base in
         (* Chunked writes of the image in place, so injected faults see
            the same granularity a real kernel write path would and no
            chunk is copied. *)
         let len = String.length image in
         let chunk = 65536 in
         let pos = ref 0 in
         while !pos < len do
           let l = min chunk (len - !pos) in
           s.sink_write image !pos l;
           pos := !pos + l
         done;
         s.sink_flush ())
   with
  | () -> ()
  | exception e ->
      cleanup ();
      raise e);
  (match Sys.rename tmp path with
  | () -> ()
  | exception e ->
      cleanup ();
      raise e);
  (* Best-effort directory sync so the rename itself survives a crash. *)
  if fsync then
    try
      let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd)
    with Unix.Unix_error _ | Sys_error _ -> ()

let save ?fsync ?wrap t path = write_atomic ?fsync ?wrap (serialize t) path

(* --- parsing ----------------------------------------------------------- *)

(* The reader parses the header lines of a byte image through a cursor
   and validates the geometry they describe against the image size
   {e before} any slice or allocation, so a forged header can produce
   [Truncated]/[Corrupt] but never [Out_of_memory] or [End_of_file]. *)

exception Fail of Kmm_error.t

let fail e = raise (Fail e)
let corrupt section detail = fail (Kmm_error.Corrupt (section, detail))

type reader = { img : Storage.t; mutable pos : int }

let sub_string (img : Storage.t) pos len =
  String.init len (fun i -> Char.chr (A1.get img (pos + i)))

(* No header line is this long (line 1 is under 500 bytes, line 2 is
   [section_table_len]), so a file with no early newline is cut here
   and fails as a bad line instead of being copied whole. *)
let max_header_line = 1024

(* Like [input_line]: up to ['\n'] (consumed), end of image or
   [max_header_line] bytes, whichever comes first. *)
let take_line r =
  let limit = min (Storage.length r.img) (r.pos + max_header_line) in
  let stop = ref r.pos in
  while !stop < limit && A1.get r.img !stop <> Char.code '\n' do
    incr stop
  done;
  let s = sub_string r.img r.pos (!stop - r.pos) in
  r.pos <- min (!stop + 1) limit;
  s

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> corrupt Kmm_error.Header (Printf.sprintf "unparsable %s field" what)

let hex_field what s =
  if String.length s <> 8 then
    corrupt Kmm_error.Header (Printf.sprintf "unparsable %s field" what)
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> corrupt Kmm_error.Header (Printf.sprintf "unparsable %s field" what)

(* Line 1's magic and version token: version 5 yields the remaining
   header fields; any other integer is a retired (v1–v4) or unknown
   format. *)
let version_fields line =
  match String.split_on_char ' ' line with
  | m :: v :: fields when m = magic && v = string_of_int version -> fields
  | m :: v :: _ when m = magic -> (
      match int_of_string_opt v with
      | Some nv -> fail (Kmm_error.Unsupported_version nv)
      | None -> fail Kmm_error.Bad_magic)
  | _ -> fail Kmm_error.Bad_magic

(* The header fields after the version token.  A forged or bit-flipped
   header must fail with the same friendly error as an unparsable one,
   and must never be allowed to drive a huge allocation (every derived
   length is bounded by the exact-size check of [prologue]).  The
   character totals let adoption skip the O(n) payload recount;
   [recount] cross-checks them against it. *)
let parse_header fields =
  let totals names vals = Array.of_list (1 :: List.map2 int_field names vals) in
  match fields with
  | [ n; occ_rate; sa_rate; sentinel_row; nsamples; blocks_bytes; super_len;
      ca; cc; cg; ct; fwd_rate; fwd_sentinel_row; fwd_blocks_bytes; fwd_super_len;
      fa; fc; fg; ft ] ->
      let h =
        {
          h_n = int_field "n" n;
          h_occ_rate = int_field "occ_rate" occ_rate;
          h_sa_rate = int_field "sa_rate" sa_rate;
          h_sentinel_row = int_field "sentinel_row" sentinel_row;
          h_nsamples = int_field "nsamples" nsamples;
          h_blocks_bytes = int_field "blocks_bytes" blocks_bytes;
          h_super_len = int_field "super_len" super_len;
          h_totals =
            totals [ "a_total"; "c_total"; "g_total"; "t_total" ] [ ca; cc; cg; ct ];
          h_fwd_rate = int_field "fwd_rate" fwd_rate;
          h_fwd_sentinel_row = int_field "fwd_sentinel_row" fwd_sentinel_row;
          h_fwd_blocks_bytes = int_field "fwd_blocks_bytes" fwd_blocks_bytes;
          h_fwd_super_len = int_field "fwd_super_len" fwd_super_len;
        }
      in
      let fwd_totals =
        totals [ "fwd_a_total"; "fwd_c_total"; "fwd_g_total"; "fwd_t_total" ] [ fa; fc; fg; ft ]
      in
      if
        h.h_n < 0 || h.h_occ_rate <= 0 || h.h_sa_rate <= 0 || h.h_sentinel_row < 0
        || h.h_sentinel_row > h.h_n || h.h_nsamples < 1 || h.h_nsamples > h.h_n + 1
        || h.h_blocks_bytes < 0 || h.h_super_len < 0
        || h.h_fwd_blocks_bytes < 0 || h.h_fwd_super_len < 0
        || Array.exists (fun v -> v < 0) h.h_totals
      then corrupt Kmm_error.Header "field out of range";
      if Array.fold_left ( + ) 0 h.h_totals <> h.h_n + 1 then
        corrupt Kmm_error.Header "character totals do not sum to length";
      if h.h_fwd_rate <= 0 then corrupt Kmm_error.Header "forward rate out of range";
      if h.h_fwd_sentinel_row < 0 || h.h_fwd_sentinel_row > h.h_n then
        corrupt Kmm_error.Header "forward sentinel row out of range";
      (* Both BWTs are permutations of text$. *)
      if fwd_totals <> h.h_totals then
        corrupt Kmm_error.Header "forward totals disagree with the character totals";
      h
  | _ -> corrupt Kmm_error.Header "wrong field count"

(* Parse the section-table line (newline stripped) and check it against
   the [layout] the header implies: every offset and length must match.
   Returns the stored CRCs. *)
let parse_sections ext line =
  if String.length line <> section_table_len - 1 then
    corrupt Kmm_error.Header "bad section table";
  match String.split_on_char ' ' line with
  | "sections" :: rest when List.length rest = 3 * nsections ->
      let f = Array.of_list rest in
      let table =
        Array.init nsections (fun i ->
            ( int_field "section offset" f.(3 * i),
              int_field "section length" f.((3 * i) + 1),
              hex_field "section checksum" f.((3 * i) + 2) ))
      in
      Array.iter2
        (fun (off, len, _) e ->
          if off <> e.off then corrupt Kmm_error.Header "section offset mismatch";
          if len <> e.len then corrupt Kmm_error.Header "section length mismatch")
        table ext;
      Array.map (fun (_, _, crc) -> crc) table
  | _ -> corrupt Kmm_error.Header "bad section table"

let parse_hcrc_line line =
  if
    String.length line = hcrc_line_len - 1
    && String.sub line 0 5 = "hcrc "
  then hex_field "header checksum" (String.sub line 5 8)
  else corrupt Kmm_error.Header "bad header checksum line"

(* The prologue both modes run over the image: version and header (line
   1), section table (line 2) and header CRC (line 3), then the image
   size the layout implies, to the byte, and the trailer magic.
   Returns the header, the section extents and their stored CRCs. *)
let prologue img =
  let r = { img; pos = 0 } in
  let h = parse_header (version_fields (take_line r)) in
  let l2 = take_line r in
  let l2_end = r.pos in
  let stored_hcrc = parse_hcrc_line (take_line r) in
  if Crc32.storage img ~pos:0 ~len:l2_end <> stored_hcrc then
    corrupt Kmm_error.Header "header checksum mismatch";
  let ext = layout h ~hdr_len:r.pos in
  let crcs = parse_sections ext l2 in
  let size = Storage.length img in
  let last = ext.(nsections - 1) in
  let expected_size = last.off + last.len + 8 in
  if size < expected_size then fail (Kmm_error.Truncated "index payload");
  if size > expected_size then
    corrupt Kmm_error.Trailer "trailing garbage after index payload";
  if sub_string img (size - 8) 4 <> trailer_magic then
    corrupt Kmm_error.Trailer "bad trailer magic";
  (h, ext, crcs)

(* The checks a Copy load runs before adopting: the whole-file CRC of
   the trailer (which also covers the padding bytes and the stored
   CRCs), then every section's CRC.  One pass over the payload: the
   whole-file CRC is combined from the sections' computed CRCs. *)
let check_crcs img (_, ext, crcs) =
  let size = Storage.length img in
  let crc ~pos ~len = Crc32.storage img ~pos ~len in
  let computed = Array.map (fun e -> crc ~pos:e.off ~len:e.len) ext in
  if whole_crc ~crc ext computed ~size <> get_le img (size - 4) 4 then
    corrupt Kmm_error.Trailer "whole-file checksum mismatch";
  Array.iteri (fun i c -> if c <> crcs.(i) then corrupt section_of.(i) "checksum mismatch") computed

(* The tail of adoption: clear the mark padding bits beyond row n,
   build the mark rank directory, check the sampling shape, and
   assemble the index. *)
let finish h ~ptext ~occ ~fwd ~marks ~samples =
  let n = h.h_n in
  (let rows = n + 1 in
   if rows land 7 <> 0 then begin
     let last = Storage.length marks - 1 in
     A1.set marks last (A1.get marks last land ((1 lsl (rows land 7)) - 1))
   end);
  let mark_cum, total = build_mark_cum marks (n + 1) in
  if total <> h.h_nsamples then corrupt Kmm_error.Sa_marks "sample count mismatch";
  if not (mark_test marks 0) then corrupt Kmm_error.Sa_marks "row 0 unmarked";
  {
    n;
    ptext;
    occ;
    fwd;
    fwd_sentinel_row = h.h_fwd_sentinel_row;
    c_array = Occ.c_array_of_counts h.h_totals;
    sa_rate = h.h_sa_rate;
    sentinel_row = h.h_sentinel_row;
    marks;
    mark_cum;
    nsamples = h.h_nsamples;
    samples;
    sample_bits = sample_bits ~n ~sa_rate:h.h_sa_rate;
  }

(* The one adoption path, for both modes: every byte section becomes a
   view into the image, both rank sides are adopted with the header's
   totals, and [finish] assembles the index.  [samples] gives the
   sample section as words (a second mapping of the file, or a copy of
   a heap image).  Nothing O(n) of the payload is checked here. *)
let adopt img (h, ext, _) ~samples =
  let view i = A1.sub img ext.(i).off ext.(i).len in
  let ints i = Array.init (ext.(i).len / 8) (fun j -> get_le img (ext.(i).off + (8 * j)) 8) in
  let side ~section ~rate ~sentinel ~blocks ~super =
    try
      Occ.of_raw ~rate ~len:(h.h_n + 1) ~sentinel ~blocks:(view blocks) ~super:(ints super)
        ~totals:h.h_totals
    with Invalid_argument msg -> corrupt section msg
  in
  let occ =
    side ~section:Kmm_error.Rank_blocks ~rate:h.h_occ_rate ~sentinel:h.h_sentinel_row
      ~blocks:s_blocks ~super:s_super
  in
  let fwd =
    side ~section:Kmm_error.Forward_blocks ~rate:h.h_fwd_rate ~sentinel:h.h_fwd_sentinel_row
      ~blocks:s_fwd_blocks ~super:s_fwd_super
  in
  finish h ~ptext:(Packed_text.of_storage (view s_text) ~len:h.h_n) ~occ ~fwd
    ~marks:(view s_marks) ~samples:(samples ext.(s_samples))

(* The verification pass over an adopted index, the part of a Copy load
   that no CRC covers: both sides' checkpoints recounted from their
   payloads, the text's bases against the BWT's, both against the
   header totals the index was adopted with, and every sample below
   n. *)
let recount t =
  let side occ section = try Occ.recount occ with Invalid_argument msg -> corrupt section msg in
  let counts = side t.occ Kmm_error.Rank_blocks in
  let fwd_counts = side t.fwd Kmm_error.Forward_blocks in
  (* Lane code d of the packed text is alphabet code d+1. *)
  let text_counts = Array.make sigma 0 in
  for i = 0 to t.n - 1 do
    let k = Packed_text.unsafe_get t.ptext i + 1 in
    text_counts.(k) <- text_counts.(k) + 1
  done;
  for c = 1 to sigma - 1 do
    if text_counts.(c) <> counts.(c) then
      corrupt Kmm_error.Text_section "text and BWT sections disagree"
  done;
  if counts <> Occ.counts t.occ then
    corrupt Kmm_error.Header "character totals disagree with payload";
  if fwd_counts <> Occ.counts t.fwd then
    corrupt Kmm_error.Forward_blocks "forward totals disagree with payload";
  for j = 0 to t.nsamples - 2 do
    if t.sa_rate * sample t.samples t.sample_bits j >= t.n then
      corrupt Kmm_error.Sa_samples "sample out of range"
  done

(* Copy mode over an image: every check, with the sample words copied
   out of the image. *)
let of_image img =
  let p = prologue img in
  check_crcs img p;
  let words e =
    let w = Storage.create_words (e.len / 8) in
    for j = 0 to (e.len / 8) - 1 do
      let off = e.off + (8 * j) in
      A1.unsafe_set w j
        (Int64.logor
           (Int64.of_int (get_le img off 4))
           (Int64.shift_left (Int64.of_int (get_le img (off + 4) 4)) 32))
    done;
    w
  in
  let t = adopt img p ~samples:words in
  recount t;
  t

(* Mmap mode: the file mapped once as bytes and its samples once more
   as words.  The header, geometry, size and trailer magic are checked
   — so truncation and any header-byte corruption are still detected —
   but not the payload CRCs or [recount] (that is the entire cold-start
   win).  Geometry validation keeps every derived offset in bounds and
   every LF walk ([lf_step]) is capped at [sa_rate] steps, so a
   corrupted payload yields wrong answers or a clean exception — never
   memory-unsafety, never a hang. *)
let of_file fd =
  let img = Storage.map_bytes fd ~pos:0 ~len:(Unix.fstat fd).Unix.st_size in
  adopt img (prologue img) ~samples:(fun e ->
      Storage.map_words fd ~pos:e.off ~len:(e.len / 8))

(* Copy mode reads the file to EOF into one buffer.  The size the file
   reports only sizes the first buffer: a file that shrinks mid-read,
   or a proc-style file that reports size 0, is read for what it
   holds. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let hint =
        match Unix.fstat (Unix.descr_of_in_channel ic) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
        | _ -> 0
      in
      let chunk = Bytes.create 65536 in
      let rec go buf len =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> A1.sub buf 0 len
        | got ->
            let buf =
              if len + got <= Storage.length buf then buf
              else begin
                let bigger = Storage.create (max (len + got) (2 * Storage.length buf)) in
                A1.blit buf (A1.sub bigger 0 (Storage.length buf));
                bigger
              end
            in
            for i = 0 to got - 1 do
              A1.unsafe_set buf (len + i) (Char.code (Bytes.unsafe_get chunk i))
            done;
            go buf (len + got)
      in
      go (Storage.create hint) 0)

(* Failures that are properties of the file come back typed; anything
   else is a reader bug and is surfaced as such rather than masked as
   corruption. *)
let guard f =
  match f () with
  | t -> Ok t
  | exception Fail e -> Error e
  | exception ((Unix.Unix_error _ | Sys_error _) as e) -> Error (Kmm_error.Io e)
  | exception e -> Error (Kmm_error.Internal (Printexc.to_string e))

let try_of_string image = guard (fun () -> of_image (Storage.of_string image))

type mode = Copy | Mmap

let try_load ?(mode = Copy) path =
  guard (fun () ->
      match mode with
      | Copy -> of_image (read_file path)
      | Mmap ->
          let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> of_file fd))
