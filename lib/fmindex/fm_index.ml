type interval = int * int

module A1 = Bigarray.Array1

(* The index owns no byte-per-character copy of anything: the BWT
   payload lives inside [occ]'s interleaved rank blocks (2 bits/base),
   the forward text is kept 2-bit packed with the unpacked string
   materialized on demand behind a domain-safe memo, the sentinel row is
   tracked out-of-band, and suffix-array samples are a marked-row
   bitvector with a rank directory plus a bit-packed sample array —
   [position_of_row] allocates nothing.  Every bulk buffer is a
   [Storage.t]/[Storage.words], so a loaded index is either heap-owned
   (Copy mode) or a set of views over an mmap'd index file (Mmap mode)
   — the query paths cannot tell the difference.

   [fwd] is the rank side of the mirror transform, BWT(rev text): the
   system indexes the reversed genome, so for it this is BWT of the
   genome itself, the side a bidirectional search ({!Bidir}) and
   [longest_left_extension] prepend through.  It is rank-only and never
   located, so it is kept at a sparser checkpoint rate. *)
type t = {
  n : int;  (* text length *)
  ptext : Packed_text.t;  (* forward text, 2-bit packed *)
  text : string Storage.Memo.t;  (* unpacked text, built on first use *)
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

(* The pair kernel decodes one block for a width-1 interval, two
   otherwise. *)
let[@inline] decodes ~lo ~hi = if hi = lo + 1 then 1 else 2

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

let c_array_of_counts counts =
  let c_array = Array.make sigma 0 in
  let sum = ref 0 in
  for c = 0 to sigma - 1 do
    c_array.(c) <- !sum;
    sum := !sum + counts.(c)
  done;
  c_array

(* Memo for an index whose text string is not in hand: unpack the 2-bit
   payload on first use. *)
let text_memo_of_packed ptext =
  Storage.Memo.make (fun () -> Packed_text.to_string ptext)

(* The forward side: checkpoints every 128 bases (0.3125 B/base) where
   the located side keeps 32; it serves only prepend steps
   ([Bidir]'s and [longest_left_extension]'s). *)
let forward_rate = 128

let build_forward ptext =
  let packed, sentinel_row, _ = Bwt.of_packed_text (Packed_text.rev ptext) in
  (Occ.of_packed ~rate:forward_rate ~sentinels:[| sentinel_row |] packed, sentinel_row)

(* Below this length a second domain costs more than the pass it
   overlaps. *)
let parallel_min = 1 lsl 16

(* [f ()] and [g ()], with [g] on a helper domain when asked for; a
   runtime that refuses the domain gets both on the caller's. *)
let both ~parallel f g =
  if not parallel then
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
  let occ = Occ.of_packed ~rate:occ_rate ~sentinels:[| sentinel_row |] packed in
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

let build ?(occ_rate = 32) ?(sa_rate = 16) ?(parallel = true) text =
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
     own SA-IS pass, on its own domain when there are two. *)
  let (occ, sentinel_row, marks, nsamples, samples), (fwd, fwd_sentinel_row) =
    both ~parallel:(parallel && n >= parallel_min)
      (fun () -> build_located ~occ_rate ~sa_rate ptext)
      (fun () -> build_forward ptext)
  in
  let mark_cum, total = build_mark_cum marks (n + 1) in
  assert (total = nsamples);
  {
    n;
    ptext;
    text = text_memo_of_packed ptext;
    occ;
    fwd;
    fwd_sentinel_row;
    c_array = c_array_of_counts (Occ.counts occ);
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
let text t = Storage.Memo.force t.text
let packed_text t = t.ptext
let bwt t = String.init (Occ.length t.occ) (fun row -> Dna.Alphabet.of_code (Occ.get t.occ row))
let whole t = (0, Occ.length t.occ)

(* ------------------------------------------------------------------ *)
(* Backward search                                                      *)

let extend t c (lo, hi) =
  if c <= 0 || c >= sigma then None
  else begin
    if Atomic.get Obs.taps then tap_rank 1 (decodes ~lo ~hi);
    let r_lo, r_hi = Occ.rank_pair t.occ c lo hi in
    let lo' = t.c_array.(c) + r_lo in
    let hi' = t.c_array.(c) + r_hi in
    if lo' < hi' then Some (lo', hi') else None
  end

let interval_of_char t c = extend t c (whole t)

(* Character codes of a pattern, case folded; [None] when any character
   is outside ACGT (such a pattern occurs nowhere rather than raising). *)
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
      let m = Array.length codes in
      if m = 0 then Some (whole t)
      else begin
        let rec go i iv =
          if i < 0 then Some iv
          else match extend t codes.(i) iv with None -> None | Some iv' -> go (i - 1) iv'
        in
        go (m - 1) (whole t)
      end

(* [count] is [search] unrolled into an allocation-free loop: no interval
   options, no per-step tuples, and the shared-decode pair kernel doing
   the two rank queries of each step.  The unchecked kernel is sound
   here: [codes_of_pattern] proves every [c] is in 1..sigma-1, and the
   interval arithmetic keeps [0 <= lo <= hi <= length] invariant. *)
let count t pat =
  match codes_of_pattern pat with
  | None -> 0
  | Some codes ->
      let m = Array.length codes in
      if m = 0 then Occ.length t.occ
      else begin
        let measured = Atomic.get Obs.taps in
        let ops = ref 0 and blocks = ref 0 in
        let lo = ref 0 and hi = ref (Occ.length t.occ) in
        let pr = Array.make 2 0 in
        let i = ref (m - 1) in
        while !i >= 0 && !lo < !hi do
          let c = Array.unsafe_get codes !i in
          if measured then begin
            Stdlib.incr ops;
            blocks := !blocks + decodes ~lo:!lo ~hi:!hi
          end;
          Occ.rank_pair_into_unsafe t.occ c !lo !hi pr;
          let cc = Array.unsafe_get t.c_array c in
          lo := cc + Array.unsafe_get pr 0;
          hi := cc + Array.unsafe_get pr 1;
          decr i
        done;
        if measured then tap_rank !ops !blocks;
        if !hi > !lo then !hi - !lo else 0
      end

(* [longest_left_extension] is backward search on the forward side:
   from the whole interval it prepends [codes.(stop - 1)], then
   [codes.(stop - 2)], ... until the interval empties or [codes.(0)] is
   in, unrolled like [count].  Both BWTs permute the same [s$], so
   the located side's C array serves the forward side too.  Each step
   counts like an [extend] (the step that empties the interval counts, a
   code outside 1..sigma-1 stops the run uncounted). *)
let longest_left_extension t codes ~stop =
  if stop < 0 || stop > Array.length codes then
    invalid_arg "Fm_index.longest_left_extension: stop out of range";
  let measured = Atomic.get Obs.taps in
  let ops = ref 0 and blocks = ref 0 in
  let lo = ref 0 and hi = ref (Occ.length t.fwd) in
  let pr = Array.make 2 0 in
  let j = ref stop and live = ref true in
  while !live && !j > 0 do
    let c = Array.unsafe_get codes (!j - 1) in
    if c <= 0 || c >= sigma then live := false
    else begin
      if measured then begin
        Stdlib.incr ops;
        blocks := !blocks + decodes ~lo:!lo ~hi:!hi
      end;
      Occ.rank_pair_into_unsafe t.fwd c !lo !hi pr;
      let cc = Array.unsafe_get t.c_array c in
      lo := cc + Array.unsafe_get pr 0;
      hi := cc + Array.unsafe_get pr 1;
      if !lo < !hi then decr j else live := false
    end
  done;
  if measured then tap_rank !ops !blocks;
  stop - !j

(* A legitimate LF walk reaches a marked row within [sa_rate] steps
   (positions decrease by one per step and every sa_rate-th is marked).
   A corrupted Occ payload — reachable only through an mmap'd load,
   which skips the payload CRCs — could otherwise cycle through
   unmarked rows forever; the bound turns that hang into an exception. *)
let walk_overrun () =
  failwith "Fm_index.locate: LF walk exceeded the sample rate (corrupt index?)"

let position_of_row t row =
  let row = ref row and steps = ref 0 in
  while not (mark_test t.marks !row) do
    if !steps >= t.sa_rate then walk_overrun ();
    row := Occ.lf t.occ t.c_array !row;
    Stdlib.incr steps
  done;
  if Atomic.get Obs.taps then begin
    Obs.tap C.fm_locate_walks 1;
    Obs.tap C.fm_locate_steps !steps;
    (* Each LF step is one rank over the block holding its row. *)
    tap_rank !steps !steps
  end;
  let row = !row in
  if row = 0 then t.n + !steps
  else (t.sa_rate * sample t.samples t.sample_bits (mark_rank t row - 1)) + !steps

let locate_row t row =
  if row < 0 || row >= Occ.length t.occ then invalid_arg "Fm_index.locate_row: row out of range";
  position_of_row t row

let locate_into t (lo, hi) dst =
  let rows = Occ.length t.occ in
  if lo < 0 || hi > rows || lo > hi then invalid_arg "Fm_index.locate_into: bad interval";
  if Array.length dst < hi - lo then invalid_arg "Fm_index.locate_into: buffer too small";
  for row = lo to hi - 1 do
    Array.unsafe_set dst (row - lo) (position_of_row t row)
  done

let locate t (lo, hi) =
  if hi <= lo then []
  else begin
    let buf = Array.make (hi - lo) 0 in
    locate_into t (lo, hi) buf;
    Array.sort Int.compare buf;
    (* Distinct rows resolve to distinct suffix positions, so no dedup
       pass is needed. *)
    Array.to_list buf
  end

let find_all t pat =
  match search t pat with None -> [] | Some iv -> locate t iv

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

let extend_all t ~lo ~hi ~los ~his =
  (* One boundary check here, then the unchecked pair kernel: engines
     call this millions of times per read with intervals they derived
     from [whole]/previous extensions, so the in-range invariant holds
     and per-call revalidation inside [Occ] would be pure overhead. *)
  if lo < 0 || hi < lo || hi > Occ.length t.occ then
    invalid_arg "Fm_index.extend_all: interval out of range";
  if Array.length los <> sigma || Array.length his <> sigma then
    invalid_arg "Fm_index.extend_all: bad dst size";
  if Atomic.get Obs.taps then tap_rank 1 (decodes ~lo ~hi);
  Occ.rank_all_pair_unsafe t.occ lo hi los his;
  for c = 0 to sigma - 1 do
    let base = Array.unsafe_get t.c_array c in
    Array.unsafe_set los c (base + Array.unsafe_get los c);
    Array.unsafe_set his c (base + Array.unsafe_get his c)
  done

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

   Both BWTs are permutations of text$, so the forward totals must equal
   the located side's; the readers refuse a header where they differ.

   The alignment + explicit offset table is what makes the file
   mmap-adoptable: every section can be turned into a Bigarray view in
   place (the int64 sections need 8-byte alignment), so [load
   ~mode:Mmap] touches O(header + superblocks + marks) bytes instead of
   O(file).  The header CRC lets both readers trust the geometry before
   doing anything with it; the per-section CRCs attribute corruption;
   the whole-file trailer covers what they cannot (header, padding, the
   checksum fields themselves) and doubles as an end-of-file marker.
   The Copy reader checks everything, so any single-byte corruption or
   truncation is detected deterministically; the Mmap reader checks the
   header CRC, geometry, file size and trailer magic but — by design —
   not the bulk payload CRCs, trading detection of payload rot for the
   cold-start win ([kmm verify] runs the full Copy validation).

   Loading adopts the buffers directly; no BWT inversion, no LF walk, no
   suffix sorting.  Files of the retired formats v1–v4 are rejected with
   [Unsupported_version]; such an index is rebuilt with [kmm index]. *)

let magic = "kmm-fm-index"
let version = 5
let trailer_magic = "kmm5"
let nsections = 7

let bytes_of_ints a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (i * 8) (Int64.of_int v)) a;
  b

let ints_of_string s =
  Array.init (String.length s / 8) (fun i -> Int64.to_int (String.get_int64_le s (i * 8)))

let le32_of_int v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let int_of_le32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* --- serialization ---------------------------------------------------- *)

let sections t =
  [
    Packed_text.payload_string t.ptext;
    Storage.to_string (Occ.raw_blocks t.occ);
    Bytes.unsafe_to_string (bytes_of_ints (Occ.raw_super t.occ));
    Storage.to_string (Occ.raw_blocks t.fwd);
    Bytes.unsafe_to_string (bytes_of_ints (Occ.raw_super t.fwd));
    Storage.to_string t.marks;
    Storage.words_to_string t.samples;
  ]

let align8 x = (x + 7) land lnot 7

(* Fixed-width section-table geometry: "sections" + 7 entries of
   " <12-digit offset> <12-digit length> <8-hex CRC>" + "\n". *)
let section_table_len = 8 + (nsections * (1 + 12 + 1 + 12 + 1 + 8)) + 1
let hcrc_line_len = String.length "hcrc " + 8 + 1

(* The whole v5 file as one in-memory image: serialization is separated
   from file I/O so the byte-sweep tests (and the fuzz oracle) can
   corrupt and re-parse images without touching the filesystem. *)
let serialize t =
  let secs = sections t in
  let counts = Occ.counts t.occ and fwd_counts = Occ.counts t.fwd in
  let l1 =
    Printf.sprintf "%s %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n" magic
      version t.n (Occ.rate t.occ) t.sa_rate t.sentinel_row
      t.nsamples
      (Storage.length (Occ.raw_blocks t.occ))
      (Array.length (Occ.raw_super t.occ))
      counts.(1) counts.(2) counts.(3) counts.(4)
      (Occ.rate t.fwd) t.fwd_sentinel_row
      (Storage.length (Occ.raw_blocks t.fwd))
      (Array.length (Occ.raw_super t.fwd))
      fwd_counts.(1) fwd_counts.(2) fwd_counts.(3) fwd_counts.(4)
  in
  let hdr_len = String.length l1 + section_table_len + hcrc_line_len in
  let offs =
    let rec go cur = function
      | [] -> []
      | s :: rest ->
          let off = align8 cur in
          off :: go (off + String.length s) rest
    in
    go hdr_len secs
  in
  (if List.exists (fun off -> off > 999_999_999_999) offs then
     invalid_arg "Fm_index.serialize: index too large for the v5 section table");
  let l2buf = Buffer.create section_table_len in
  Buffer.add_string l2buf "sections";
  List.iter2
    (fun off s ->
      Buffer.add_string l2buf
        (Printf.sprintf " %012d %012d %08x" off (String.length s) (Crc32.string s)))
    offs secs;
  Buffer.add_char l2buf '\n';
  let l2 = Buffer.contents l2buf in
  assert (String.length l2 = section_table_len);
  let l3 = Printf.sprintf "hcrc %08x\n" (Crc32.string ~init:(Crc32.string l1) l2) in
  let image_len =
    List.fold_left2 (fun _ off s -> off + String.length s) hdr_len offs secs
    + String.length trailer_magic + 4
  in
  let buf = Buffer.create image_len in
  let crc = ref 0 in
  let add s =
    Buffer.add_string buf s;
    crc := Crc32.string ~init:!crc s
  in
  add l1;
  add l2;
  add l3;
  List.iter2
    (fun off s ->
      let cur = Buffer.length buf in
      if off > cur then add (String.make (off - cur) '\000');
      add s)
    offs secs;
  add trailer_magic;
  Buffer.add_string buf (le32_of_int !crc);
  assert (Buffer.length buf = image_len);
  Buffer.contents buf

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

(* Both readers parse the header lines through a cursor and validate the
   geometry they describe against the file size {e before} any slice,
   mapping or allocation, so a forged header can produce
   [Truncated]/[Corrupt] but never [Out_of_memory] or [End_of_file]. *)

exception Fail of Kmm_error.t

let fail e = raise (Fail e)
let corrupt section detail = fail (Kmm_error.Corrupt (section, detail))

type reader = { image : string; mutable pos : int }

(* Like [input_line]: up to ['\n'] (consumed) or end of image. *)
let take_line r =
  let stop =
    match String.index_from_opt r.image r.pos '\n' with
    | Some i -> i
    | None -> String.length r.image
  in
  let s = String.sub r.image r.pos (stop - r.pos) in
  r.pos <- min (stop + 1) (String.length r.image);
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

(* The header fields after the version token.  A forged or bit-flipped
   header must fail with the same friendly error as an unparsable one,
   and must never be allowed to drive a huge allocation (every derived
   length is bounded by the exact-file-size check of [read_prologue]).
   The character totals let the mmap reader skip the O(n) payload
   recount; the Copy reader cross-checks them against it. *)
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

(* Where one section lies in the file, and its stored CRC-32. *)
type extent = { off : int; len : int; crc : int }

(* Section indices in file order. *)
let s_text = 0
let s_blocks = 1
let s_super = 2
let s_fwd_blocks = 3
let s_fwd_super = 4
let s_marks = 5
let s_samples = 6

(* Parse and validate the section-table line (newline stripped) against
   the header geometry: every offset must be the 8-aligned successor of
   the previous section and every length must match the header. *)
let parse_sections h ~hdr_len line =
  if String.length line <> section_table_len - 1 then
    corrupt Kmm_error.Header "bad section table";
  match String.split_on_char ' ' line with
  | "sections" :: rest when List.length rest = 3 * nsections ->
      let f = Array.of_list rest in
      let ext =
        Array.init nsections (fun i ->
            {
              off = int_field "section offset" f.(3 * i);
              len = int_field "section length" f.((3 * i) + 1);
              crc = hex_field "section checksum" f.((3 * i) + 2);
            })
      in
      let bits = sample_bits ~n:h.h_n ~sa_rate:h.h_sa_rate in
      let expected_lens =
        [| (h.h_n + 3) / 4; h.h_blocks_bytes; 8 * h.h_super_len; h.h_fwd_blocks_bytes;
           8 * h.h_fwd_super_len; (h.h_n + 8) / 8;
           8 * sample_words ~nsamples:h.h_nsamples ~bits |]
      in
      let cur = ref hdr_len in
      Array.iter2
        (fun e len ->
          if e.off <> align8 !cur then corrupt Kmm_error.Header "section offset mismatch";
          if e.len <> len then corrupt Kmm_error.Header "section length mismatch";
          cur := e.off + e.len)
        ext expected_lens;
      ext
  | _ -> corrupt Kmm_error.Header "bad section table"

let parse_hcrc_line line =
  if
    String.length line = hcrc_line_len - 1
    && String.sub line 0 5 = "hcrc "
  then hex_field "header checksum" (String.sub line 5 8)
  else corrupt Kmm_error.Header "bad header checksum line"

(* The prologue both readers run: version and header (line 1), section
   table (line 2) and header CRC (line 3), then the file size the
   geometry implies, to the byte.  [r] covers at least the header lines
   of a file of [size] bytes.  Returns the header and the section
   extents in file order. *)
let read_prologue r ~size =
  let h = parse_header (version_fields (take_line r)) in
  let l2 = take_line r in
  let l2_end = r.pos in
  let stored_hcrc = parse_hcrc_line (take_line r) in
  if Crc32.sub r.image ~pos:0 ~len:l2_end <> stored_hcrc then
    corrupt Kmm_error.Header "header checksum mismatch";
  let ext = parse_sections h ~hdr_len:r.pos l2 in
  let last = ext.(nsections - 1) in
  let expected_size = last.off + last.len + 8 in
  if size < expected_size then fail (Kmm_error.Truncated "index payload");
  if size > expected_size then
    corrupt Kmm_error.Trailer "trailing garbage after index payload";
  (h, ext)

let adopt_text h data =
  try Packed_text.of_storage data ~len:h.h_n
  with Invalid_argument _ -> corrupt Kmm_error.Text_section "bad packed payload"

(* The two rank sides, adopted with [of_raw] (Copy: recount every
   checkpoint) or [of_raw_trusted] (Mmap: take the header's totals). *)
let adopt_occ adopt ~section ~rate ~len ~sentinel_row =
  try adopt ~rate ~len ~sentinels:[| sentinel_row |]
  with Invalid_argument msg -> corrupt section msg

(* The tail both readers run once the bulk buffers are adopted: clear
   the mark padding bits beyond row n, build the mark rank directory,
   check the sampling shape, and assemble the index. *)
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
    text = text_memo_of_packed ptext;
    occ;
    fwd;
    fwd_sentinel_row = h.h_fwd_sentinel_row;
    c_array = c_array_of_counts h.h_totals;
    sa_rate = h.h_sa_rate;
    sentinel_row = h.h_sentinel_row;
    marks;
    mark_cum;
    nsamples = h.h_nsamples;
    samples;
    sample_bits = sample_bits ~n ~sa_rate:h.h_sa_rate;
  }

(* Copy-mode reader: full verification — header CRC, exact file size,
   whole-file trailer CRC (which covers the alignment padding),
   per-section CRCs, then the structural recount: both sides' Occ
   checkpoints, the text/BWT character totals (an O(n) lane scan, no
   reconstruction) against each other and against the header, and the
   sample range. *)
let read_copy image =
  let r = { image; pos = 0 } in
  let size = String.length image in
  let h, ext = read_prologue r ~size in
  (* Trailer before sections: it is the cheap whole-file check, and it
     also covers the padding bytes no section CRC sees. *)
  if String.sub image (size - 8) 4 <> trailer_magic then
    corrupt Kmm_error.Trailer "bad trailer magic";
  if Crc32.sub image ~pos:0 ~len:(size - 4) <> int_of_le32 image (size - 4) then
    corrupt Kmm_error.Trailer "whole-file checksum mismatch";
  let section i sec =
    let payload = String.sub image ext.(i).off ext.(i).len in
    if Crc32.string payload <> ext.(i).crc then corrupt sec "checksum mismatch";
    payload
  in
  let text_s = section s_text Kmm_error.Text_section in
  let blocks_s = section s_blocks Kmm_error.Rank_blocks in
  let super_s = section s_super Kmm_error.Superblocks in
  let fwd_blocks_s = section s_fwd_blocks Kmm_error.Forward_blocks in
  let fwd_super_s = section s_fwd_super Kmm_error.Forward_superblocks in
  let marks_s = section s_marks Kmm_error.Sa_marks in
  let samples_s = section s_samples Kmm_error.Sa_samples in
  let n = h.h_n in
  let ptext = adopt_text h (Storage.of_string text_s) in
  let recount blocks super ~rate ~len ~sentinels =
    Occ.of_raw ~rate ~len ~sentinels ~blocks:(Storage.of_string blocks)
      ~super:(ints_of_string super)
  in
  let occ =
    adopt_occ (recount blocks_s super_s) ~section:Kmm_error.Rank_blocks ~rate:h.h_occ_rate
      ~len:(n + 1) ~sentinel_row:h.h_sentinel_row
  in
  let fwd =
    adopt_occ (recount fwd_blocks_s fwd_super_s) ~section:Kmm_error.Forward_blocks
      ~rate:h.h_fwd_rate ~len:(n + 1) ~sentinel_row:h.h_fwd_sentinel_row
  in
  (* Lane code d of the packed text is alphabet code d+1. *)
  let counts = Occ.counts occ in
  let text_counts = Array.make sigma 0 in
  for i = 0 to n - 1 do
    let k = Packed_text.unsafe_get ptext i + 1 in
    text_counts.(k) <- text_counts.(k) + 1
  done;
  for c = 1 to sigma - 1 do
    if text_counts.(c) <> counts.(c) then
      corrupt Kmm_error.Text_section "text and BWT sections disagree"
  done;
  if counts <> h.h_totals then
    corrupt Kmm_error.Header "character totals disagree with payload";
  if Occ.counts fwd <> h.h_totals then
    corrupt Kmm_error.Forward_blocks "forward totals disagree with payload";
  let t =
    finish h ~ptext ~occ ~fwd ~marks:(Storage.of_string marks_s)
      ~samples:(Storage.words_of_string samples_s)
  in
  for j = 0 to t.nsamples - 2 do
    if t.sa_rate * sample t.samples t.sample_bits j >= n then
      corrupt Kmm_error.Sa_samples "sample out of range"
  done;
  t

let read_exact fd ~pos ~len ~what =
  let b = Bytes.create len in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let got = ref 0 in
  while !got < len do
    let k = Unix.read fd b !got (len - !got) in
    if k = 0 then fail (Kmm_error.Truncated what);
    got := !got + k
  done;
  Bytes.unsafe_to_string b

(* Mmap-mode reader.  Validation model: the header lines go through the
   same prologue as the Copy reader (CRC, ranges, geometry, exact file
   size) and the trailer magic must be present — so truncation and any
   header-byte corruption are still detected.  The bulk payload CRCs
   and the O(n) structural recount are deliberately skipped (that is
   the entire cold-start win); geometry validation keeps every derived
   offset in bounds and the LF walk in [position_of_row] is capped at
   [sa_rate] steps, so a corrupted payload yields wrong answers or a
   clean exception — never memory-unsafety, never a hang.  [kmm verify]
   re-reads the file in Copy mode for the full check. *)
let read_mmap fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let prefix = read_exact fd ~pos:0 ~len:(min size 1024) ~what:"index header" in
  let h, ext = read_prologue { image = prefix; pos = 0 } ~size in
  let trailer = read_exact fd ~pos:(size - 8) ~len:8 ~what:"trailer" in
  if String.sub trailer 0 4 <> trailer_magic then
    corrupt Kmm_error.Trailer "bad trailer magic";
  let map i = Storage.map_bytes fd ~pos:ext.(i).off ~len:ext.(i).len in
  (* Superblocks are tiny (4 ints per 64 Ki bases): read them into the
     int array the rank kernel wants rather than keeping a mapping. *)
  let ints i what = ints_of_string (read_exact fd ~pos:ext.(i).off ~len:ext.(i).len ~what) in
  let trusted blocks super ~rate ~len ~sentinels =
    Occ.of_raw_trusted ~rate ~len ~sentinels ~blocks ~super ~totals:h.h_totals
  in
  let ptext = adopt_text h (map s_text) in
  let occ =
    adopt_occ
      (trusted (map s_blocks) (ints s_super "superblocks"))
      ~section:Kmm_error.Rank_blocks ~rate:h.h_occ_rate ~len:(h.h_n + 1)
      ~sentinel_row:h.h_sentinel_row
  in
  let fwd =
    adopt_occ
      (trusted (map s_fwd_blocks) (ints s_fwd_super "forward superblocks"))
      ~section:Kmm_error.Forward_blocks ~rate:h.h_fwd_rate ~len:(h.h_n + 1)
      ~sentinel_row:h.h_fwd_sentinel_row
  in
  let samples =
    Storage.map_words fd ~pos:ext.(s_samples).off ~len:(ext.(s_samples).len / 8)
  in
  finish h ~ptext ~occ ~fwd ~marks:(map s_marks) ~samples

(* Failures that are properties of the file come back typed; anything
   else is a reader bug and is surfaced as such rather than masked as
   corruption. *)
let guard f =
  match f () with
  | t -> Ok t
  | exception Fail e -> Error e
  | exception ((Unix.Unix_error _ | Sys_error _) as e) -> Error (Kmm_error.Io e)
  | exception e -> Error (Kmm_error.Internal (Printexc.to_string e))

let try_of_string image = guard (fun () -> read_copy image)

(* Chunked read-to-EOF: never trusts [in_channel_length], so a file that
   shrinks mid-read or a size probe confused by a proc-style file cannot
   escape as an untyped [End_of_file], and the only failure above
   [Sys.max_string_length] is the [Buffer] size limit ([Failure]),
   mapped to a typed error by [try_load]. *)
let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let got = input ic chunk 0 65536 in
        if got > 0 then begin
          Buffer.add_subbytes buf chunk 0 got;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let try_load_copy path =
  match read_whole_file path with
  | image -> try_of_string image
  | exception (Sys_error _ as e) -> Error (Kmm_error.Io e)
  | exception End_of_file -> Error (Kmm_error.Truncated "index file")
  | exception Failure msg -> Error (Kmm_error.Io (Failure msg))

let try_load_mmap path =
  guard (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> read_mmap fd))

type mode = Copy | Mmap

let try_load ?(mode = Copy) path =
  match mode with Copy -> try_load_copy path | Mmap -> try_load_mmap path

let load ?mode path =
  match try_load ?mode path with
  | Ok t -> t
  | Error (Kmm_error.Io e) -> raise e
  | Error e -> failwith (path ^ ": " ^ Kmm_error.to_string e)
