(* 2-bit packed DNA text.  Lane i lives in byte (i lsr 2) at bit offset
   (i land 3) * 2, LSB first — the byte layout shared by the in-memory
   rank blocks and the on-disk payload of every index format.  The
   buffer is a Storage.t, so it is either heap-allocated or a view over
   an mmap'd format-v5 section; readers cannot tell the difference. *)

module A1 = Bigarray.Array1

type t = { data : Storage.t; len : int }

let empty = { data = Storage.create 0; len = 0 }
let length t = t.len
let nbytes len = (len + 3) / 4

let unsafe_get t i =
  A1.unsafe_get t.data (i lsr 2) lsr ((i land 3) * 2) land 3

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Packed_text.get: index out of range";
  unsafe_get t i

let init n f =
  if n < 0 then invalid_arg "Packed_text.init: negative length";
  let data = Storage.create (nbytes n) in
  for i = 0 to n - 1 do
    let d = f i in
    if d < 0 || d > 3 then invalid_arg "Packed_text.init: lane code out of range";
    let b = i lsr 2 in
    A1.unsafe_set data b (A1.unsafe_get data b lor (d lsl ((i land 3) * 2)))
  done;
  { data; len = n }

let code_of_base c =
  match c with
  | 'a' | 'A' -> Some 0
  | 'c' | 'C' -> Some 1
  | 'g' | 'G' -> Some 2
  | 't' | 'T' -> Some 3
  | _ -> None

let base_of_code d =
  match d with
  | 0 -> 'a'
  | 1 -> 'c'
  | 2 -> 'g'
  | 3 -> 't'
  | _ -> invalid_arg "Packed_text.base_of_code: lane code out of range"

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | 'a' -> 0
      | 'c' -> 1
      | 'g' -> 2
      | 't' -> 3
      | c ->
          invalid_arg
            (Printf.sprintf "Packed_text.of_string: %C is not a lowercase base" c))

let to_string t = String.init t.len (fun i -> base_of_code (unsafe_get t i))

let storage t = t.data

let of_storage data ~len =
  if len < 0 then invalid_arg "Packed_text.of_storage: negative length";
  if Storage.length data <> nbytes len then
    invalid_arg "Packed_text.of_storage: payload size does not match length";
  (* Clear padding lanes of the last byte so byte-parallel counts stay
     exact even on dirty input.  Mapped storage is copy-on-write, so
     this never reaches the file. *)
  (if len land 3 <> 0 then
     let last = Storage.length data - 1 in
     let keep = (1 lsl ((len land 3) * 2)) - 1 in
     A1.set data last (A1.get data last land keep));
  { data; len }

(* [lane_rev_table.(b)] is byte [b] with its four lanes in reverse
   order. *)
let lane_rev_table =
  Array.init 256 (fun b ->
      ((b land 3) lsl 6) lor (((b lsr 2) land 3) lsl 4) lor (((b lsr 4) land 3) lsl 2)
      lor (b lsr 6))

(* Reversing the bytes in order and the lanes of each byte through the
   table reverses the text padded to whole bytes, so its [pad] padding
   lanes come first; shifting every byte down by [pad] lanes (pulling
   the low lanes of the next byte into the top) drops them, and leaves
   the final byte's padding zero. *)
let rev t =
  let n = t.len in
  let nb = nbytes n in
  let data = Storage.create nb in
  let sh = 2 * ((4 - (n land 3)) land 3) in
  let src j = Array.unsafe_get lane_rev_table (A1.unsafe_get t.data (nb - 1 - j)) in
  let cur = ref (if nb > 0 then src 0 else 0) in
  for j = 0 to nb - 1 do
    let next = if j + 1 < nb then src (j + 1) else 0 in
    A1.unsafe_set data j ((!cur lsr sh) lor ((next lsl (8 - sh)) land 0xff));
    cur := next
  done;
  { data; len = n }

(* ------------------------------------------------------------------ *)
(* SWAR count tables                                                    *)

(* lane_count_table.(byte) packs, in one int, the number of lanes of
   [byte] equal to lane code 1 (bits 0..15), 2 (bits 16..31) and 3
   (bits 32..47).  This is the Occ rank-scan table, hoisted here so the
   rank kernel and the verification kernel share one definition; Occ
   re-exports it.  Accumulating it over up to 16383 bytes keeps every
   16-bit field below 65536 — one load and one add per 4 bases. *)
let lane_count_table =
  Array.init 256 (fun byte ->
      let acc = ref 0 in
      for lane = 0 to 3 do
        match (byte lsr (lane * 2)) land 3 with
        | 0 -> ()
        | d -> acc := !acc + (1 lsl ((d - 1) * 16))
      done;
      !acc)

(* mismatch_count_table.(byte) = number of non-zero 2-bit lanes of
   [byte]: the per-byte Hamming weight of a XOR of two packed buffers.
   Derived from [lane_count_table] (sum of its three fields) so the two
   can never drift. *)
let mismatch_count_table =
  Array.map
    (fun s -> (s land 0xffff) + ((s lsr 16) land 0xffff) + ((s lsr 32) land 0xffff))
    lane_count_table

(* Kept for perfbench/layers.ml, its only caller. *)
module Telemetry = struct
  let set_enabled = Obs.set_taps
end

(* ------------------------------------------------------------------ *)
(* Word-parallel Hamming kernel                                         *)

(* Geometry.  The kernel compares [word_lanes] = 28 lanes (7 packed
   bytes, 56 bits) per step.  Why not 64 bits: the packed buffer is a
   Bigarray of int8 — there is no unaligned wide load and no int8→int64
   reinterpretation in the stdlib, and OCaml's native [int] is 63 bits
   (Int64 boxes without flambda), so the widest branch-free word we can
   assemble from byte loads and still SWAR-reduce in registers is 7
   bytes.  At 56 bits per XOR this is still 28 bases per step versus 1
   for the byte-at-a-time scan. *)

let word_bytes = 7
let word_lanes = 4 * word_bytes

(* A pattern pre-packed at all four lane phases.  Phase [p] stores the
   pattern shifted up by [p] lanes, so comparing against text position
   [pos] (phase [pos land 3]) reduces to whole-byte XORs starting at
   text byte [pos lsr 2] — no cross-byte bit shuffling at query time.
   [masks] zero out the [p] leading padding lanes of the first word and
   the trailing padding lanes of the last, so there is no separate
   scalar tail: ragged edges are masked lanes (XOR result 0 = match),
   and lane code 0 never counts as a mismatch by construction. *)
module Pattern = struct
  type phase = {
    words : int array;  (* 7-byte little-endian groups of the shifted pattern *)
    masks : int array;  (* same shape; 2-bit lanes kept = 0b11, padding = 0b00 *)
    last_bytes : int;  (* payload bytes covered by the final word, 1..7 *)
  }

  type t = { m : int; phases : phase array }

  let length t = t.m
  let phase t p = t.phases.(p)

  let word_bits = 2 * word_lanes
  let word_mask = (1 lsl word_bits) - 1

  (* Lanes [lo, hi) of a word (0 <= lo <= hi <= word_lanes) as 0b11
     fields. *)
  let lane_mask lo hi = ((1 lsl (2 * hi)) - 1) land lnot ((1 lsl (2 * lo)) - 1)

  (* Phase [p] from the phase-0 words [w0] of an [m]-lane pattern: every
     lane moves up by [p], so each word is its phase-0 word shifted left
     by [2p] bits plus the top [p] lanes of the word below it. *)
  let shifted w0 m p =
    let nb = nbytes (p + m) in
    let nw = (nb + word_bytes - 1) / word_bytes in
    let n0 = Array.length w0 in
    let words = Array.make nw 0 and masks = Array.make nw 0 in
    for w = 0 to nw - 1 do
      let cur = if w < n0 then Array.unsafe_get w0 w else 0 in
      let below = if w > 0 then Array.unsafe_get w0 (w - 1) lsr (word_bits - (2 * p)) else 0 in
      words.(w) <- ((cur lsl (2 * p)) land word_mask) lor below;
      let base = w * word_lanes in
      masks.(w) <- lane_mask (max p base - base) (min (p + m) (base + word_lanes) - base)
    done;
    { words; masks; last_bytes = nb - (word_bytes * (nw - 1)) }

  (* Lane code of each byte: 0..3 for [acgt], 4 for anything else. *)
  let lane_of_byte =
    String.init 256 (fun b ->
        match Char.chr b with
        | 'a' -> '\000'
        | 'c' -> '\001'
        | 'g' -> '\002'
        | 't' -> '\003'
        | _ -> '\004')

  let[@inline never] not_a_base c =
    invalid_arg (Printf.sprintf "Packed_text.Pattern.make: %C is not a lowercase base" c)

  (* One pass over the pattern, front to back or back to front, fills
     the phase-0 words. *)
  let pack ~rev s =
    let m = String.length s in
    if m = 0 then invalid_arg "Packed_text.Pattern: empty pattern";
    let w0 = Array.make ((m + word_lanes - 1) / word_lanes) 0 in
    let w = ref 0 and shift = ref 0 in
    for i = 0 to m - 1 do
      let c = String.unsafe_get s (if rev then m - 1 - i else i) in
      let d = Char.code (String.unsafe_get lane_of_byte (Char.code c)) in
      if d > 3 then not_a_base c;
      Array.unsafe_set w0 !w (Array.unsafe_get w0 !w lor (d lsl !shift));
      if !shift = word_bits - 2 then begin
        incr w;
        shift := 0
      end
      else shift := !shift + 2
    done;
    { m; phases = Array.init 4 (shifted w0 m) }

  let make s = pack ~rev:false s
  let make_rev s = pack ~rev:true s

  let of_codes codes =
    Array.iter
      (fun d ->
        if d < 0 || d > 3 then
          invalid_arg "Packed_text.Pattern: lane code out of range")
      codes;
    make (String.init (Array.length codes) (fun i -> base_of_code codes.(i)))

  let of_packed t ~pos ~len =
    if len <= 0 || pos < 0 || pos + len > t.len then
      invalid_arg "Packed_text.Pattern.of_packed: window out of range";
    of_codes (Array.init len (fun i -> unsafe_get t (pos + i)))
end

(* Count the non-zero 2-bit lanes of a 56-bit word: fold each lane to
   one bit (OR of its two bits, masked), then SWAR-popcount.  Every
   4-bit partial sum is <= 4 and every byte sum <= 8, so the folds never
   carry; the final multiply accumulates the 7 byte sums (total <= 28)
   into bits 56..62, safely below the 63-bit native-int width. *)
let[@inline] count_mismatch_word x =
  let y = (x lor (x lsr 1)) land 0x55555555555555 in
  let v = (y land 0x3333333333333333) + ((y lsr 2) land 0x3333333333333333) in
  let v = (v + (v lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (v * 0x0101010101010101) lsr 56

(* Little-endian load of [word_bytes] packed bytes at [b].  All seven
   loads are within the pattern's byte span except possibly in the last
   word, which uses [load_tail]. *)
let[@inline] load7 (data : Storage.t) b =
  A1.unsafe_get data b
  lor (A1.unsafe_get data (b + 1) lsl 8)
  lor (A1.unsafe_get data (b + 2) lsl 16)
  lor (A1.unsafe_get data (b + 3) lsl 24)
  lor (A1.unsafe_get data (b + 4) lsl 32)
  lor (A1.unsafe_get data (b + 5) lsl 40)
  lor (A1.unsafe_get data (b + 6) lsl 48)

(* Load only [count] (1..7) bytes at [b] — the final word of a window
   may extend past the window's last covered byte, and for an mmap'd
   buffer reading past the section is reading past the file. *)
let[@inline] load_tail (data : Storage.t) b count =
  let acc = ref 0 in
  for j = count - 1 downto 0 do
    acc := (!acc lsl 8) lor A1.unsafe_get data (b + j)
  done;
  !acc

(* One kernel call's effort, as [Obs] taps (see the mli). *)
let[@inline] tap_kernel ~words ~early =
  if Atomic.get Obs.taps then begin
    Obs.tap Obs.Counter.verify_calls 1;
    Obs.tap Obs.Counter.verify_words words;
    if early then Obs.tap Obs.Counter.verify_early_exits 1
  end

(* The kernel.  Scans the window word by word, early-exiting as soon as
   the running mismatch count exceeds [limit].  On early exit the
   return value is some count > limit — meaningful only as "greater
   than limit", not as the exact distance. *)
let hamming ~limit t (pp : Pattern.t) ~pos =
  let m = pp.Pattern.m in
  if pos < 0 || pos + m > t.len then
    invalid_arg "Packed_text.hamming: window out of range";
  let ph = Array.unsafe_get pp.Pattern.phases (pos land 3) in
  let b0 = pos lsr 2 in
  let words = ph.Pattern.words and masks = ph.Pattern.masks in
  let last = Array.length words - 1 in
  let data = t.data in
  let acc = ref 0 and w = ref 0 and over = ref false in
  while (not !over) && !w < last do
    let tw = load7 data (b0 + (word_bytes * !w)) in
    acc :=
      !acc
      + count_mismatch_word
          ((tw lxor Array.unsafe_get words !w) land Array.unsafe_get masks !w);
    incr w;
    over := !acc > limit
  done;
  if !over then tap_kernel ~words:!w ~early:true
  else begin
    let tw = load_tail data (b0 + (word_bytes * last)) ph.Pattern.last_bytes in
    acc :=
      !acc
      + count_mismatch_word
          ((tw lxor Array.unsafe_get words last) land Array.unsafe_get masks last);
    tap_kernel ~words:(last + 1) ~early:false
  end;
  !acc
