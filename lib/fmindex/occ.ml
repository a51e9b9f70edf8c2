(* Packed-rank Occ: interleaved popcount blocks over a 2-bit BWT payload.
   See occ.mli for the layout contract.  The block buffer is a Storage.t
   (heap or mmap'd format-v4 section); the kernels below read it through
   Bigarray.Array1.unsafe_get, which compiles to the same inline load a
   Bytes access did. *)

module A1 = Bigarray.Array1

let sigma = Dna.Alphabet.sigma

(* ------------------------------------------------------------------ *)
(* Packed-count kernel                                                  *)

(* tbl.(byte) packs, in one int, the number of lanes of [byte] equal to
   lane code 1 (bits 0..15), 2 (bits 16..31) and 3 (bits 32..47).  The
   count of lane code 0 is derived as [lanes_scanned - c1 - c2 - c3],
   which also makes zero-padding lanes harmless.  Accumulating the table
   over up to 16383 bytes (the largest possible in-block remainder)
   keeps every 16-bit field below 65536, so a block scan is one load and
   one add per 4 bases with no carries and no allocation.

   The table itself lives in Packed_text (the verification kernel
   derives its per-byte mismatch table from it); this alias keeps the
   scan kernels below unchanged. *)
let tbl = Packed_text.lane_count_table

(* tmask.(r) keeps only the first r lanes of a byte (r in 0..3). *)
let tmask = [| 0x00; 0x03; 0x0f; 0x3f |]

(* smask.(rem * 8 + j) masks byte [j] of a 32-lane block payload down to
   its lanes strictly below [rem]: 0xff for fully covered bytes, a
   [tmask] prefix for the straddling byte, 0x00 beyond.  This lets the
   default-geometry scan touch all 8 payload bytes unconditionally — a
   fixed-trip, branch-free loop — instead of a variable-length loop whose
   trip count the branch predictor cannot guess.  (Masked-off bytes count
   as lane code 0, which the code-0 derivation already ignores.) *)
let smask =
  let b = Bytes.create (32 * 8) in
  for rem = 0 to 31 do
    for j = 0 to 7 do
      let m =
        if rem >= 4 * (j + 1) then 0xff
        else if rem <= 4 * j then 0x00
        else tmask.(rem - (4 * j))
      in
      Bytes.set b ((rem * 8) + j) (Char.chr m)
    done
  done;
  b

(* Packed lane counts of the first [rem] (1..31) lanes of the 32-lane
   block payload at [pay]: eight independent masked table lookups, no
   data-dependent branches. *)
let[@inline] scan32 (data : Storage.t) pay rem =
  let mo = rem lsl 3 in
  (* Spelled out term by term: helper lambdas here would closure-convert
     (and allocate) on every call without flambda. *)
  Array.unsafe_get tbl
    (A1.unsafe_get data pay land Char.code (Bytes.unsafe_get smask mo))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 1) land Char.code (Bytes.unsafe_get smask (mo + 1)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 2) land Char.code (Bytes.unsafe_get smask (mo + 2)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 3) land Char.code (Bytes.unsafe_get smask (mo + 3)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 4) land Char.code (Bytes.unsafe_get smask (mo + 4)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 5) land Char.code (Bytes.unsafe_get smask (mo + 5)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 6) land Char.code (Bytes.unsafe_get smask (mo + 6)))
  + Array.unsafe_get tbl
      (A1.unsafe_get data (pay + 7) land Char.code (Bytes.unsafe_get smask (mo + 7)))

(* Little-endian uint16 at [o], no bounds check (offsets are computed
   from validated geometry). *)
let[@inline] u16 (data : Storage.t) o =
  A1.unsafe_get data o lor (A1.unsafe_get data (o + 1) lsl 8)

let set_u16 (data : Storage.t) o v =
  A1.unsafe_set data o (v land 0xff);
  A1.unsafe_set data (o + 1) ((v lsr 8) land 0xff)

(* Pull lane code [d]'s count out of a packed scan result [s] covering
   [rem] lanes.  Code 0 is the complement of the three stored fields; it
   is spliced into bits 0..15 of a four-field word so the selection is a
   data-independent shift instead of a 25%-taken branch on [d].  (Fields
   are < 2^14, so [s lsl 16] stays within OCaml's 63 tagged bits.) *)
let[@inline] extract s d rem =
  let c0 =
    rem - ((s land 0xffff) + ((s lsr 16) land 0xffff) + ((s lsr 32) land 0xffff))
  in
  ((c0 lor (s lsl 16)) lsr (d * 16)) land 0xffff

(* ------------------------------------------------------------------ *)
(* Structure                                                            *)

type t = {
  req_rate : int;  (* requested checkpoint spacing, persisted *)
  bl : int;  (* block size in lanes: power of two, 32..65536 *)
  bshift : int;  (* log2 bl *)
  sshift : int;  (* log2 (blocks per superblock) = 16 - bshift *)
  stride : int;  (* bytes per block = 8 + bl/4 *)
  data : Storage.t;  (* interleaved counts + payload, heap or mmap'd *)
  super : int array;  (* absolute counts, 4 per superblock *)
  sentinels : int array;  (* sorted BWT rows holding '$' *)
  len : int;  (* BWT length, sentinels included *)
  plen : int;  (* payload lanes = len - #sentinels *)
  totals : int array;  (* occurrences of each of the sigma codes *)
}

let quantize rate =
  if rate <= 0 then invalid_arg "Occ.make: rate must be positive";
  let r = min rate 65536 in
  let bl = ref 32 in
  while !bl < r do
    bl := !bl * 2
  done;
  !bl

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let sent_before_scan s n i =
  let j = ref 0 in
  while !j < n && Array.unsafe_get s !j < i do
    incr j
  done;
  !j

let[@inline] sent_before t i =
  (* The sentinel table is almost always a singleton; specialise that
     case so hot callers pay one compare, not a loop. *)
  let s = t.sentinels in
  match Array.length s with
  | 1 -> if Array.unsafe_get s 0 < i then 1 else 0
  | 0 -> 0
  | n -> sent_before_scan s n i

(* Generic in-block scan for geometries larger than the 32-lane default:
   packed lane counts of the first [rem] lanes of the payload at [pay]. *)
let scan_slow (data : Storage.t) pay rem =
  let fb = rem lsr 2 and tail = rem land 3 in
  let s = ref 0 in
  for j = 0 to fb - 1 do
    s := !s + Array.unsafe_get tbl (A1.unsafe_get data (pay + j))
  done;
  if tail <> 0 then
    s := !s + Array.unsafe_get tbl (A1.unsafe_get data (pay + fb) land tmask.(tail));
  !s

(* Count of lane code d (0..3) in the packed payload prefix [0, p). *)
let packed_rank t d p =
  let b = p lsr t.bshift in
  let off = b * t.stride in
  let base =
    Array.unsafe_get t.super (((b lsr t.sshift) * 4) + d) + u16 t.data (off + (2 * d))
  in
  let rem = p land (t.bl - 1) in
  if t.bshift = 5 then base + extract (scan32 t.data (off + 8) rem) d rem
  else if rem = 0 then base
  else base + extract (scan_slow t.data (off + 8) rem) d rem

let rank t c i =
  if c < 0 || c >= sigma then invalid_arg "Occ.rank: bad character code";
  if i < 0 || i > t.len then invalid_arg "Occ.rank: index out of range";
  let sb = sent_before t i in
  if c = 0 then sb
  else if i = t.len then Array.unsafe_get t.totals c
  else packed_rank t (c - 1) (i - sb)

(* Write the four packed-lane counts of prefix [0, p) into dst.(1..4),
   given the block decode.  Factored so rank_all and rank_all_pair share
   the field extraction. *)
let[@inline] fields_into t dst ~off ~sb4 ~rem ~s =
  let f1 = s land 0xffff
  and f2 = (s lsr 16) land 0xffff
  and f3 = (s lsr 32) land 0xffff in
  let data = t.data and super = t.super in
  Array.unsafe_set dst 1
    (Array.unsafe_get super sb4 + u16 data off + rem - f1 - f2 - f3);
  Array.unsafe_set dst 2 (Array.unsafe_get super (sb4 + 1) + u16 data (off + 2) + f1);
  Array.unsafe_set dst 3 (Array.unsafe_get super (sb4 + 2) + u16 data (off + 4) + f2);
  Array.unsafe_set dst 4 (Array.unsafe_get super (sb4 + 3) + u16 data (off + 6) + f3)

(* Unchecked single-block decode of the packed prefix [0, p): writes the
   counts of the four payload codes into dst.(1..4).  Callers have
   already validated ranges and handled sentinels and [i = len]. *)
let[@inline] decode_into t dst p =
  let b = p lsr t.bshift in
  let off = b * t.stride in
  let sb4 = (b lsr t.sshift) * 4 in
  let rem = p land (t.bl - 1) in
  let s =
    if t.bshift = 5 then scan32 t.data (off + 8) rem
    else if rem = 0 then 0
    else scan_slow t.data (off + 8) rem
  in
  fields_into t dst ~off ~sb4 ~rem ~s

let[@inline] totals_into t dst =
  for c = 1 to sigma - 1 do
    Array.unsafe_set dst c (Array.unsafe_get t.totals c)
  done

let rank_all t i dst =
  if i < 0 || i > t.len then invalid_arg "Occ.rank_all: index out of range";
  if Array.length dst <> sigma then invalid_arg "Occ.rank_all: bad dst size";
  let sb = sent_before t i in
  Array.unsafe_set dst 0 sb;
  if i = t.len then totals_into t dst else decode_into t dst (i - sb)

(* Branch-free [Bool.to_int (a = b)] for small non-negative ints: equal
   values xor to 0, whose predecessor is the only case with the top bit
   set after a logical shift.  [if a = b then 1 else 0] compiles to a
   data-dependent branch that mispredicts on random codes. *)
let[@inline] eq_ind a b = ((a lxor b) - 1) lsr 62

(* Code (0..sigma-1) of the payload row at packed position [p], read
   straight out of the interleaved block payload. *)
let[@inline] payload_code t p =
  let byte =
    A1.unsafe_get t.data
      (((p lsr t.bshift) * t.stride) + 8 + ((p land (t.bl - 1)) lsr 2))
  in
  ((byte lsr ((p land 3) * 2)) land 3) + 1

(* Precondition (unchecked): [0 <= lo, hi <= length t] and both [dst]
   arrays have length [sigma].  [Fm_index] enforces this at its own
   boundary once per call instead of paying the checks per rank step. *)
let rank_all_pair_unsafe t lo hi los his =
  let sb_lo = sent_before t lo and sb_hi = sent_before t hi in
  Array.unsafe_set los 0 sb_lo;
  Array.unsafe_set his 0 sb_hi;
  let p_lo = lo - sb_lo in
  if hi = lo + 1 then begin
    (* Width-1 interval — the bulk of deep mismatching-tree traffic.
       Decode [lo] once; [rank c (lo+1)] is that plus an indicator of the
       single row's own code, read from the already-hot payload line. *)
    decode_into t los p_lo;
    let code = if sb_hi > sb_lo then 0 else payload_code t p_lo in
    Array.unsafe_set his 1 (Array.unsafe_get los 1 + eq_ind code 1);
    Array.unsafe_set his 2 (Array.unsafe_get los 2 + eq_ind code 2);
    Array.unsafe_set his 3 (Array.unsafe_get los 3 + eq_ind code 3);
    Array.unsafe_set his 4 (Array.unsafe_get los 4 + eq_ind code 4)
  end
  else begin
    (* Two independent decodes; when the endpoints share a block the
       second one hits the cache line the first just pulled in. *)
    if lo = t.len then totals_into t los else decode_into t los p_lo;
    if hi = t.len then totals_into t his else decode_into t his (hi - sb_hi)
  end

let rank_all_pair t lo hi los his =
  if lo < 0 || lo > t.len || hi < 0 || hi > t.len then
    invalid_arg "Occ.rank_all_pair: index out of range";
  if Array.length los <> sigma || Array.length his <> sigma then
    invalid_arg "Occ.rank_all_pair: bad dst size";
  rank_all_pair_unsafe t lo hi los his

let rank_pair t c lo hi =
  if c < 0 || c >= sigma then invalid_arg "Occ.rank_pair: bad character code";
  if lo < 0 || lo > t.len || hi < 0 || hi > t.len then
    invalid_arg "Occ.rank_pair: index out of range";
  let sb_lo = sent_before t lo and sb_hi = sent_before t hi in
  if c = 0 then (sb_lo, sb_hi)
  else begin
    let d = c - 1 in
    let p_lo = lo - sb_lo in
    if hi = lo + 1 then begin
      (* Width-1 interval: one decode, plus an indicator of row [lo]'s
         own code read from the payload line the decode just touched. *)
      let r_lo = packed_rank t d p_lo in
      let code = if sb_hi > sb_lo then 0 else payload_code t p_lo in
      (r_lo, r_lo + eq_ind code c)
    end
    else begin
      let r_lo =
        if lo = t.len then Array.unsafe_get t.totals c else packed_rank t d p_lo
      in
      let r_hi =
        if hi = t.len then Array.unsafe_get t.totals c
        else packed_rank t d (hi - sb_hi)
      in
      (r_lo, r_hi)
    end
  end

(* Same contract as [rank_pair], writing into [dst.(0)]/[dst.(1)] so a
   caller's inner loop (Fm_index.count) allocates nothing per step.
   Precondition (unchecked): [0 <= c < sigma], [0 <= lo, hi <= length t]
   and [Array.length dst >= 2] — a backward-search loop keeps all three
   invariant, so it validates once up front, not per character. *)
let rank_pair_into_unsafe t c lo hi dst =
  let sb_lo = sent_before t lo and sb_hi = sent_before t hi in
  if c = 0 then begin
    Array.unsafe_set dst 0 sb_lo;
    Array.unsafe_set dst 1 sb_hi
  end
  else begin
    let d = c - 1 in
    let p_lo = lo - sb_lo in
    if hi = lo + 1 then begin
      let r_lo = packed_rank t d p_lo in
      let code = if sb_hi > sb_lo then 0 else payload_code t p_lo in
      Array.unsafe_set dst 0 r_lo;
      Array.unsafe_set dst 1 (r_lo + eq_ind code c)
    end
    else begin
      Array.unsafe_set dst 0
        (if lo = t.len then Array.unsafe_get t.totals c else packed_rank t d p_lo);
      Array.unsafe_set dst 1
        (if hi = t.len then Array.unsafe_get t.totals c
         else packed_rank t d (hi - sb_hi))
    end
  end

let rank_pair_into t c lo hi dst =
  if Array.length dst < 2 then invalid_arg "Occ.rank_pair_into: dst too short";
  if c < 0 || c >= sigma then invalid_arg "Occ.rank_pair_into: bad character code";
  if lo < 0 || lo > t.len || hi < 0 || hi > t.len then
    invalid_arg "Occ.rank_pair_into: index out of range";
  rank_pair_into_unsafe t c lo hi dst

(* Is BWT row [row] a sentinel row?  Allocation-free, singleton table
   first like [sent_before]. *)
let is_sentinel t row =
  let s = t.sentinels in
  match Array.length s with
  | 1 -> Array.unsafe_get s 0 = row
  | 0 -> false
  | n ->
      let j = sent_before_scan s n row in
      j < n && Array.unsafe_get s j = row

let get t row =
  if row < 0 || row >= t.len then invalid_arg "Occ.get: index out of range";
  if is_sentinel t row then 0 else payload_code t (row - sent_before t row)

(* One LF step: the row's own code is read from the payload line the
   rank decode of the same position then scans, and the answer is a
   single int — no code/rank pair, no sentinel-scan closure. *)
let lf t c row =
  if row < 0 || row >= t.len then invalid_arg "Occ.lf: index out of range";
  let sb = sent_before t row in
  if is_sentinel t row then c.(0) + sb
  else begin
    let p = row - sb in
    let code = payload_code t p in
    c.(code) + packed_rank t (code - 1) p
  end

let counts t = Array.copy t.totals
let rate t = t.req_rate
let block_lanes t = t.bl
let length t = t.len

let space_bytes t =
  Storage.length t.data
  + (8 * (Array.length t.super + Array.length t.sentinels + Array.length t.totals))

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let check_sentinels sentinels len =
  let k = Array.length sentinels in
  for j = 0 to k - 1 do
    let r = sentinels.(j) in
    if r < 0 || r >= len then invalid_arg "Occ: sentinel row out of range";
    if j > 0 && sentinels.(j - 1) >= r then
      invalid_arg "Occ: sentinel rows must be strictly ascending"
  done

let geometry ~rate ~plen =
  let bl = quantize rate in
  let bshift = log2 bl in
  let sshift = 16 - bshift in
  let stride = 8 + (bl lsr 2) in
  let blocks = (plen lsr bshift) + 1 in
  let nsuper = ((blocks - 1) lsr sshift) + 1 in
  (bl, bshift, sshift, stride, blocks, nsuper)

let of_packed ?(rate = 32) ?(sentinels = [||]) pt =
  let plen = Packed_text.length pt in
  let len = plen + Array.length sentinels in
  check_sentinels sentinels len;
  let bl, bshift, sshift, stride, blocks, nsuper = geometry ~rate ~plen in
  let data = Storage.create (blocks * stride) in
  let super = Array.make (nsuper * 4) 0 in
  let payload = Packed_text.storage pt in
  let pbytes = Storage.length payload in
  let running = Array.make 4 0 in
  for b = 0 to blocks - 1 do
    let sb = b lsr sshift in
    if b land ((1 lsl sshift) - 1) = 0 then
      for d = 0 to 3 do
        super.((sb * 4) + d) <- running.(d)
      done;
    let off = b * stride in
    for d = 0 to 3 do
      set_u16 data (off + (2 * d)) (running.(d) - super.((sb * 4) + d))
    done;
    (* Copy this block's payload and count it through the table. *)
    let src = b * (bl lsr 2) in
    let cnt = min (bl lsr 2) (pbytes - src) in
    if cnt > 0 then begin
      Storage.blit payload src data (off + 8) cnt;
      let lanes = min bl (plen - (b * bl)) in
      let s = ref 0 in
      for j = 0 to cnt - 1 do
        s := !s + tbl.(A1.unsafe_get data (off + 8 + j))
      done;
      let s = !s in
      let f1 = s land 0xffff
      and f2 = (s lsr 16) land 0xffff
      and f3 = (s lsr 32) land 0xffff in
      running.(0) <- running.(0) + lanes - f1 - f2 - f3;
      running.(1) <- running.(1) + f1;
      running.(2) <- running.(2) + f2;
      running.(3) <- running.(3) + f3
    end
  done;
  let totals = Array.make sigma 0 in
  totals.(0) <- Array.length sentinels;
  for d = 0 to 3 do
    totals.(d + 1) <- running.(d)
  done;
  { req_rate = rate; bl; bshift; sshift; stride; data; super; sentinels; len; plen; totals }

let make ?(rate = 32) l =
  ignore (quantize rate);
  let n = String.length l in
  let nsent = ref 0 in
  String.iter (fun c -> if c = Dna.Alphabet.sentinel then incr nsent) l;
  let sentinels = Array.make !nsent 0 in
  let si = ref 0 in
  String.iteri
    (fun i c ->
      if c = Dna.Alphabet.sentinel then begin
        sentinels.(!si) <- i;
        incr si
      end)
    l;
  (* Pack the non-sentinel rows in order. *)
  let pos = ref 0 in
  let next_non_sentinel () =
    while !pos < n && l.[!pos] = Dna.Alphabet.sentinel do
      incr pos
    done;
    let c = l.[!pos] in
    incr pos;
    match Packed_text.code_of_base c with
    | Some d -> d
    | None ->
        invalid_arg (Printf.sprintf "Occ.make: %C is not in {$acgt}" c)
  in
  let pt = Packed_text.init (n - !nsent) (fun _ -> next_non_sentinel ()) in
  of_packed ~rate ~sentinels pt

let to_packed t =
  let out = Storage.create ((t.plen + 3) / 4) in
  let chunk = t.bl lsr 2 in
  let b = ref 0 in
  let copied = ref 0 in
  while !copied < Storage.length out do
    let cnt = min chunk (Storage.length out - !copied) in
    Storage.blit t.data ((!b * t.stride) + 8) out !copied cnt;
    copied := !copied + cnt;
    incr b
  done;
  Packed_text.of_storage out ~len:t.plen

let raw_blocks t = t.data
let raw_super t = t.super

(* Shared front half of the adopting constructors: geometry validation
   plus clearing payload padding beyond the last lane, so table scans
   stay exact even if the file carried dirty bits.  (Mapped storage is
   copy-on-write; the clears never reach the file.)  Returns the
   validated geometry tuple. *)
let adopt_checked ~who ~rate ~len ~sentinels ~data ~super =
  if rate <= 0 then invalid_arg (who ^ ": rate must be positive");
  if len < 0 then invalid_arg (who ^ ": negative length");
  check_sentinels sentinels len;
  let plen = len - Array.length sentinels in
  if plen < 0 then invalid_arg (who ^ ": more sentinels than rows");
  let ((bl, bshift, _, stride, blocks, nsuper) as geom) = geometry ~rate ~plen in
  if Storage.length data <> blocks * stride then
    invalid_arg (who ^ ": block buffer size mismatch");
  if Array.length super <> nsuper * 4 then
    invalid_arg (who ^ ": superblock buffer size mismatch");
  let lb = plen lsr bshift in
  let last_off = (lb * stride) + 8 in
  let rem = plen land (bl - 1) in
  let full = rem lsr 2 and tail = rem land 3 in
  if tail <> 0 then
    A1.set data (last_off + full) (A1.get data (last_off + full) land tmask.(tail));
  for j = full + (if tail = 0 then 0 else 1) to (bl lsr 2) - 1 do
    A1.set data (last_off + j) 0
  done;
  geom

let of_raw ~rate ~len ~sentinels ~blocks:data ~super =
  let bl, bshift, sshift, stride, blocks, _ =
    adopt_checked ~who:"Occ.of_raw" ~rate ~len ~sentinels ~data ~super
  in
  let plen = len - Array.length sentinels in
  (* Verification pass: every stored checkpoint (superblock counters and
     per-block relative counts) must equal a sequential recount of the
     payload.  One table lookup per 4 lanes at memory bandwidth — no
     suffix array, no LF walk, no index reconstruction — and any
     count/payload disagreement anywhere in the buffers is rejected. *)
  let running = Array.make 4 0 in
  for b = 0 to blocks - 1 do
    let sb4 = (b lsr sshift) * 4 in
    let off = b * stride in
    if b land ((1 lsl sshift) - 1) = 0 then
      for d = 0 to 3 do
        if super.(sb4 + d) <> running.(d) then
          invalid_arg "Occ.of_raw: superblock counter disagrees with payload"
      done;
    for d = 0 to 3 do
      if u16 data (off + (2 * d)) <> running.(d) - super.(sb4 + d) then
        invalid_arg "Occ.of_raw: block count disagrees with payload"
    done;
    let lanes = min bl (plen - (b * bl)) in
    if lanes > 0 then begin
      let cnt = (lanes + 3) lsr 2 in
      let s = ref 0 in
      for j = 0 to cnt - 1 do
        s := !s + Array.unsafe_get tbl (A1.unsafe_get data (off + 8 + j))
      done;
      let s = !s in
      let f1 = s land 0xffff
      and f2 = (s lsr 16) land 0xffff
      and f3 = (s lsr 32) land 0xffff in
      running.(0) <- running.(0) + lanes - f1 - f2 - f3;
      running.(1) <- running.(1) + f1;
      running.(2) <- running.(2) + f2;
      running.(3) <- running.(3) + f3
    end
  done;
  let totals = Array.make sigma 0 in
  totals.(0) <- Array.length sentinels;
  for d = 0 to 3 do
    totals.(d + 1) <- running.(d)
  done;
  { req_rate = rate; bl; bshift; sshift; stride; data; super; sentinels; len; plen; totals }

let of_raw_trusted ~rate ~len ~sentinels ~blocks:data ~super ~totals =
  let bl, bshift, sshift, stride, _, _ =
    adopt_checked ~who:"Occ.of_raw_trusted" ~rate ~len ~sentinels ~data ~super
  in
  let plen = len - Array.length sentinels in
  if Array.length totals <> sigma then
    invalid_arg "Occ.of_raw_trusted: bad totals size";
  if totals.(0) <> Array.length sentinels then
    invalid_arg "Occ.of_raw_trusted: sentinel total disagrees with table";
  let sum = ref 0 in
  Array.iter
    (fun c ->
      if c < 0 then invalid_arg "Occ.of_raw_trusted: negative total";
      sum := !sum + c)
    totals;
  if !sum <> len then invalid_arg "Occ.of_raw_trusted: totals do not sum to length";
  {
    req_rate = rate;
    bl;
    bshift;
    sshift;
    stride;
    data;
    super;
    sentinels;
    len;
    plen;
    totals = Array.copy totals;
  }

(* ------------------------------------------------------------------ *)
(* Seed byte-scan reference (oracle for tests and the rank benchmark)   *)

module Reference = struct
  type t = {
    codes : Bytes.t;
    rate : int;
    checkpoints : int array;
    len : int;
  }

  let make ?(rate = 16) l =
    if rate <= 0 then invalid_arg "Occ.Reference.make: rate must be positive";
    let n = String.length l in
    let codes = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.unsafe_set codes i (Char.unsafe_chr (Dna.Alphabet.code l.[i]))
    done;
    let blocks = (n / rate) + 1 in
    let checkpoints = Array.make (blocks * sigma) 0 in
    let running = Array.make sigma 0 in
    for i = 0 to n - 1 do
      if i mod rate = 0 then begin
        let base = i / rate * sigma in
        for c = 0 to sigma - 1 do
          checkpoints.(base + c) <- running.(c)
        done
      end;
      let c = Char.code (Bytes.unsafe_get codes i) in
      running.(c) <- running.(c) + 1
    done;
    if n mod rate = 0 && n > 0 then begin
      let base = n / rate * sigma in
      for c = 0 to sigma - 1 do
        checkpoints.(base + c) <- running.(c)
      done
    end;
    { codes; rate; checkpoints; len = n }

  let rank t c i =
    if c < 0 || c >= sigma then invalid_arg "Occ.Reference.rank: bad character code";
    if i < 0 || i > t.len then invalid_arg "Occ.Reference.rank: index out of range";
    let b = i / t.rate in
    let base = b * t.rate in
    let acc = ref (Array.unsafe_get t.checkpoints ((b * sigma) + c)) in
    let ch = Char.unsafe_chr c in
    for j = base to i - 1 do
      if Bytes.unsafe_get t.codes j = ch then incr acc
    done;
    !acc

  let rank_all t i dst =
    if i < 0 || i > t.len then invalid_arg "Occ.Reference.rank_all: index out of range";
    if Array.length dst <> sigma then invalid_arg "Occ.Reference.rank_all: bad dst size";
    let b = i / t.rate in
    let base = b * t.rate in
    let cp = b * sigma in
    for c = 0 to sigma - 1 do
      Array.unsafe_set dst c (Array.unsafe_get t.checkpoints (cp + c))
    done;
    for j = base to i - 1 do
      let c = Char.code (Bytes.unsafe_get t.codes j) in
      Array.unsafe_set dst c (Array.unsafe_get dst c + 1)
    done

  let rate t = t.rate
  let length t = t.len
  let space_bytes t = (8 * Array.length t.checkpoints) + Bytes.length t.codes
end
