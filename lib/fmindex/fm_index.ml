type interval = int * int

module A1 = Bigarray.Array1

(* The index owns no byte-per-character copy of anything: the BWT
   payload lives inside [occ]'s interleaved rank blocks (2 bits/base),
   the forward text is kept 2-bit packed with the unpacked string
   materialized on demand behind a domain-safe memo, the sentinel row is
   tracked out-of-band, and suffix-array samples are a marked-row
   bitvector with a rank directory plus a flat word array —
   [position_of_row] allocates nothing.  Every bulk buffer is a
   [Storage.t]/[Storage.words], so a loaded index is either heap-owned
   (Copy mode) or a set of views over an mmap'd index file (Mmap mode)
   — the query paths cannot tell the difference. *)
type t = {
  n : int;  (* text length *)
  ptext : Packed_text.t;  (* forward text, 2-bit packed *)
  text : string Storage.Memo.t;  (* unpacked text, built on first use *)
  occ : Occ.t;
  c_array : int array;  (* c_array.(c) = # characters with code < c in BWT *)
  sa_rate : int;
  sentinel_row : int;
  marks : Storage.t;  (* bit per row 0..n: row sampled? *)
  mark_cum : int array;  (* sampled rows before each 64-row chunk *)
  samples : Storage.words;  (* text position of each sampled row, row order *)
}

let sigma = Dna.Alphabet.sigma

(* ------------------------------------------------------------------ *)
(* Telemetry                                                            *)

(* Hot-path accounting for the observability layer: how many rank
   primitives ran, how many interleaved Occ blocks they decoded, and how
   much LF walking [locate] did.  Counters live in domain-local storage,
   so concurrent engines never contend and per-domain deltas merge to
   the sequential totals (they are sums).  The whole hook sits behind
   one global flag: disabled (the default), every instrumented entry
   point pays a single load-and-branch; [compiled = false] removes even
   that (the conditional becomes a structural constant and the hooks are
   dead code). *)
module Telemetry = struct
  type counters = {
    mutable rank_ops : int;
    mutable block_decodes : int;
    mutable locate_walks : int;
    mutable locate_steps : int;
  }

  (* The compile-out switch: a structural constant, so with [false] the
     optimizer drops every hook body. *)
  let compiled = true

  let flag = Atomic.make false
  let set_enabled b = Atomic.set flag b
  let is_enabled () = compiled && Atomic.get flag

  let key =
    Domain.DLS.new_key (fun () ->
        { rank_ops = 0; block_decodes = 0; locate_walks = 0; locate_steps = 0 })

  let cell () = Domain.DLS.get key

  let snapshot () =
    let c = cell () in
    {
      rank_ops = c.rank_ops;
      block_decodes = c.block_decodes;
      locate_walks = c.locate_walks;
      locate_steps = c.locate_steps;
    }

  let diff ~since c =
    {
      rank_ops = c.rank_ops - since.rank_ops;
      block_decodes = c.block_decodes - since.block_decodes;
      locate_walks = c.locate_walks - since.locate_walks;
      locate_steps = c.locate_steps - since.locate_steps;
    }
end

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

let build ?(occ_rate = 32) ?(sa_rate = 16) text =
  if sa_rate <= 0 then invalid_arg "Fm_index.build: sa_rate must be positive";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c) || c <> Dna.Alphabet.normalize c then
        invalid_arg "Fm_index.build: text must be lowercase acgt")
    text;
  let n = String.length text in
  let ptext = Packed_text.of_string text in
  let packed, sentinel_row, sa = Bwt.of_packed_text ptext in
  let occ = Occ.of_packed ~rate:occ_rate ~sentinels:[| sentinel_row |] packed in
  let c_array = c_array_of_counts (Occ.counts occ) in
  (* Row 0 is the sentinel suffix (position n), always sampled; other
     rows are sampled when their position is a multiple of sa_rate, so
     any locate walk ends within sa_rate LF steps. *)
  let marks = Storage.create ((n + 8) / 8) in
  mark_set marks 0;
  let nsamples = ref 1 in
  for row = 1 to n do
    if sa.(row) mod sa_rate = 0 then begin
      mark_set marks row;
      incr nsamples
    end
  done;
  let samples = Storage.create_words !nsamples in
  Storage.set_word samples 0 n;
  let j = ref 1 in
  for row = 1 to n do
    if sa.(row) mod sa_rate = 0 then begin
      Storage.set_word samples !j sa.(row);
      incr j
    end
  done;
  let mark_cum, total = build_mark_cum marks (n + 1) in
  assert (total = !nsamples);
  {
    n;
    ptext;
    text = Storage.Memo.make (fun () -> text);
    occ;
    c_array;
    sa_rate;
    sentinel_row;
    marks;
    mark_cum;
    samples;
  }

let length t = t.n
let text t = Storage.Memo.force t.text
let packed_text t = t.ptext
let bwt t = String.init (Occ.length t.occ) (fun row -> Dna.Alphabet.of_code (Occ.get t.occ row))
let whole t = (0, Occ.length t.occ)

(* ------------------------------------------------------------------ *)
(* Backward search                                                      *)

let extend t c (lo, hi) =
  if c <= 0 || c >= sigma then None
  else begin
    if Telemetry.is_enabled () then begin
      let tc = Telemetry.cell () in
      tc.Telemetry.rank_ops <- tc.Telemetry.rank_ops + 1;
      tc.Telemetry.block_decodes <-
        (tc.Telemetry.block_decodes + if hi = lo + 1 then 1 else 2)
    end;
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
        let measured = Telemetry.is_enabled () in
        let ops = ref 0 and decodes = ref 0 in
        let lo = ref 0 and hi = ref (Occ.length t.occ) in
        let pr = Array.make 2 0 in
        let i = ref (m - 1) in
        while !i >= 0 && !lo < !hi do
          let c = Array.unsafe_get codes !i in
          if measured then begin
            Stdlib.incr ops;
            decodes := !decodes + (if !hi = !lo + 1 then 1 else 2)
          end;
          Occ.rank_pair_into_unsafe t.occ c !lo !hi pr;
          let cc = Array.unsafe_get t.c_array c in
          lo := cc + Array.unsafe_get pr 0;
          hi := cc + Array.unsafe_get pr 1;
          decr i
        done;
        if measured then begin
          let tc = Telemetry.cell () in
          tc.Telemetry.rank_ops <- tc.Telemetry.rank_ops + !ops;
          tc.Telemetry.block_decodes <- tc.Telemetry.block_decodes + !decodes
        end;
        if !hi > !lo then !hi - !lo else 0
      end

(* [longest_extension] is [extend] run along [codes] from [pos] until the
   interval empties or [stop] is reached, unrolled like [count]: no
   options or tuples per step, and the same per-step telemetry as the
   [extend] calls it replaces (the step that empties the interval counts,
   a code outside 1..sigma-1 stops the run uncounted). *)
let longest_extension t codes ~pos ~stop =
  if pos < 0 || pos > stop || stop > Array.length codes then
    invalid_arg "Fm_index.longest_extension: pos or stop out of range";
  let measured = Telemetry.is_enabled () in
  let ops = ref 0 and decodes = ref 0 in
  let lo = ref 0 and hi = ref (Occ.length t.occ) in
  let pr = Array.make 2 0 in
  let j = ref pos and live = ref true in
  while !live && !j < stop do
    let c = Array.unsafe_get codes !j in
    if c <= 0 || c >= sigma then live := false
    else begin
      if measured then begin
        Stdlib.incr ops;
        decodes := !decodes + (if !hi = !lo + 1 then 1 else 2)
      end;
      Occ.rank_pair_into_unsafe t.occ c !lo !hi pr;
      let cc = Array.unsafe_get t.c_array c in
      lo := cc + Array.unsafe_get pr 0;
      hi := cc + Array.unsafe_get pr 1;
      if !lo < !hi then Stdlib.incr j else live := false
    end
  done;
  if measured then begin
    let tc = Telemetry.cell () in
    tc.Telemetry.rank_ops <- tc.Telemetry.rank_ops + !ops;
    tc.Telemetry.block_decodes <- tc.Telemetry.block_decodes + !decodes
  end;
  !j - pos

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
  if Telemetry.is_enabled () then begin
    let tc = Telemetry.cell () in
    tc.Telemetry.locate_walks <- tc.Telemetry.locate_walks + 1;
    tc.Telemetry.locate_steps <- tc.Telemetry.locate_steps + !steps;
    (* Each LF step is one rank over the block holding its row. *)
    tc.Telemetry.rank_ops <- tc.Telemetry.rank_ops + !steps;
    tc.Telemetry.block_decodes <- tc.Telemetry.block_decodes + !steps
  end;
  Storage.word t.samples (mark_rank t !row) + !steps

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
    ("sa marks (bitvector + rank dir)",
     Storage.length t.marks + (8 * Array.length t.mark_cum));
    ("sa samples", 8 * Storage.length_words t.samples);
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
  if Telemetry.is_enabled () then begin
    let tc = Telemetry.cell () in
    tc.Telemetry.rank_ops <- tc.Telemetry.rank_ops + 1;
    (* The pair kernel decodes one block for a width-1 interval, two
       otherwise. *)
    tc.Telemetry.block_decodes <-
      (tc.Telemetry.block_decodes + if hi = lo + 1 then 1 else 2)
  end;
  Occ.rank_all_pair_unsafe t.occ lo hi los his;
  for c = 0 to sigma - 1 do
    let base = Array.unsafe_get t.c_array c in
    Array.unsafe_set los c (base + Array.unsafe_get los c);
    Array.unsafe_set his c (base + Array.unsafe_get his c)
  done

(* --- persistence ----------------------------------------------------- *)

(* Format v4, the only format: three ASCII header lines

       "kmm-fm-index 4 <n> <occ_rate> <sa_rate> <sentinel_row> <nsamples>
        <blocks_bytes> <super_len> <a_total> <c_total> <g_total> <t_total>\n"
       "sections" + 5x " %012d %012d %08x" (offset, length, CRC-32) + "\n"
       "hcrc %08x\n"   (CRC-32 of the two preceding lines)

   followed by five binary little-endian sections —
     1. packed text          ceil(n/4) bytes (2-bit codes, 4 bases/byte)
     2. occ blocks           <blocks_bytes> bytes (interleaved counts+payload)
     3. occ superblocks      <super_len> * 8 bytes (int64)
     4. sa marks bitvector   ceil((n+1)/8) bytes
     5. sa samples           <nsamples> * 8 bytes (int64)
   — each placed at the 8-byte-aligned offset its table entry records
   (zero padding in the gaps), and an 8-byte trailer: the ASCII magic
   "kmm4" plus the 4-byte LE CRC-32 of every preceding byte of the file.

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

   Loading adopts the buffers directly; no BWT inversion, no LF walk.
   Files of the retired formats v1–v3 are rejected with
   [Unsupported_version]; such an index is rebuilt with [kmm index]. *)

let magic = "kmm-fm-index"
let trailer_magic = "kmm4"

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
    Storage.to_string t.marks;
    Storage.words_to_string t.samples;
  ]

let align8 x = (x + 7) land lnot 7

(* Fixed-width section-table geometry: "sections" + 5 entries of
   " <12-digit offset> <12-digit length> <8-hex CRC>" + "\n". *)
let section_table_len = 8 + (5 * (1 + 12 + 1 + 12 + 1 + 8)) + 1
let hcrc_line_len = String.length "hcrc " + 8 + 1

(* The whole v4 file as one in-memory image: serialization is separated
   from file I/O so the byte-sweep tests (and the fuzz oracle) can
   corrupt and re-parse images without touching the filesystem. *)
let serialize t =
  let secs = sections t in
  let counts = Occ.counts t.occ in
  let l1 =
    Printf.sprintf "%s 4 %d %d %d %d %d %d %d %d %d %d %d\n" magic t.n
      (Occ.rate t.occ) t.sa_rate t.sentinel_row
      (Storage.length_words t.samples)
      (Storage.length (Occ.raw_blocks t.occ))
      (Array.length (Occ.raw_super t.occ))
      counts.(1) counts.(2) counts.(3) counts.(4)
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
     invalid_arg "Fm_index.serialize: index too large for the v4 section table");
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
  let buf = Buffer.create (4096 + hdr_len + (t.n / 2)) in
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
  Buffer.contents buf

(* --- atomic, crash-safe file writing ---------------------------------- *)

type sink = { sink_write : string -> unit; sink_flush : unit -> unit }

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
             sink_write = (fun s -> output_string oc s);
             sink_flush =
               (fun () ->
                 flush oc;
                 if fsync then Unix.fsync (Unix.descr_of_out_channel oc));
           }
         in
         let s = wrap base in
         (* Chunked writes, so injected faults see the same granularity a
            real kernel write path would. *)
         let len = String.length image in
         let chunk = 65536 in
         let pos = ref 0 in
         while !pos < len do
           let l = min chunk (len - !pos) in
           s.sink_write (String.sub image !pos l);
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

(* Line 1's magic and version token: version 4 yields the remaining
   header fields; any other integer is a retired (v1–v3) or unknown
   format. *)
let version_fields line =
  match String.split_on_char ' ' line with
  | m :: "4" :: fields when m = magic -> fields
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
}

(* The header fields after the version token.  A forged or bit-flipped
   header must fail with the same friendly error as an unparsable one,
   and must never be allowed to drive a huge allocation (every derived
   length is bounded by the exact-file-size check of [read_prologue]).
   The character totals let the mmap reader skip the O(n) payload
   recount; the Copy reader cross-checks them against it. *)
let parse_header fields =
  match fields with
  | [ n; occ_rate; sa_rate; sentinel_row; nsamples; blocks_bytes; super_len;
      ca; cc; cg; ct ] ->
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
            [| 1; int_field "a_total" ca; int_field "c_total" cc;
               int_field "g_total" cg; int_field "t_total" ct |];
        }
      in
      if
        h.h_n < 0 || h.h_occ_rate <= 0 || h.h_sa_rate <= 0 || h.h_sentinel_row < 0
        || h.h_sentinel_row > h.h_n || h.h_nsamples < 1 || h.h_nsamples > h.h_n + 1
        || h.h_blocks_bytes < 0 || h.h_super_len < 0
        || Array.exists (fun v -> v < 0) h.h_totals
      then corrupt Kmm_error.Header "field out of range";
      if Array.fold_left ( + ) 0 h.h_totals <> h.h_n + 1 then
        corrupt Kmm_error.Header "character totals do not sum to length";
      h
  | _ -> corrupt Kmm_error.Header "wrong field count"

(* Where one section lies in the file, and its stored CRC-32. *)
type extent = { off : int; len : int; crc : int }

(* Parse and validate the section-table line (newline stripped) against
   the header geometry: every offset must be the 8-aligned successor of
   the previous section and every length must match the header. *)
let parse_sections h ~hdr_len line =
  if String.length line <> section_table_len - 1 then
    corrupt Kmm_error.Header "bad section table";
  match String.split_on_char ' ' line with
  | "sections" :: rest when List.length rest = 15 ->
      let f = Array.of_list rest in
      let ext =
        Array.init 5 (fun i ->
            {
              off = int_field "section offset" f.(3 * i);
              len = int_field "section length" f.((3 * i) + 1);
              crc = hex_field "section checksum" f.((3 * i) + 2);
            })
      in
      let expected_lens =
        [| (h.h_n + 3) / 4; h.h_blocks_bytes; 8 * h.h_super_len; (h.h_n + 8) / 8;
           8 * h.h_nsamples |]
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
  let expected_size = ext.(4).off + ext.(4).len + 8 in
  if size < expected_size then fail (Kmm_error.Truncated "index payload");
  if size > expected_size then
    corrupt Kmm_error.Trailer "trailing garbage after index payload";
  (h, ext)

let adopt_text h data =
  try Packed_text.of_storage data ~len:h.h_n
  with Invalid_argument _ -> corrupt Kmm_error.Text_section "bad packed payload"

(* The tail both readers run once the bulk buffers are adopted: clear
   the mark padding bits beyond row n, build the mark rank directory,
   check the sampling shape, and assemble the index. *)
let finish h ~ptext ~occ ~marks ~samples =
  let n = h.h_n in
  (let rows = n + 1 in
   if rows land 7 <> 0 then begin
     let last = Storage.length marks - 1 in
     A1.set marks last (A1.get marks last land ((1 lsl (rows land 7)) - 1))
   end);
  let mark_cum, total = build_mark_cum marks (n + 1) in
  if total <> h.h_nsamples then corrupt Kmm_error.Sa_marks "sample count mismatch";
  if not (mark_test marks 0) then corrupt Kmm_error.Sa_marks "row 0 unmarked";
  if Storage.word samples 0 <> n then
    corrupt Kmm_error.Sa_samples "row 0 sample wrong";
  {
    n;
    ptext;
    text = text_memo_of_packed ptext;
    occ;
    c_array = c_array_of_counts h.h_totals;
    sa_rate = h.h_sa_rate;
    sentinel_row = h.h_sentinel_row;
    marks;
    mark_cum;
    samples;
  }

(* Copy-mode reader: full verification — header CRC, exact file size,
   whole-file trailer CRC (which covers the alignment padding),
   per-section CRCs, then the structural recount: Occ checkpoints, the
   text/BWT character totals (an O(n) lane scan, no reconstruction)
   against each other and against the header, and the sample range. *)
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
  let text_s = section 0 Kmm_error.Text_section in
  let blocks_s = section 1 Kmm_error.Rank_blocks in
  let super_s = section 2 Kmm_error.Superblocks in
  let marks_s = section 3 Kmm_error.Sa_marks in
  let samples_s = section 4 Kmm_error.Sa_samples in
  let n = h.h_n in
  let ptext = adopt_text h (Storage.of_string text_s) in
  let occ =
    try
      Occ.of_raw ~rate:h.h_occ_rate ~len:(n + 1) ~sentinels:[| h.h_sentinel_row |]
        ~blocks:(Storage.of_string blocks_s) ~super:(ints_of_string super_s)
    with Invalid_argument msg -> corrupt Kmm_error.Rank_blocks msg
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
  for c = 0 to sigma - 1 do
    if h.h_totals.(c) <> counts.(c) then
      corrupt Kmm_error.Header "character totals disagree with payload"
  done;
  let t =
    finish h ~ptext ~occ ~marks:(Storage.of_string marks_s)
      ~samples:(Storage.words_of_string samples_s)
  in
  for i = 0 to Storage.length_words t.samples - 1 do
    let p = Storage.word t.samples i in
    if p < 0 || p > n then corrupt Kmm_error.Sa_samples "sample out of range"
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
  let ptext = adopt_text h (map 0) in
  let blocks = map 1 in
  (* Superblocks are tiny (4 ints per 64 Ki bases): read them into the
     int array the rank kernel wants rather than keeping a mapping. *)
  let super =
    ints_of_string (read_exact fd ~pos:ext.(2).off ~len:ext.(2).len ~what:"superblocks")
  in
  let marks = map 3 in
  let samples = Storage.map_words fd ~pos:ext.(4).off ~len:h.h_nsamples in
  let occ =
    try
      Occ.of_raw_trusted ~rate:h.h_occ_rate ~len:(h.h_n + 1)
        ~sentinels:[| h.h_sentinel_row |] ~blocks ~super ~totals:h.h_totals
    with Invalid_argument msg -> corrupt Kmm_error.Rank_blocks msg
  in
  finish h ~ptext ~occ ~marks ~samples

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
