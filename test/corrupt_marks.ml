(* Write an index file whose SA marks are corrupt but count right, and
   print a pattern whose locate walks run past their sample rate on it.

     corrupt_marks.exe OUT.fmi
     corrupt_marks.exe --super OUT.fmi
     corrupt_marks.exe --forward OUT.fmi

   The index is of a seeded 4000 bp random text.  The pattern is the
   40 bp window at the middle of the text.  On the located side (the
   reversed text) that window's suffixes start at positions
   [n - w - m, n - w]; every sampled row within one sample rate of
   that range loses its mark, and as many unsampled rows far from it
   gain one, so the marks keep their count and row 0 stays marked.  A
   load by Mmap checks neither the marks' CRC nor their positions, so
   it adopts the file, and any walk from the window's rows takes more
   than sa_rate steps.  A load by copy refuses the file by its
   checksum.

   With [--super] the marks stay intact and the located side's one
   superblock counter of code c gains n instead: every rank of c that
   is not the total moves n rows up, so the c-child of an interval
   inside the index leaves [0, n + 1], and the next extension of that
   child is refused as out of range.  Mmap adopts that file too.

   With [--forward] the same counter of the forward side (the rank
   side delta scans, and bidir's prepends) gains n instead, so delta's
   scan leaves [0, n + 1] on the forward side and its next rank is
   refused as out of range. *)

let () =
  let raised = if Array.length Sys.argv > 2 then Sys.argv.(1) else "" in
  let super = raised = "--super" || raised = "--forward" in
  let out = Sys.argv.(Array.length Sys.argv - 1) in
  let st = Random.State.make [| 41 |] in
  let text = String.init 4000 (fun _ -> "acgt".[Random.State.int st 4]) in
  let n = String.length text and m = 40 in
  let w = n / 2 in
  let fm = Core.Kmismatch.fm_rev (Core.Kmismatch.build_index text) in
  let image = Bytes.of_string (Fmindex.Fm_index.serialize fm) in
  let line i =
    let rec start i at = if i = 0 then at else start (i - 1) (1 + Bytes.index_from image at '\n') in
    let at = start i 0 in
    String.split_on_char ' ' (Bytes.sub_string image at (Bytes.index_from image at '\n' - at))
  in
  (* Header field 4 is sa_rate; the superblocks are the third section
     (the forward side's the fifth), the marks the sixth. *)
  let sa_rate = int_of_string (List.nth (line 0) 4) in
  let section i = int_of_string (List.nth (line 1) (1 + (3 * i))) in
  let marks = section 5 in
  if super then begin
    (* Four little-endian int64 counters per superblock, a c g t. *)
    let at = section (if raised = "--forward" then 4 else 2) + 8 in
    Bytes.set_int64_le image at (Int64.add (Bytes.get_int64_le image at) (Int64.of_int n))
  end;
  let bit row = (marks + (row lsr 3), 1 lsl (row land 7)) in
  let marked row =
    let at, b = bit row in
    Char.code (Bytes.get image at) land b <> 0
  in
  let flip row =
    let at, b = bit row in
    Bytes.set image at (Char.chr (Char.code (Bytes.get image at) lxor b))
  in
  let lo = n - w - m - sa_rate and hi = n - w in
  let pos = Array.make (n + 1) 0 in
  Fmindex.Fm_index.locate_into fm (0, n + 1) pos;
  let cleared = ref 0 in
  Array.iteri
    (fun row p ->
      if (not super) && row > 0 && marked row && lo <= p && p <= hi then begin
        flip row;
        incr cleared
      end)
    pos;
  Array.iteri
    (fun row p ->
      if !cleared > 0 && (not (marked row)) && p mod sa_rate <> 0 && p < lo - (2 * sa_rate)
      then begin
        flip row;
        decr cleared
      end)
    pos;
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_bytes oc image);
  print_endline (String.sub text w m)
