let blocks ~pattern ~k =
  let m = String.length pattern in
  (* the clamp keeps 2k from overflowing for absurd budgets *)
  let b = if k = 0 then 1 else 2 * min k m in
  let len = m / b in
  if len < 2 then []
  else List.init b (fun i -> (i * len, String.sub pattern (i * len) len))

let search ~ptext ~pattern ~k =
  if pattern = "" then invalid_arg "Amir.search: empty pattern";
  if k < 0 then invalid_arg "Amir.search: negative k";
  let m = String.length pattern and n = Fmindex.Packed_text.length ptext in
  (* budgets beyond m behave exactly like k = m *)
  let k = min k m in
  (* Window verification, word-parallel on the packed text: O(k) on
     the overwhelmingly common quick rejections. *)
  let pp = Fmindex.Packed_text.Pattern.make pattern in
  let hits = ref [] in
  let verify w =
    let d = Fmindex.Packed_text.hamming ~limit:k ptext pp ~pos:w in
    if d <= k then hits := (w, d) :: !hits
  in
  match blocks ~pattern ~k with
  | _ when m > n -> []
  | [] ->
      (* Too short for blocks: verify every window (Amir's algorithm
         also special-cases such patterns), right to left, so the hits
         come out ascending. *)
      for w = n - m downto 0 do
        Deadline.poll ();
        verify w
      done;
      !hits
  | (_, first) :: _ as bs ->
      (* b blocks and <= k mismatches leave >= b - k intact blocks. *)
      let need = List.length bs - k and len = String.length first in
      let offsets = Array.of_list (List.map fst bs) in
      let ac = Stringmatch.Aho_corasick.build (Array.of_list (List.map snd bs)) in
      (* A block occurrence ending at [e] marks one window in
         [e - m + 1, e], and every window up to [e - m] has seen all its
         blocks by then: it is settled (verified if marked [need] times,
         then its count cleared), so at most m counts are live, in a
         ring of [mask + 1 >= m] slots, and the windows of
         [!settled + m, upto] were never marked. *)
      let mask = (let rec up r = if r >= m then r else up (2 * r) in up 1) - 1 in
      let ring = Array.make (mask + 1) 0 in
      let settled = ref 0 in
      let settle upto =
        for w = !settled to min upto (!settled + m - 1) do
          if ring.(w land mask) >= need then verify w;
          ring.(w land mask) <- 0
        done;
        settled := max !settled (upto + 1)
      in
      Stringmatch.Aho_corasick.scan ac ptext ~f:(fun ~pattern:j ~pos ->
          settle (pos + len - 1 - m);
          let w = pos - offsets.(j) in
          if w >= 0 && w <= n - m then ring.(w land mask) <- ring.(w land mask) + 1);
      settle (n - m);
      List.rev !hits
