let blocks ~pattern ~k =
  let m = String.length pattern in
  if k = 0 then []
  else begin
    let b = 2 * k in
    let len = m / b in
    if len < 2 then []
    else
      List.init b (fun i -> (i * len, String.sub pattern (i * len) len))
  end

let search ~ptext ~pattern ~k text =
  if pattern = "" then invalid_arg "Amir.search: empty pattern";
  if k < 0 then invalid_arg "Amir.search: negative k";
  let m = String.length pattern and n = String.length text in
  if Fmindex.Packed_text.length ptext <> n then
    invalid_arg "Amir.search: packed text and text lengths differ";
  (* budgets beyond m behave exactly like k = m; the clamp also keeps
     the 2k block count from overflowing for absurd budgets *)
  let k = min k m in
  if m > n then []
  else if k = 0 then
    List.map (fun p -> (p, 0)) (Stringmatch.Kmp.find_all ~pattern ~text)
  else begin
    (* Window verification, word-parallel on the packed text: O(k) on
       the overwhelmingly common quick rejections. *)
    let pp = Fmindex.Packed_text.Pattern.make pattern in
    let verify candidates =
      List.filter_map
        (fun pos ->
          Deadline.poll ();
          let d = Fmindex.Packed_text.hamming ~limit:k ptext pp ~pos in
          if d <= k then Some (pos, d) else None)
        candidates
    in
    match blocks ~pattern ~k with
    | [] ->
        (* Pattern too short for 2k blocks: verify every position (Amir's
           algorithm also special-cases such patterns). *)
        verify (List.init (n - m + 1) (fun i -> i))
    | bs ->
        let offsets = Array.of_list (List.map fst bs) in
        let ac = Stringmatch.Aho_corasick.build (Array.of_list (List.map snd bs)) in
        let marks = Array.make (n - m + 1) 0 in
        Stringmatch.Aho_corasick.scan ac text ~f:(fun ~pattern ~pos ->
            let candidate = pos - offsets.(pattern) in
            if candidate >= 0 && candidate <= n - m then
              marks.(candidate) <- marks.(candidate) + 1);
        (* 2k blocks and <= k mismatches leave >= k intact blocks. *)
        let threshold = k in
        let candidates = ref [] in
        for pos = n - m downto 0 do
          if marks.(pos) >= threshold then candidates := pos :: !candidates
        done;
        verify !candidates
  end
