module Fm = Fmindex.Fm_index

(* Feeding pattern characters left to right into backward extensions of
   FM(rev s) matches prefixes of the pattern against windows of s: after j
   steps the interval covers exactly the occurrences (reversed) of the
   j-character path string in s. *)

let delta_heuristic fm ~pattern ~k =
  if k < 0 then invalid_arg "S_tree.delta_heuristic: negative k";
  let m = String.length pattern in
  let codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
  let delta = Array.make (m + 2) 0 in
  (* [ends.(i)] caches what a probe learnt at start i: 0 if nothing yet,
     -1 if r[i .. e] occurred for the probe's window end e, else the end
     E(i) of the first absent window from i.  Window ends only decrease
     from one level to the next, so a start once probed is never charged
     again. *)
  let ends = Array.make (m + 1) 0 in
  let absent i e =
    let c = ends.(i) in
    if c > 0 then c <= e
    else if c < 0 then false
    else begin
      let l = Fm.longest_extension fm codes ~pos:(i - 1) ~stop:e in
      let gone = l < e - i + 1 in
      ends.(i) <- (if gone then i + l else -1);
      gone
    end
  in
  (* delta.(i) >= v exactly for i <= b.  The starts with delta >= v+1 are
     those whose window r[i .. b-1] is absent, a prefix of 1 .. b-1 found
     by binary search: lo is absent (or 0), hi present (or b). *)
  let b = ref (m + 1) and v = ref 0 in
  while !b > 0 && !v <= k do
    let e = !b - 1 in
    let lo = ref 0 and hi = ref !b in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if absent mid e then lo := mid else hi := mid
    done;
    Array.fill delta (!lo + 1) (!b - !lo) !v;
    b := !lo;
    incr v
  done;
  Array.fill delta 1 !b !v;
  delta

let search ?(use_delta = true) ?stats ?(obs = Obs.noop) fm ~pattern ~k =
  if pattern = "" then invalid_arg "S_tree.search: empty pattern";
  if k < 0 then invalid_arg "S_tree.search: negative k";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c && c = Dna.Alphabet.normalize c) then
        invalid_arg "S_tree.search: pattern must be lowercase acgt")
    pattern;
  let m = String.length pattern in
  let k = min k m in
  (* budgets beyond m behave exactly like k = m *)
  let n = Fm.length fm in
  let bump (f : Stats.t -> unit) = match stats with Some s -> f s | None -> () in
  if m > n then []
  else begin
    let delta =
      if use_delta then
        Obs.span obs "stree.delta" (fun () -> delta_heuristic fm ~pattern ~k)
      else [||]
    in
    let pat_codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
    let results = ref [] in
    let locate_buf = ref [||] in
    let report ((lo, hi) as iv) q =
      let cnt = hi - lo in
      if Array.length !locate_buf < cnt then locate_buf := Array.make cnt 0;
      let buf = !locate_buf in
      Fm.locate_into fm iv buf;
      for i = 0 to cnt - 1 do
        results := (n - Array.unsafe_get buf i - m, q) :: !results
      done
    in
    (* Depth-first over the S-tree; j = characters matched, q = mismatches
       spent.  Branches for all four characters come from one rank-all
       pass over the interval boundaries. *)
    let rec expand iv j q =
      Deadline.poll ();
      if j = m then begin
        bump (fun s -> s.leaves <- s.leaves + 1);
        report iv q
      end
      else begin
        let los = Array.make 5 0 and his = Array.make 5 0 in
        bump (fun s -> s.rank_calls <- s.rank_calls + 2);
        Fm.extend_all fm iv ~los ~his;
        let died = ref true in
        for c = 1 to 4 do
          let lo = los.(c) and hi = his.(c) in
          if lo < hi then begin
            let q' = if c = pat_codes.(j) then q else q + 1 in
            if q' <= k && ((not use_delta) || k - q' >= delta.(j + 2)) then begin
              died := false;
              bump (fun s -> s.nodes <- s.nodes + 1);
              expand (lo, hi) (j + 1) q'
            end
          end
        done;
        if !died then bump (fun s -> s.leaves <- s.leaves + 1)
      end
    in
    Obs.span obs "stree.explore" (fun () -> expand (Fm.whole fm) 0 0);
    List.sort Hit.compare !results
  end
