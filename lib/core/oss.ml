(* Optimum-search-schemes engine over the bidirectional FM-index.  See
   oss.mli for the scheme/completeness vocabulary and DESIGN.md
   "Bidirectional index and optimum search schemes" for the cost model. *)

module Bidir = Fmindex.Bidir
module Packed_text = Fmindex.Packed_text

module Scheme = struct
  type search = { pi : int array; lower : int array; upper : int array }

  let pieces ~k =
    if k < 0 then invalid_arg "Oss.Scheme.pieces: negative k";
    k + 1

  (* The generic leftmost-zero-piece family: search i processes pieces
     i, i+1, ..., p rightwards then i-1, ..., 1 leftwards.  Piece i is
     exact (U_1 = 0); while still inside the right run at most
     k - (i - 1) mismatches may be spent, because the searches to its
     left are reserved for distributions whose pieces 1..i-1 all carry
     at least one error (the cumulative L ramp on the left run).  An
     occurrence with sum <= k < p has a zero piece; the search of its
     leftmost zero piece admits it, so the family is complete for every
     k with p = k + 1 pieces. *)
  let generic ~k ~i =
    let p = pieces ~k in
    if i < 1 || i > p then invalid_arg "Oss.Scheme.generic: piece out of range";
    let right_run = p - i + 1 in
    let pi =
      Array.init p (fun t ->
          if t < right_run then i + t else i - 1 - (t - right_run))
    in
    let upper =
      Array.init p (fun t ->
          if t = 0 then 0 else if t < right_run then k - i + 1 else k)
    in
    let lower =
      Array.init p (fun t -> if t < right_run then 0 else t + 1 - right_run)
    in
    { pi; lower; upper }

  let family ~k = List.init (pieces ~k) (fun i -> generic ~k ~i:(i + 1))

  (* The families of budgets up to 8 are built once (about a thousand
     words), so a search at those budgets allocates no scheme; a larger
     budget builds its family per call. *)
  let built = Array.init 9 (fun k -> family ~k)

  let for_k ~k =
    if k < 0 then invalid_arg "Oss.Scheme.for_k: negative k";
    if k < Array.length built then built.(k) else family ~k

  let covers s a =
    let p = Array.length s.pi in
    if Array.length a <> p then false
    else begin
      let ok = ref true in
      let sum = ref 0 in
      for t = 0 to p - 1 do
        sum := !sum + a.(s.pi.(t) - 1);
        if !sum < s.lower.(t) || !sum > s.upper.(t) then ok := false
      done;
      !ok
    end

  let complete ~k =
    let p = pieces ~k in
    let searches = for_k ~k in
    let a = Array.make p 0 in
    (* Enumerate every distribution with sum <= k; each must be admitted
       by at least one search. *)
    let rec every t budget =
      if t = p then List.exists (fun s -> covers s a) searches
      else begin
        let ok = ref true in
        for v = 0 to budget do
          a.(t) <- v;
          if not (every (t + 1) (budget - v)) then ok := false
        done;
        a.(t) <- 0;
        !ok
      end
    in
    every 0 k

  let valid_search ~k ~p s =
    Array.length s.pi = p
    && Array.length s.lower = p
    && Array.length s.upper = p
    && (let seen = Array.make (p + 1) false in
        Array.for_all
          (fun x ->
            x >= 1 && x <= p && not seen.(x) && (seen.(x) <- true; true))
          s.pi)
    && (let lo = ref s.pi.(0) and hi = ref s.pi.(0) in
        Array.for_all
          (fun x ->
            (* each next piece adjacent to the processed span *)
            if x = !lo - 1 then (lo := x; true)
            else if x = !hi + 1 then (hi := x; true)
            else x = !lo && x = !hi)
          s.pi)
    && (let mono = ref true in
        for t = 0 to p - 1 do
          if s.lower.(t) > s.upper.(t) || s.upper.(t) > k || s.lower.(t) < 0
          then mono := false;
          if t > 0 && (s.lower.(t) < s.lower.(t - 1) || s.upper.(t) < s.upper.(t - 1))
          then mono := false
        done;
        !mono)

  let valid ~k =
    let p = pieces ~k in
    List.for_all (valid_search ~k ~p) (for_k ~k)
end

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

(* The hand-off from the index to the text.  A match of span
   0 < len < m whose forward interval holds at most [handoff_width]
   rows leaves the index (its rows are located and each full window
   goes to the word-parallel Hamming kernel, the Giaquinta et al.
   packed cost model) as soon as its piece ends, or the search may
   still spend a mismatch in the piece (e < U(t)), or the span has
   grown by [confirm] characters since the interval first fitted.
   Otherwise it extends: while e = U(t) every further character of the
   piece is forced, so at most one child lives.

   The prices, at 4 Mbp with sa_rate 16: a located row costs about 7.5
   LF steps (a mark test and an Occ block decode each) plus a kernel
   call, while extending an interval of <= 8 rows costs one or two
   block decodes per side.  A chance match survives each forced
   character with probability about 1/4, so [confirm] forced
   extensions kill nearly every chance match before it is located:
   an exact opening piece narrows to a few rows after log4 n ~ 11 of
   its characters, and those rows used to be located at once.
   Outside a forced stretch an interval of 3-8 rows would branch up to
   four ways per character, while the lockstep walk overlaps its rows'
   misses, so it hands off at once.  Per read of `kmm bench
   mtree-alloc`'s bidir row (k = 4), 8 rows with 3 forced characters
   locate 8.8 rows in 65.7 LF steps and decode 169 blocks, against
   14.5, 108.6 and 233 (prepends uncounted) at 2 rows with no
   confirmation; 8 rows without
   confirmation locate 40.7 (EXPERIMENTS.md "Pricing the hand-off").

   Dropping a row whose forced character mismatches drops only a
   window this search does not admit; completeness puts every
   occurrence on the path of a search whose upper bounds it never
   exceeds, and that search either finishes it or verifies it. *)
let handoff_width = 8
let confirm = 3

(* Per-domain scratch, reused from search to search.  Row [l] of [rows]
   receives the children of a match of length [l]: down the recursion
   the matched span only grows, so a row is never overwritten while a
   caller still reads its children, and a cut search leaves nothing a
   later one depends on.  The call's candidates wait in [cand_rows] /
   [cand_tags] until its last search: [cand_rows.(c)] is a reverse-side
   row, and [cand_tags.(c)] the right edge [j] of the matched span for a
   candidate to verify, or [-1 - e] for a whole-pattern match at exact
   distance [e]. *)
type scratch = {
  mutable rows : Bidir.cursor array;
  mutable cand_rows : int array;
  mutable cand_tags : int array;
  mutable cands : int;
  mutable busy : bool;
  (* The search's work, added to its sink when it returns. *)
  mutable nodes : int;
  mutable leaves : int;
  mutable extends : int;
  mutable verifications : int;
}

(* Candidate buffers start past the minor heap's largest block, so
   neither they nor their growth count as a search's minor words. *)
let initial_cands = 512

let fresh () =
  {
    rows = [||];
    cand_rows = Array.make initial_cands 0;
    cand_tags = Array.make initial_cands 0;
    cands = 0;
    busy = false;
    nodes = 0;
    leaves = 0;
    extends = 0;
    verifications = 0;
  }

(* Patterns or candidate sets past this size leave a fresh scratch
   behind, so one outlier does not pin its memory on the domain. *)
let retained = 1 lsl 12

let scratch_key = Domain.DLS.new_key fresh

(* The domain's scratch, ready for a pattern of length [m].  A search
   that finds it busy (re-entered on the same domain) works in a
   private one. *)
let acquire m =
  let sc = Domain.DLS.get scratch_key in
  let sc =
    if sc.busy then fresh ()
    else if Array.length sc.rows > retained || Array.length sc.cand_rows > retained then begin
      let sc = fresh () in
      Domain.DLS.set scratch_key sc;
      sc
    end
    else sc
  in
  sc.busy <- true;
  sc.nodes <- 0;
  sc.leaves <- 0;
  sc.extends <- 0;
  sc.verifications <- 0;
  sc.cands <- 0;
  let have = Array.length sc.rows in
  if have < m then
    sc.rows <- Array.init m (fun l -> if l < have then sc.rows.(l) else Bidir.cursor ());
  sc

(* Record the rows [r_lo, r_hi) as candidates with one tag. *)
let push sc ~r_lo ~r_hi tag =
  let need = sc.cands + r_hi - r_lo in
  if need > Array.length sc.cand_rows then begin
    let cap = max need (2 * Array.length sc.cand_rows) in
    let grow a = Array.append (Array.sub a 0 sc.cands) (Array.make (cap - sc.cands) 0) in
    sc.cand_rows <- grow sc.cand_rows;
    sc.cand_tags <- grow sc.cand_tags
  end;
  for row = r_lo to r_hi - 1 do
    let c = sc.cands + row - r_lo in
    Array.unsafe_set sc.cand_rows c row;
    Array.unsafe_set sc.cand_tags c tag
  done;
  sc.cands <- need

let search ?(obs = Obs.noop) bidir ~pattern ~k =
  if pattern = "" then invalid_arg "Oss.search: empty pattern";
  if k < 0 then invalid_arg "Oss.search: negative k";
  let m = String.length pattern in
  (* Validate and encode in one pass. *)
  let code = Array.make m 0 in
  for i = 0 to m - 1 do
    let c = String.unsafe_get pattern i in
    if Dna.Alphabet.lower_base c <> c || c = '\000' then
      invalid_arg "Oss.search: pattern must be lowercase acgt";
    Array.unsafe_set code i (Dna.Alphabet.code c)
  done;
  let k = min k m in
  let n = Bidir.length bidir in
  if m > n then []
  else begin
    (* Verification runs in place on the index's own payload, the
       reversed text: window [w] of the text is window [n - w - m] of
       it, against the reversed pattern. *)
    let rtext = Fmindex.Fm_index.packed_text (Bidir.fm_rev bidir) in
    let rpp = Packed_text.Pattern.make_rev pattern in
    if k >= m then begin
      (* Every window is within budget at its true distance; no scheme
         can partition the pattern into k + 1 nonempty pieces. *)
      let out = ref [] in
      for w = n - m downto 0 do
        Deadline.poll ();
        out := (w, Packed_text.hamming ~limit:max_int rtext rpp ~pos:(n - w - m)) :: !out
      done;
      !out
    end
    else begin
      let p = Scheme.pieces ~k in
      let bounds = Array.make (p + 1) 0 in
      let base = m / p and rem = m mod p in
      for t = 1 to p do
        bounds.(t) <- bounds.(t - 1) + base + (if t <= rem then 1 else 0)
      done;
      let searches = Scheme.for_k ~k in
      let q = Bidir.prefix_len bidir in
      let prefix = Bidir.prefix_table bidir in
      let sc = acquire m in
      (* Whole pattern matched through the index: each row of the
         interval is a hit at exact distance [e]. *)
      let finish ~r_lo ~r_hi e =
        sc.leaves <- sc.leaves + 1;
        push sc ~r_lo ~r_hi (-1 - e)
      in
      (* Narrow interval mid-search: leave the index; each row's full
         window is verified word-parallel once every search has run.
         [j] is the pattern offset of the matched span's right edge. *)
      let verify ~r_lo ~r_hi j =
        sc.verifications <- sc.verifications + 1;
        sc.leaves <- sc.leaves + 1;
        push sc ~r_lo ~r_hi j
      in
      let run_search (sch : Scheme.search) =
        (* [enter t f_lo f_hi r_lo r_hi e i j]: pieces of order positions
           < t are matched as span [i, j) with [e] mismatches, its
           interval pair [f_lo, f_hi) / [r_lo, r_hi); [step] consumes
           the current piece one character at a time, branching over
           the four bases from one rank-all pass per side into the
           span's row. *)
        let rec enter t f_lo f_hi r_lo r_hi e i j =
          if t = p then finish ~r_lo ~r_hi e
          else begin
            let idx = sch.pi.(t) - 1 in
            let plo = bounds.(idx) and phi = bounds.(idx + 1) in
            step t f_lo f_hi r_lo r_hi e i j ~fit:(-1) ~right:(plo >= j) ~plo ~phi
          end
        (* [fit] is the span length at which the interval first held at
           most [handoff_width] rows, or -1 while it holds more. *)
        and step t f_lo f_hi r_lo r_hi e i j ~fit ~right ~plo ~phi =
          Deadline.poll ();
          let len = j - i in
          let narrow = f_hi - f_lo <= handoff_width in
          let fit = if narrow && fit < 0 then len else fit in
          let ends = if right then j = phi else i = plo in
          if
            len > 0 && len < m && narrow
            && (ends || e < sch.upper.(t) || len - fit >= confirm)
          then verify ~r_lo ~r_hi j
          else if ends then begin
            if e >= sch.lower.(t) then enter (t + 1) f_lo f_hi r_lo r_hi e i j
            else sc.leaves <- sc.leaves + 1
          end
          else begin
            let cur = Array.unsafe_get sc.rows len in
            sc.extends <- sc.extends + 1;
            let pc = if right then code.(j) else code.(i - 1) in
            if right then Bidir.extend_right_all bidir cur ~f_lo ~f_hi ~r_lo ~r_hi
            else Bidir.extend_left_all bidir cur ~f_lo ~f_hi ~r_lo ~r_hi;
            for c = 1 to 4 do
              let f_lo = Bidir.f_lo cur c and f_hi = Bidir.f_hi cur c in
              if f_lo < f_hi then begin
                let e' = if c = pc then e else e + 1 in
                if e' <= sch.upper.(t) then begin
                  sc.nodes <- sc.nodes + 1;
                  let r_lo = Bidir.r_lo cur c and r_hi = Bidir.r_hi cur c in
                  if right then step t f_lo f_hi r_lo r_hi e' i (j + 1) ~fit ~right ~plo ~phi
                  else step t f_lo f_hi r_lo r_hi e' (i - 1) j ~fit ~right ~plo ~phi
                end
              end
            done
          end
        in
        (* The opening piece is exact: when it spans at least q bases,
           its first q are one prefix-table lookup, not q extensions. *)
        let idx = sch.pi.(0) - 1 in
        let p0 = bounds.(idx) and phi = bounds.(idx + 1) and rows = n + 1 in
        if q > 0 && phi - p0 >= q then begin
          let key = ref 0 in
          for i = p0 to p0 + q - 1 do
            key := (4 * !key) + code.(i) - 1
          done;
          let slot = 3 * !key in
          let f_lo = prefix.(slot) and r_lo = prefix.(slot + 1) and width = prefix.(slot + 2) in
          if width > 0 then
            step 0 f_lo (f_lo + width) r_lo (r_lo + width) 0 p0 (p0 + q) ~fit:(-1) ~right:true ~plo:p0
              ~phi
        end
        else enter 0 0 rows 0 rows 0 p0 p0
      in
      (* Every candidate at once: one lockstep walk locates all rows,
         which gives the reverse-side position [p] of the span ending at
         [j], so the window starts at [w = n - p - j]; then the kernel
         verifies each window that fits.  A hit is kept as the key
         [w * (k + 1) + d] (below 2^60 for any text the index holds),
         written over the positions already read, so one sort orders
         the hits by window and a window reached twice is adjacent to
         itself: all its distances agree. *)
      let resolve () =
        let cands = sc.cands and pos = sc.cand_rows and tags = sc.cand_tags in
        Fmindex.Fm_index.locate_rows (Bidir.fm_rev bidir) pos ~len:cands;
        let hits = ref 0 in
        for c = 0 to cands - 1 do
          Deadline.poll ();
          let tag = Array.unsafe_get tags c in
          let p = Array.unsafe_get pos c in
          let w = n - p - (if tag < 0 then m else tag) in
          let d =
            if tag < 0 then -1 - tag
            else if w >= 0 && w + m <= n then
              Packed_text.hamming ~limit:k rtext rpp ~pos:(n - w - m)
            else k + 1
          in
          if d <= k then begin
            Array.unsafe_set pos !hits ((w * (k + 1)) + d);
            incr hits
          end
        done;
        let keys = Array.sub pos 0 !hits in
        Array.sort Int.compare keys;
        let out = ref [] and last = ref (-1) in
        for h = Array.length keys - 1 downto 0 do
          let key = Array.unsafe_get keys h in
          let w = key / (k + 1) in
          if w <> !last then begin
            out := (w, key - (w * (k + 1))) :: !out;
            last := w
          end
        done;
        !out
      in
      let explore () =
        Obs.time obs Obs.Hist.bidir_explore_ns (fun () ->
            List.iter run_search searches;
            resolve ())
      in
      let out =
        match explore () with
        | out ->
            let module C = Obs.Counter in
            Obs.add obs C.engine_nodes sc.nodes;
            Obs.add obs C.engine_leaves sc.leaves;
            (* One extension is one rank-all pass per side. *)
            Obs.add obs C.engine_rank_calls (2 * sc.extends);
            Obs.add obs C.bidir_extends sc.extends;
            Obs.add obs C.bidir_verifications sc.verifications;
            Obs.add obs C.bidir_searches (List.length searches);
            sc.busy <- false;
            out
        | exception e ->
            sc.busy <- false;
            raise e
      in
      out
    end
  end
