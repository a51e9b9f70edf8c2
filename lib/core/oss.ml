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

(* Candidate-verification cutoff: once an interval pair narrows to this
   many rows, locating the candidates and running the word-parallel
   Hamming kernel over the whole window beats continued 4-way
   branching — two SA walks plus ceil(m/28) word ops versus up to
   4 * (remaining characters) rank passes (the Giaquinta et al. packed
   cost model). *)
let verify_cutoff = 2

(* Per-domain scratch, reused from search to search.  Row [l] of [rows]
   receives the children of a match of length [l]: down the recursion
   the matched span only grows, so a row is never overwritten while a
   caller still reads its children, and a cut search leaves nothing a
   later one depends on. *)
type scratch = {
  mutable rows : Bidir.cursor array;
  mutable locate_buf : int array;
  hits : (int, int) Hashtbl.t;
  mutable busy : bool;
  (* The search's work, added to its sink when it returns. *)
  mutable nodes : int;
  mutable leaves : int;
  mutable extends : int;
  mutable verifications : int;
}

let fresh () =
  {
    rows = [||];
    locate_buf = [||];
    hits = Hashtbl.create 64;
    busy = false;
    nodes = 0;
    leaves = 0;
    extends = 0;
    verifications = 0;
  }

(* Patterns or candidate intervals past this size leave a fresh scratch
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
    else if Array.length sc.rows > retained || Array.length sc.locate_buf > retained then begin
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
  Hashtbl.reset sc.hits;
  let have = Array.length sc.rows in
  if have < m then
    sc.rows <- Array.init m (fun l -> if l < have then sc.rows.(l) else Bidir.cursor ());
  sc

let search ?(obs = Obs.noop) bidir ~pattern ~k =
  if pattern = "" then invalid_arg "Oss.search: empty pattern";
  if k < 0 then invalid_arg "Oss.search: negative k";
  let m = String.length pattern in
  (* Validate and encode in one pass. *)
  let code = Array.make m 0 in
  for i = 0 to m - 1 do
    let c = String.unsafe_get pattern i in
    if not (Dna.Alphabet.is_base c && Dna.Alphabet.normalize c = c) then
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
      let hits = sc.hits in
      let add_hit w d = if not (Hashtbl.mem hits w) then Hashtbl.add hits w d in
      (* The forward positions of the [r_hi - r_lo] occurrences of the
         matched span, whose length is [len]. *)
      let locate ~r_lo ~r_hi ~len =
        let cnt = r_hi - r_lo in
        if Array.length sc.locate_buf < cnt then sc.locate_buf <- Array.make cnt 0;
        Bidir.locate_into bidir ~r_lo ~r_hi ~len sc.locate_buf;
        sc.locate_buf
      in
      (* Whole pattern matched through the index: the located forward
         positions are the window starts, [e] the exact distance. *)
      let finish ~r_lo ~r_hi e =
        sc.leaves <- sc.leaves + 1;
        let buf = locate ~r_lo ~r_hi ~len:m in
        for idx = 0 to r_hi - r_lo - 1 do
          add_hit (Array.unsafe_get buf idx) e
        done
      in
      (* Narrow interval mid-search: leave the index, verify the full
         window word-parallel.  [i] is the pattern offset of the matched
         span's left edge, so the window starts [i] characters before
         the located occurrence. *)
      let verify ~r_lo ~r_hi i j =
        sc.verifications <- sc.verifications + 1;
        sc.leaves <- sc.leaves + 1;
        let buf = locate ~r_lo ~r_hi ~len:(j - i) in
        for idx = 0 to r_hi - r_lo - 1 do
          let w = Array.unsafe_get buf idx - i in
          if w >= 0 && w + m <= n then begin
            let d = Packed_text.hamming ~limit:k rtext rpp ~pos:(n - w - m) in
            if d <= k then add_hit w d
          end
        done
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
            step t f_lo f_hi r_lo r_hi e i j ~right:(plo >= j) ~plo ~phi
          end
        and step t f_lo f_hi r_lo r_hi e i j ~right ~plo ~phi =
          Deadline.poll ();
          let len = j - i in
          if len > 0 && len < m && f_hi - f_lo <= verify_cutoff then verify ~r_lo ~r_hi i j
          else if (if right then j = phi else i = plo) then begin
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
                  if right then step t f_lo f_hi r_lo r_hi e' i (j + 1) ~right ~plo ~phi
                  else step t f_lo f_hi r_lo r_hi e' (i - 1) j ~right ~plo ~phi
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
            step 0 f_lo (f_lo + width) r_lo (r_lo + width) 0 p0 (p0 + q) ~right:true ~plo:p0 ~phi
        end
        else enter 0 0 rows 0 rows 0 p0 p0
      in
      let explore () =
        Obs.time obs Obs.Hist.bidir_explore_ns (fun () -> List.iter run_search searches);
        Hashtbl.fold (fun w d acc -> (w, d) :: acc) hits []
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
      List.sort (fun (a, _) (b, _) -> compare a b) out
    end
  end
