module Fm = Fmindex.Fm_index

type config = { chain_skip : bool; use_delta : bool; store_width : int }

let default_config = { chain_skip = true; use_delta = true; store_width = 2 }

(* --- The node arena ------------------------------------------------ *)

(* Every stored node of one search lives in these int arrays, one per
   field and indexed by node number; -1 is the null link.  Children are
   prepended ([child] is the newest, [sibling] the one added before it),
   and so are skipped branches, four ints each in [skips]: code, lo, hi
   and the next entry.  A memoised match run is a length followed by its
   node numbers in [runs].  Nothing here holds a pointer, so a stored
   node costs the GC nothing, and each domain reuses one arena from
   search to search. *)
type arena = {
  mutable code : int array;  (* path character at this depth *)
  mutable depth : int array;  (* 1-based; the pattern position compared *)
  mutable lo : int array;  (* BWT interval after this character *)
  mutable hi : int array;
  mutable miss : int array;  (* mismatches on the path up to here *)
  mutable state : int array;  (* [settled], [on_stack] or [stub] *)
  mutable child : int array;
  mutable sibling : int array;
  mutable skipped : int array;  (* head of the skipped-branch list *)
  mutable chain : int array;  (* offset of the memoised run, or -1 *)
  mutable nodes : int;
  mutable skips : int array;
  mutable nskips : int;
  mutable runs : int array;
  mutable nruns : int;
  table : Int_table.t;  (* packed interval -> node *)
  mutable bufs : int array array;  (* rows 2d, 2d+1: los/his at depth d *)
  mutable locate_buf : int array;
  mutable busy : bool;
  (* The search's work, added to its sink when it returns. *)
  mutable n_nodes : int;
  mutable n_leaves : int;
  mutable n_rank_calls : int;
  mutable n_derivations : int;
  mutable n_derived_leaves : int;
  mutable n_resumes : int;
}

(* Node states.  A [stub]'s subtree was derived from a shallower node
   with the same interval rather than explored. *)
let settled = 0
let on_stack = 1
let stub = 2

(* The most nodes an arena keeps capacity for between searches.  A
   search that grew it past this leaves a fresh arena behind, so one
   outlier does not pin its memory on the domain.  The skipped-branch
   pool (at most four entries per node), the run pool and the table
   (load at least 1/4) are bounded by multiples of it; the per-depth rows
   and the locate buffer, which grow with the pattern and with one
   interval, are held to it directly.  With 100 bp reads on a 4 Mbp
   genome, the largest of 1,200 searches stored 1.8k nodes at k = 2 and
   11.2k at k = 3. *)
let retained_nodes = 1 lsl 14

let fresh () =
  let cap = 256 in
  {
    code = Array.make cap 0;
    depth = Array.make cap 0;
    lo = Array.make cap 0;
    hi = Array.make cap 0;
    miss = Array.make cap 0;
    state = Array.make cap 0;
    child = Array.make cap 0;
    sibling = Array.make cap 0;
    skipped = Array.make cap 0;
    chain = Array.make cap 0;
    nodes = 0;
    skips = Array.make (4 * cap) 0;
    nskips = 0;
    runs = Array.make cap 0;
    nruns = 0;
    table = Int_table.create (2 * cap);
    bufs = [||];
    locate_buf = [||];
    busy = false;
    n_nodes = 0;
    n_leaves = 0;
    n_rank_calls = 0;
    n_derivations = 0;
    n_derived_leaves = 0;
    n_resumes = 0;
  }

let oversized a =
  Array.length a.code > retained_nodes
  || Array.length a.bufs > retained_nodes
  || Array.length a.locate_buf > retained_nodes

let arena_key = Domain.DLS.new_key fresh

(* The domain's arena, reset for a pattern of length [m].  A search that
   finds it busy (re-entered on the same domain) works in a private one. *)
let acquire m =
  let a = Domain.DLS.get arena_key in
  let a =
    if a.busy then fresh ()
    else if oversized a then begin
      let a = fresh () in
      Domain.DLS.set arena_key a;
      a
    end
    else a
  in
  a.busy <- true;
  a.nodes <- 0;
  a.nskips <- 0;
  a.nruns <- 0;
  a.n_nodes <- 0;
  a.n_leaves <- 0;
  a.n_rank_calls <- 0;
  a.n_derivations <- 0;
  a.n_derived_leaves <- 0;
  a.n_resumes <- 0;
  Int_table.clear a.table;
  if Array.length a.bufs < 2 * m then
    a.bufs <- Array.init (2 * m) (fun _ -> Array.make Dna.Alphabet.sigma 0);
  a

let record obs a =
  let module C = Obs.Counter in
  Obs.add obs C.engine_nodes a.n_nodes;
  Obs.add obs C.engine_leaves a.n_leaves;
  Obs.add obs C.engine_rank_calls a.n_rank_calls;
  Obs.add obs C.engine_derivations a.n_derivations;
  Obs.add obs C.engine_derived_leaves a.n_derived_leaves;
  Obs.add obs C.engine_resumes a.n_resumes

(* The arena's locate buffer, grown to hold at least [len] rows. *)
let locate_buf a len =
  if Array.length a.locate_buf < len then a.locate_buf <- Array.make len 0;
  a.locate_buf

let double arr =
  let b = Array.make (2 * Array.length arr) 0 in
  Array.blit arr 0 b 0 (Array.length arr);
  b

let new_node a ~code ~depth ~lo ~hi ~miss =
  let v = a.nodes in
  if v = Array.length a.code then begin
    a.code <- double a.code;
    a.depth <- double a.depth;
    a.lo <- double a.lo;
    a.hi <- double a.hi;
    a.miss <- double a.miss;
    a.state <- double a.state;
    a.child <- double a.child;
    a.sibling <- double a.sibling;
    a.skipped <- double a.skipped;
    a.chain <- double a.chain
  end;
  a.nodes <- v + 1;
  Array.unsafe_set a.code v code;
  Array.unsafe_set a.depth v depth;
  Array.unsafe_set a.lo v lo;
  Array.unsafe_set a.hi v hi;
  Array.unsafe_set a.miss v miss;
  Array.unsafe_set a.state v settled;
  Array.unsafe_set a.child v (-1);
  Array.unsafe_set a.sibling v (-1);
  Array.unsafe_set a.skipped v (-1);
  Array.unsafe_set a.chain v (-1);
  v

let add_skip a v code lo hi =
  let s = a.nskips in
  if s + 4 > Array.length a.skips then a.skips <- double a.skips;
  a.skips.(s) <- code;
  a.skips.(s + 1) <- lo;
  a.skips.(s + 2) <- hi;
  a.skips.(s + 3) <- a.skipped.(v);
  a.skipped.(v) <- s;
  a.nskips <- s + 4

(* --- The delta heuristic -------------------------------------------- *)

(* delta.(i) >= v exactly for i <= b_v (see the mli).  The window
   r[i .. b_v - 1] is absent for every i <= b_(v+1) and present above
   it, so one backward search on the forward side, BWT(s), that prepends
   r[b_v - 1], r[b_v - 2], ... first empties its interval at start
   b_(v+1); a search that stays live down to r[1] gives b_(v+1) = 0.
   The next level scans on from b_(v+1) - 1, so no character is
   prepended twice. *)
let delta_heuristic fm ~pattern ~k =
  if k < 0 then invalid_arg "M_tree.delta_heuristic: negative k";
  let m = String.length pattern in
  let codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
  let delta = Array.make (m + 2) 0 in
  let b = ref (m + 1) and v = ref 0 in
  while !b > 0 && !v <= k do
    (* r[1 .. e] is codes.(0 .. e-1). *)
    let e = !b - 1 in
    let b' = e - Fm.longest_left_extension fm codes ~stop:e in
    Array.fill delta (b' + 1) (!b - b') !v;
    b := b';
    incr v
  done;
  Array.fill delta 1 !b !v;
  delta

(* --- Search --------------------------------------------------------- *)

(* When a single-row path leaves the index for the text.  Locating its
   row costs up to sa_rate LF steps, sa_rate / 2 on average (16 and 8 at
   the default rate), each about the cost of one row step, while a text
   step is one packed read.  A path that has lasted the average locate
   cost is most likely an occurrence, and with a full sa_rate of
   pattern left it repays even the longest locate.  On map-mtree's reads
   (k = 2, 100 bp, 4 Mbp) 4/12 and 8/16 measured the same, 2/8 and
   16/16 slower. *)
let text_after = 8
let text_left = 16

let search ?(config = default_config) ?(obs = Obs.noop) fm ~pattern ~k =
  if pattern = "" then invalid_arg "M_tree.search: empty pattern";
  if k < 0 then invalid_arg "M_tree.search: negative k";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c && c = Dna.Alphabet.normalize c) then
        invalid_arg "M_tree.search: pattern must be lowercase acgt")
    pattern;
  let m = String.length pattern in
  (* k >= m is the same query as k = m (see Kmismatch); the clamp also
     keeps the R_ij limit [2k+3] from overflowing. *)
  let k = min k m in
  let n = Fm.length fm in
  if m > n then []
  else begin
    (* R_ij, cached under i*(m+1)+j; the cache is made by the first
       derivation, so searches without one never pay for it. *)
    let rij_limit = (2 * k) + 3 in
    let rij_cache = lazy (Hashtbl.create 16) in
    let rij ~i ~j =
      let cache = Lazy.force rij_cache in
      let key = (i * (m + 1)) + j in
      match Hashtbl.find_opt cache key with
      | Some t -> t
      | None ->
          let t = Mismatch_array.rij pattern ~i ~j ~limit:rij_limit in
          Hashtbl.add cache key t;
          t
    in
    (* The hash key is the interval alone: equal intervals imply equal
       first characters (every row in the interval starts with the node's
       character), so the paper's <x, [lo, hi]> triple packs into one
       integer. *)
    let pack lo hi = (lo * (n + 2)) + hi in
    let store_width = max 1 config.store_width in
    (* delta.(i) lower-bounds the mismatches any window must spend on
       r[i ..]; sound for pruning under *any* alignment at position i. *)
    let delta =
      if config.use_delta then
        Obs.time obs Obs.Hist.mtree_delta_ns (fun () -> delta_heuristic fm ~pattern ~k)
      else Array.make (m + 2) 0
    in
    let pat_codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
    let pat_code d = Array.unsafe_get pat_codes (d - 1) in
    let text = Fm.packed_text fm in
    (* Nothing below raises before the exploration's handler releases the
       arena again. *)
    let a = acquire m in
    let results = ref [] in
    let report lo hi q =
      let cnt = hi - lo in
      let buf = locate_buf a cnt in
      Fm.locate_into fm (lo, hi) buf;
      for i = 0 to cnt - 1 do
        results := (n - Array.unsafe_get buf i - m, q) :: !results
      done
    in
    let is_mismatch v = a.code.(v) <> pat_code a.depth.(v) in
    (* Every extension at depth d writes the depth-d rows: along the DFS
       stack (derivations and resumes included) depths strictly increase,
       so a row is never reused while a caller still reads it. *)
    let los_at d = a.bufs.(2 * d) and his_at d = a.bufs.((2 * d) + 1) in
    let extend_at d lo hi =
      a.n_rank_calls <- a.n_rank_calls + 2;
      Fm.extend_all fm ~lo ~hi ~los:(los_at d) ~his:(his_at d)
    in

    (* --- Derivation -------------------------------------------------- *)
    (* A node [v] at depth [j] repeats the pair of [prior] at depth [i < j].
       The stored subtree below [prior] is walked with the alignment shifted
       by [j - i]: the stored node at depth [d] stands for the derived path
       position [d - i + j].  A stored match node mismatches the derived
       alignment exactly when R_ij has an entry at offset [d - i]. *)
    let rec derive ~prior ~i ~j ~dmiss =
      let d_star = m - j + i in
      (* stored depth at which the derived path completes *)
      let table = if config.chain_skip then rij ~i ~j else [||] in
      let reliable_x =
        if Array.length table < rij_limit then max_int
        else table.(Array.length table - 1)
      in
      let resume code lo hi p q =
        a.n_resumes <- a.n_resumes + 1;
        if hi - lo >= store_width then visit code lo hi p q (-1)
        else explore_light lo hi p q
      in
      let handle_skipped w dmiss =
        let p' = a.depth.(w) + 1 - i + j in
        let rec go s =
          if s >= 0 then begin
            let code = a.skips.(s) and lo = a.skips.(s + 1) and hi = a.skips.(s + 2) in
            let q' = if code = pat_code p' then dmiss else dmiss + 1 in
            if q' <= k && k - q' >= delta.(p' + 1) then resume code lo hi p' q';
            go a.skips.(s + 3)
          end
        in
        go a.skipped.(w)
      in
      (* Walk the subtree *below* [w]; [dmiss] includes [w] itself. *)
      let rec walk_children w dmiss =
        Deadline.poll ();
        if a.depth.(w) = d_star then begin
          a.n_derived_leaves <- a.n_derived_leaves + 1;
          report a.lo.(w) a.hi.(w) dmiss
        end
        else if a.state.(w) = stub then
          (* No stored subtree; fall back to a real search. *)
          resume_below w dmiss
        else if a.child.(w) < 0 && a.skipped.(w) < 0 then
          a.n_derived_leaves <- a.n_derived_leaves + 1
        else begin
          let rec kids c =
            if c >= 0 then begin
              walk c dmiss;
              kids a.sibling.(c)
            end
          in
          kids a.child.(w);
          handle_skipped w dmiss
        end
      (* Resume a real search for all continuations below a stub node. *)
      and resume_below w dmiss =
        let p = a.depth.(w) - i + j in
        extend_at p a.lo.(w) a.hi.(w);
        let los = los_at p and his = his_at p in
        for c = 1 to 4 do
          if los.(c) < his.(c) then begin
            let q' = if c = pat_code (p + 1) then dmiss else dmiss + 1 in
            if q' <= k && k - q' >= delta.(p + 2) then
              resume c los.(c) his.(c) (p + 1) q'
          end
        done
      (* Enter stored node [w]; [dmiss] is the derived count above it. *)
      and walk w dmiss =
        let run = if config.chain_skip then chain_of w else -1 in
        if run >= 0 then walk_chain w run dmiss else walk_plain w dmiss
      (* Jump across the match run at [run] below [w]'s parent edge.  All
         run nodes are stored match nodes, so the derived mismatches inside
         it are exactly the R_ij entries at the run's offsets. *)
      and walk_chain first run dmiss =
        let d_first = a.depth.(first) in
        let last = a.runs.(run + a.runs.(run)) in
        let d_end = min a.depth.(last) d_star in
        let x_first = d_first - i and x_end = d_end - i in
        if x_end > reliable_x then
          (* Beyond the table's reliable horizon: process the run node by
             node with direct comparisons (rare; see interface notes). *)
          walk_plain first dmiss
        else begin
          (* Count R_ij entries with offset in [x_first .. x_end]; the
             budget dies at the (k - dmiss + 1)-th of them. *)
          let len = Array.length table in
          let rec lower lo hi =
            if lo >= hi then lo
            else begin
              let mid = (lo + hi) / 2 in
              if table.(mid) < x_first then lower (mid + 1) hi else lower lo mid
            end
          in
          (* The derived count after the run, or -1 once it exceeds k. *)
          let rec count idx dmiss =
            if idx >= len || table.(idx) > x_end then dmiss
            else if dmiss + 1 > k then -1
            else count (idx + 1) (dmiss + 1)
          in
          let dmiss = count (lower 0 len) dmiss in
          if dmiss < 0 then a.n_derived_leaves <- a.n_derived_leaves + 1
          else if d_star <= a.depth.(last) then begin
            (* The derived path completes inside (or at the end of) the
               run; the node at that depth holds the interval. *)
            a.n_derived_leaves <- a.n_derived_leaves + 1;
            let u = a.runs.(run + 1 + d_star - d_first) in
            report a.lo.(u) a.hi.(u) dmiss
          end
          else walk_children last dmiss
        end
      and walk_plain w dmiss =
        let p = a.depth.(w) - i + j in
        let dmiss = if a.code.(w) = pat_code p then dmiss else dmiss + 1 in
        if dmiss > k || k - dmiss < delta.(p + 1) then
          a.n_derived_leaves <- a.n_derived_leaves + 1
        else walk_children w dmiss
      (* The maximal run of unary, no-skip, stored-match nodes starting at
         [w] itself (when [w] is a match node), memoised on [w]; -1 for a
         mismatch node. *)
      and chain_of w =
        if is_mismatch w then -1
        else if a.chain.(w) >= 0 then a.chain.(w)
        else begin
          let rec length u len =
            let c = a.child.(u) in
            if c >= 0 && a.sibling.(c) < 0 && a.skipped.(u) < 0 && not (is_mismatch c)
            then length c (len + 1)
            else len
          in
          let len = length w 1 in
          let run = a.nruns in
          while run + len + 1 > Array.length a.runs do
            a.runs <- double a.runs
          done;
          a.runs.(run) <- len;
          let rec fill u t =
            a.runs.(run + 1 + t) <- u;
            if t + 1 < len then fill a.child.(u) (t + 1)
          in
          fill w 0;
          a.nruns <- run + len + 1;
          a.chain.(w) <- run;
          run
        end
      in
      a.n_derivations <- a.n_derivations + 1;
      (* [depth prior < d_star] always holds here (j < m), so this walks
         the stored children/skipped branches of [prior] directly. *)
      if Obs.enabled obs then
        Obs.time obs Obs.Hist.mtree_derive_ns (fun () -> walk_children prior dmiss)
      else walk_children prior dmiss

    (* --- Exploration ------------------------------------------------- *)
    (* Store the node <code, [lo, hi]> at depth [j] under [parent] (-1:
       none), then explore or derive below it. *)
    and visit code lo hi j q parent =
      let v = new_node a ~code ~depth:j ~lo ~hi ~miss:q in
      if parent >= 0 then begin
        a.sibling.(v) <- a.child.(parent);
        a.child.(parent) <- v
      end;
      a.n_nodes <- a.n_nodes + 1;
      if j = m then begin
        a.n_leaves <- a.n_leaves + 1;
        report lo hi q
      end
      else begin
        let key = pack lo hi in
        let prior = Int_table.find_or_add a.table key v in
        if prior < 0 then expand v
        else if a.state.(prior) = on_stack then expand v
        else if a.depth.(prior) < j then begin
          a.state.(v) <- stub;
          derive ~prior ~i:a.depth.(prior) ~j ~dmiss:q
        end
        else begin
          (* Keep the shallowest occurrence in the table (the paper's
             "always use the one compared to r[i] with the least i"). *)
          if a.depth.(prior) > j then Int_table.replace a.table key v;
          expand v
        end
      end

    and expand v =
      Deadline.poll ();
      a.state.(v) <- on_stack;
      let d = a.depth.(v) and miss = a.miss.(v) in
      let any_light = ref false in
      extend_at d a.lo.(v) a.hi.(v);
      let los = los_at d and his = his_at d in
      for c = 1 to 4 do
        let lo = los.(c) and hi = his.(c) in
        if lo < hi then begin
          let q' = if c = pat_code (d + 1) then miss else miss + 1 in
          if q' <= k && k - q' >= delta.(d + 2) then begin
            if hi - lo >= store_width then visit c lo hi (d + 1) q' v
            else begin
              (* Narrow interval: its subtree is a near-chain that costs
                 more to materialize than derivation could ever save.
                 Explore it without storing nodes, and record it like a
                 skipped branch so derivations resume it exactly. *)
              add_skip a v c lo hi;
              any_light := true;
              explore_light lo hi (d + 1) q'
            end
          end
          else add_skip a v c lo hi
        end
      done;
      a.state.(v) <- settled;
      (* A light child continues the path, so the node is not a leaf. *)
      if a.child.(v) < 0 && not !any_light then
        a.n_leaves <- a.n_leaves + 1

    (* Allocation-free S-tree exploration of a narrow subtree. *)
    and explore_light lo hi j q =
      Deadline.poll ();
      a.n_nodes <- a.n_nodes + 1;
      if j = m then begin
        a.n_leaves <- a.n_leaves + 1;
        report lo hi q
      end
      else if hi = lo + 1 then follow_row lo j q 0
      else begin
        extend_at j lo hi;
        let los = los_at j and his = his_at j in
        let died = ref true in
        for c = 1 to 4 do
          if los.(c) < his.(c) then begin
            let q' = if c = pat_code (j + 1) then q else q + 1 in
            if q' <= k && k - q' >= delta.(j + 2) then begin
              died := false;
              explore_light los.(c) his.(c) (j + 1) q'
            end
          end
        done;
        if !died then a.n_leaves <- a.n_leaves + 1
      end

    (* The counted node at depth [j < m] whose interval is the one row
       [row], [steps] single-row steps below the node that narrowed to
       it.  Its only possible child is the row's own BWT character at
       the row's LF row; the sentinel row has none.  A path that lasts
       is located once and finished in the text. *)
    and follow_row row j q steps =
      if steps >= text_after && m - j >= text_left then begin
        let buf = locate_buf a 1 in
        buf.(0) <- row;
        Fm.locate_rows fm buf ~len:1;
        follow_text buf.(0) j q
      end
      else begin
        a.n_rank_calls <- a.n_rank_calls + 2;
        let step = Fm.extend_row fm row in
        if step < 0 then a.n_leaves <- a.n_leaves + 1
        else begin
          let c = step land 7 in
          let q' = if c = pat_code (j + 1) then q else q + 1 in
          if q' <= k && k - q' >= delta.(j + 2) then begin
            Deadline.poll ();
            a.n_nodes <- a.n_nodes + 1;
            let row' = step lsr 3 in
            if j + 1 = m then begin
              a.n_leaves <- a.n_leaves + 1;
              report row' (row' + 1) q'
            end
            else follow_row row' (j + 1) q' (steps + 1)
          end
          else a.n_leaves <- a.n_leaves + 1
        end
      end

    (* [follow_row] past the switch: the counted node at depth [j < m]
       is the suffix of the indexed text at [p], so its child is the
       text's character at [p - 1]; at [p = 0] its row is the
       sentinel's.  The same budget and delta tests as a row step, with
       the hit's position from [p]. *)
    and follow_text p j q =
      a.n_rank_calls <- a.n_rank_calls + 2;
      if p = 0 then a.n_leaves <- a.n_leaves + 1
      else begin
        let c = Fmindex.Packed_text.unsafe_get text (p - 1) + 1 in
        let q' = if c = pat_code (j + 1) then q else q + 1 in
        if q' <= k && k - q' >= delta.(j + 2) then begin
          Deadline.poll ();
          a.n_nodes <- a.n_nodes + 1;
          if j + 1 = m then begin
            a.n_leaves <- a.n_leaves + 1;
            results := (n - (p - 1) - m, q') :: !results
          end
          else follow_text (p - 1) (j + 1) q'
        end
        else a.n_leaves <- a.n_leaves + 1
      end
    in

    (* Virtual root: depth 0, full interval (the paper's <-, [1, n+1]>). *)
    let explore () =
      let lo0, hi0 = Fm.whole fm in
      extend_at 0 lo0 hi0;
      let los = los_at 0 and his = his_at 0 in
      for c = 1 to 4 do
        if los.(c) < his.(c) then begin
          let q = if c = pat_code 1 then 0 else 1 in
          if q <= k && k - q >= delta.(2) then begin
            if his.(c) - los.(c) >= store_width then visit c los.(c) his.(c) 1 q (-1)
            else explore_light los.(c) his.(c) 1 q
          end
        end
      done
    in
    match Obs.time obs Obs.Hist.mtree_explore_ns explore with
    | () ->
        record obs a;
        a.busy <- false;
        List.sort Hit.compare !results
    | exception e ->
        a.busy <- false;
        raise e
  end
