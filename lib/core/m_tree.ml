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
  Int_table.clear a.table;
  if Array.length a.bufs < 2 * m then
    a.bufs <- Array.init (2 * m) (fun _ -> Array.make Dna.Alphabet.sigma 0);
  a

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

(* --- Search --------------------------------------------------------- *)

let search ?(config = default_config) ?stats ?(obs = Obs.noop) fm ~pattern ~k =
  if pattern = "" then invalid_arg "M_tree.search: empty pattern";
  if k < 0 then invalid_arg "M_tree.search: negative k";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c && c = Dna.Alphabet.normalize c) then
        invalid_arg "M_tree.search: pattern must be lowercase acgt")
    pattern;
  let m = String.length pattern in
  (* k >= m is the same query as k = m (see Kmismatch); the clamp also
     keeps [2k+3] and the R-array limit [k+2] from overflowing. *)
  let k = min k m in
  let n = Fm.length fm in
  let bump (f : Stats.t -> unit) = match stats with Some s -> f s | None -> () in
  if m > n then []
  else begin
    (* R_ij, cached under i*(m+1)+j; the pattern's LCE structure is built
       by the first derivation, so searches without one never pay for it. *)
    let rij_limit = (2 * k) + 3 in
    let rij_state = lazy (Mismatch_array.build pattern ~k, Hashtbl.create 16) in
    let rij ~i ~j =
      let mi, cache = Lazy.force rij_state in
      let key = (i * (m + 1)) + j in
      match Hashtbl.find_opt cache key with
      | Some t -> t
      | None ->
          let t = Mismatch_array.pairwise_lce mi ~i ~j ~limit:rij_limit in
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
        Obs.span obs "mtree.delta" (fun () -> S_tree.delta_heuristic fm ~pattern ~k)
      else Array.make (m + 2) 0
    in
    let pat_codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
    let pat_code d = Array.unsafe_get pat_codes (d - 1) in
    (* Nothing below raises before the exploration's handler releases the
       arena again. *)
    let a = acquire m in
    let results = ref [] in
    let report lo hi q =
      let cnt = hi - lo in
      if Array.length a.locate_buf < cnt then a.locate_buf <- Array.make cnt 0;
      let buf = a.locate_buf in
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
      bump (fun s -> s.rank_calls <- s.rank_calls + 2);
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
        bump (fun s -> s.resumes <- s.resumes + 1);
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
          bump (fun s -> s.derived_leaves <- s.derived_leaves + 1);
          report a.lo.(w) a.hi.(w) dmiss
        end
        else if a.state.(w) = stub then
          (* No stored subtree; fall back to a real search. *)
          resume_below w dmiss
        else if a.child.(w) < 0 && a.skipped.(w) < 0 then
          bump (fun s -> s.derived_leaves <- s.derived_leaves + 1)
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
          if dmiss < 0 then bump (fun s -> s.derived_leaves <- s.derived_leaves + 1)
          else if d_star <= a.depth.(last) then begin
            (* The derived path completes inside (or at the end of) the
               run; the node at that depth holds the interval. *)
            bump (fun s -> s.derived_leaves <- s.derived_leaves + 1);
            let u = a.runs.(run + 1 + d_star - d_first) in
            report a.lo.(u) a.hi.(u) dmiss
          end
          else walk_children last dmiss
        end
      and walk_plain w dmiss =
        let p = a.depth.(w) - i + j in
        let dmiss = if a.code.(w) = pat_code p then dmiss else dmiss + 1 in
        if dmiss > k || k - dmiss < delta.(p + 1) then
          bump (fun s -> s.derived_leaves <- s.derived_leaves + 1)
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
      bump (fun s -> s.derivations <- s.derivations + 1);
      (* [depth prior < d_star] always holds here (j < m), so this walks
         the stored children/skipped branches of [prior] directly. *)
      if Obs.enabled obs then
        Obs.time obs "mtree.derive" (fun () -> walk_children prior dmiss)
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
      bump (fun s -> s.nodes <- s.nodes + 1);
      if j = m then begin
        bump (fun s -> s.leaves <- s.leaves + 1);
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
        bump (fun s -> s.leaves <- s.leaves + 1)

    (* Allocation-free S-tree exploration of a narrow subtree. *)
    and explore_light lo hi j q =
      Deadline.poll ();
      bump (fun s -> s.nodes <- s.nodes + 1);
      if j = m then begin
        bump (fun s -> s.leaves <- s.leaves + 1);
        report lo hi q
      end
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
        if !died then bump (fun s -> s.leaves <- s.leaves + 1)
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
    match Obs.span obs "mtree.explore" explore with
    | () ->
        a.busy <- false;
        List.sort Hit.compare !results
    | exception e ->
        a.busy <- false;
        raise e
  end
