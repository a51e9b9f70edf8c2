module St = Suffix.Suffix_tree

let search ?(obs = Obs.noop) tree ~pattern ~k =
  if pattern = "" then invalid_arg "Cole.search: empty pattern";
  if k < 0 then invalid_arg "Cole.search: negative k";
  let m = String.length pattern in
  let k = min k m in
  (* budgets beyond m behave exactly like k = m *)
  let text = St.text tree in
  let nodes = ref 0 and leaves = ref 0 in
  let results = ref [] in
  let report node q =
    (* Every leaf below the locus starts an occurrence of the (mutated)
       window; the sentinel guarantees the window fits in the text. *)
    List.iter (fun p -> results := (p, q) :: !results) (St.leaves_below tree node)
  in
  (* [descend node off i q]: [off] characters of the edge into [node] are
     consumed, [i] pattern characters matched so far, [q] mismatches. *)
  let rec descend node off i q =
    Deadline.poll ();
    if i = m then begin
      incr leaves;
      report node q
    end
    else begin
      let start, len = St.edge tree node in
      if off < len then begin
        let c = text.[start + off] in
        (* The sentinel marks the end of the text: no window can cross
           it. *)
        if c <> '$' then begin
          let q' = if c = pattern.[i] then q else q + 1 in
          if q' <= k then descend node (off + 1) (i + 1) q'
          else incr leaves
        end
      end
      else begin
        List.iter
          (fun (c, child) ->
            if c <> '$' then begin
              incr nodes;
              descend child 0 i q
            end)
          (St.children tree node)
      end
    end
  in
  descend (St.root tree) 0 0 0;
  Obs.add obs Obs.Counter.engine_nodes !nodes;
  Obs.add obs Obs.Counter.engine_leaves !leaves;
  List.sort Hit.compare !results
