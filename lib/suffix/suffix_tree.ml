(* Ukkonen's algorithm.  The construction follows the classic active-point
   formulation: one phase per text position, each phase inserting the
   pending suffixes (tracked by [remainder]) until a suffix is found to be
   already present.  Leaf edges share a global end that is frozen after the
   last phase. *)

type node = {
  id : int;
  mutable start : int;
  mutable last : int;  (* inclusive end; [global_end] while building a leaf *)
  children : (char, node) Hashtbl.t;
  mutable slink : node option;
  mutable suffix_index : int;  (* -1 on internal nodes *)
}

type t = { s : string; root_node : node; node_count : int }

let global_end = max_int

let build input =
  if String.contains input '$' then
    invalid_arg "Suffix_tree.build: input must not contain '$'";
  let s = input ^ "$" in
  let n = String.length s in
  let next_id = ref 0 in
  let new_node start last =
    let node =
      {
        id = !next_id;
        start;
        last;
        children = Hashtbl.create 4;
        slink = None;
        suffix_index = -1;
      }
    in
    incr next_id;
    node
  in
  let root = new_node (-1) (-1) in
  let active_node = ref root in
  let active_edge = ref 0 in
  let active_length = ref 0 in
  let remainder = ref 0 in
  let leaf_end = ref (-1) in
  let edge_length node =
    (if node.last = global_end then !leaf_end else node.last) - node.start + 1
  in
  let extend i =
    leaf_end := i;
    incr remainder;
    let last_new = ref None in
    let link_pending target =
      (match !last_new with Some u -> u.slink <- Some target | None -> ());
      last_new := None
    in
    let finished = ref false in
    while !remainder > 0 && not !finished do
      if !active_length = 0 then active_edge := i;
      match Hashtbl.find_opt !active_node.children s.[!active_edge] with
      | None ->
          let leaf = new_node i global_end in
          Hashtbl.replace !active_node.children s.[!active_edge] leaf;
          link_pending !active_node;
          decr remainder;
          if !active_node == root && !active_length > 0 then begin
            decr active_length;
            active_edge := i - !remainder + 1
          end
          else if !active_node != root then
            active_node :=
              (match !active_node.slink with Some u -> u | None -> root)
      | Some next ->
          let el = edge_length next in
          if !active_length >= el then begin
            (* Walk down; does not consume a suffix. *)
            active_edge := !active_edge + el;
            active_length := !active_length - el;
            active_node := next
          end
          else if s.[next.start + !active_length] = s.[i] then begin
            (* Suffix already present: end the phase. *)
            link_pending !active_node;
            incr active_length;
            finished := true
          end
          else begin
            let split = new_node next.start (next.start + !active_length - 1) in
            Hashtbl.replace !active_node.children s.[!active_edge] split;
            let leaf = new_node i global_end in
            Hashtbl.replace split.children s.[i] leaf;
            next.start <- next.start + !active_length;
            Hashtbl.replace split.children s.[next.start] next;
            (match !last_new with Some u -> u.slink <- Some split | None -> ());
            last_new := Some split;
            decr remainder;
            if !active_node == root && !active_length > 0 then begin
              decr active_length;
              active_edge := i - !remainder + 1
            end
            else if !active_node != root then
              active_node :=
                (match !active_node.slink with Some u -> u | None -> root)
          end
    done
  in
  (* One poll per phase and per finalized node: an offline query that
     forces the build can be cut by its deadline like its search. *)
  for i = 0 to n - 1 do
    Deadline.poll ();
    extend i
  done;
  (* Freeze leaf ends and assign suffix indices by depth-first traversal. *)
  let rec finalize node depth =
    Deadline.poll ();
    if node.last = global_end then node.last <- n - 1;
    let len = if node == root then 0 else node.last - node.start + 1 in
    let depth = depth + len in
    if Hashtbl.length node.children = 0 then node.suffix_index <- n - depth
    else Hashtbl.iter (fun _ child -> finalize child depth) node.children
  in
  finalize root 0;
  { s; root_node = root; node_count = !next_id }

let text t = t.s
let root t = t.root_node
let is_leaf node = Hashtbl.length node.children = 0

let edge t node =
  if node == t.root_node then (0, 0) else (node.start, node.last - node.start + 1)

let children _t node =
  Hashtbl.fold (fun c child acc -> (c, child) :: acc) node.children []
  |> List.sort (fun (a, _) (b, _) -> Char.compare a b)

let find_child _t node c = Hashtbl.find_opt node.children c

let leaves_below _t node =
  let acc = ref [] in
  let rec go u =
    if is_leaf u then acc := u.suffix_index :: !acc
    else Hashtbl.iter (fun _ v -> go v) u.children
  in
  go node;
  !acc

let count_nodes t = t.node_count

let contains t pat =
  let s = t.s in
  let m = String.length pat in
  let rec walk node i =
    if i >= m then true
    else
      match Hashtbl.find_opt node.children pat.[i] with
      | None -> false
      | Some child ->
          let len = child.last - child.start + 1 in
          let rec scan d =
            if d >= len || i + d >= m then d
            else if s.[child.start + d] = pat.[i + d] then scan (d + 1)
            else -1
          in
          let d = scan 0 in
          if d < 0 then false
          else if i + d >= m then true
          else walk child (i + d)
  in
  walk t.root_node 0
