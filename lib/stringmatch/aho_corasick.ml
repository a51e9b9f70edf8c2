type node = {
  id : int;
  children : (char, node) Hashtbl.t;
  mutable fail : node option;  (* None only before BFS / at the root *)
  mutable out : (int * int) list;  (* (pattern index, pattern length) *)
}

type t = { root : node; n_states : int }

let build patterns =
  Array.iter
    (fun p -> if p = "" then invalid_arg "Aho_corasick.build: empty pattern")
    patterns;
  let next_id = ref 0 in
  let new_node () =
    let node =
      { id = !next_id; children = Hashtbl.create 4; fail = None; out = [] }
    in
    incr next_id;
    node
  in
  let root = new_node () in
  Array.iteri
    (fun idx p ->
      let node = ref root in
      String.iter
        (fun c ->
          match Hashtbl.find_opt !node.children c with
          | Some child -> node := child
          | None ->
              let child = new_node () in
              Hashtbl.replace !node.children c child;
              node := child)
        p;
      !node.out <- (idx, String.length p) :: !node.out)
    patterns;
  (* Breadth-first failure links; outputs are merged down the links. *)
  let queue = Queue.create () in
  Hashtbl.iter
    (fun _c child ->
      child.fail <- Some root;
      Queue.add child queue)
    root.children;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Hashtbl.iter
      (fun c child ->
        let rec resolve f =
          match Hashtbl.find_opt f.children c with
          | Some s -> s
          | None -> ( match f.fail with None -> f | Some f' -> resolve f')
        in
        let target = resolve (Option.get u.fail) in
        let target = if target == child then root else target in
        child.fail <- Some target;
        child.out <- child.out @ target.out;
        Queue.add child queue)
      u.children
  done;
  { root; n_states = !next_id }

let step t node c =
  let rec go u =
    match Hashtbl.find_opt u.children c with
    | Some v -> v
    | None -> ( match u.fail with None -> t.root | Some f -> go f)
  in
  go node

let scan t text ~f =
  let state = ref t.root in
  String.iteri
    (fun i c ->
      Deadline.poll ();
      state := step t !state c;
      List.iter
        (fun (pattern, len) -> f ~pattern ~pos:(i - len + 1))
        !state.out)
    text

let find_all t text =
  let acc = ref [] in
  scan t text ~f:(fun ~pattern ~pos -> acc := (pattern, pos) :: !acc);
  List.rev !acc
