(* A dense automaton over the four lane codes.  State 0 is the root;
   [delta.(4 s + c)] is the state after reading code [c] in state [s],
   with the failure links already folded in, so a text character costs
   one load.  [outs.(s)] lists the patterns ending in state [s], those
   of its failure chain included. *)
type t = { delta : int array; outs : int array array; lens : int array }

let code c =
  match Fmindex.Packed_text.code_of_base c with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Aho_corasick.build: %C is not a base" c)

let build patterns =
  (* The trie has at most one state per pattern character, plus the
     root; -1 marks an edge the breadth-first pass below fills in. *)
  let cap =
    Array.fold_left
      (fun acc p ->
        if p = "" then invalid_arg "Aho_corasick.build: empty pattern";
        acc + String.length p)
      1 patterns
  in
  let delta = Array.make (4 * cap) (-1) and ends = Array.make cap [] and n = ref 1 in
  Array.iteri
    (fun j p ->
      let s =
        String.fold_left
          (fun s c ->
            let e = (4 * s) + code c in
            if delta.(e) < 0 then begin
              delta.(e) <- !n;
              incr n
            end;
            delta.(e))
          0 p
      in
      ends.(s) <- j :: ends.(s))
    patterns;
  let n = !n in
  (* Breadth first, a state's failure target is complete before the
     state is visited: a missing edge takes the failure target's, and
     the outputs are the state's own followed by its failure target's.
     [order] doubles as the queue. *)
  let fail = Array.make n 0 and order = Array.make n 0 and tail = ref 1 in
  for head = 0 to n - 1 do
    let s = order.(head) in
    if s > 0 then ends.(s) <- ends.(s) @ ends.(fail.(s));
    for c = 0 to 3 do
      let e = (4 * s) + c and f = if s = 0 then 0 else delta.((4 * fail.(s)) + c) in
      if delta.(e) < 0 then delta.(e) <- f
      else begin
        fail.(delta.(e)) <- f;
        order.(!tail) <- delta.(e);
        incr tail
      end
    done
  done;
  (* the slots past state n - 1 are never reached *)
  { delta; outs = Array.map Array.of_list ends; lens = Array.map String.length patterns }

(* Text characters between two deadline polls. *)
let poll_chunk = 1024

let scan t ptext ~f =
  let n = Fmindex.Packed_text.length ptext in
  let s = ref 0 in
  for chunk = 0 to (n - 1) / poll_chunk do
    Deadline.poll ();
    for p = chunk * poll_chunk to min n ((chunk + 1) * poll_chunk) - 1 do
      s := t.delta.((!s lsl 2) lor Fmindex.Packed_text.unsafe_get ptext p);
      let o = t.outs.(!s) in
      for x = 0 to Array.length o - 1 do
        f ~pattern:o.(x) ~pos:(p - t.lens.(o.(x)) + 1)
      done
    done
  done
