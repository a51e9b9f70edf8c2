module Fm = Fmindex.Fm_index

type node = {
  label : [ `Match | `Mismatch of char * int ];
  children : node list;
}

type path = { mismatches : int list; complete : bool; occurrences : int list }
type t = { root : node; paths : path list }

(* Mutable builder mirror of [node]. *)
type bnode = {
  blabel : [ `Match | `Mismatch of char * int ];
  mutable bchildren : bnode list;
}

let rec freeze b =
  { label = b.blabel; children = List.rev_map freeze b.bchildren |> List.rev }

let build fm ~pattern ~k =
  if pattern = "" then invalid_arg "Mismatch_tree.build: empty pattern";
  if k < 0 then invalid_arg "Mismatch_tree.build: negative k";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c && c = Dna.Alphabet.normalize c) then
        invalid_arg "Mismatch_tree.build: pattern must be lowercase acgt")
    pattern;
  let m = String.length pattern in
  let n = Fm.length fm in
  let root = { blabel = `Match; bchildren = [] } in
  let paths = ref [] in
  let record ?(interval = None) misms complete =
    let occurrences =
      match interval with
      | Some ((lo, hi) as iv) ->
          let buf = Array.make (hi - lo) 0 in
          Fm.locate_into fm iv buf;
          (* Rows index FM(rev s): translate suffix positions of the
             reversed text into window starts in s. *)
          for i = 0 to hi - lo - 1 do
            buf.(i) <- n - buf.(i) - m
          done;
          Array.sort Int.compare buf;
          Array.to_list buf
      | None -> []
    in
    paths := { mismatches = List.rev misms; complete; occurrences } :: !paths
  in
  (* The paper's process: extend the path character by character; the
     temporary array B fills with mismatch positions and the path is
     stored either when the pattern is exhausted or when B becomes full
     (k+1 entries). *)
  let rec explore iv j misms count dnode =
    if j = m then record ~interval:(Some iv) misms true
    else begin
      let los = Array.make 5 0 and his = Array.make 5 0 in
      let lo, hi = iv in
      Fm.extend_all fm ~lo ~hi ~los ~his;
      let extended = ref false in
      for c = 1 to 4 do
        if los.(c) < his.(c) then begin
          let ch = Dna.Alphabet.of_code c in
          let iv' = (los.(c), his.(c)) in
          if ch = pattern.[j] then begin
            extended := true;
            (* Matching node: merge into a [`Match] parent (Def. 4). *)
            let dnode' =
              match dnode.blabel with
              | `Match -> dnode
              | `Mismatch _ ->
                  let fresh = { blabel = `Match; bchildren = [] } in
                  dnode.bchildren <- fresh :: dnode.bchildren;
                  fresh
            in
            explore iv' (j + 1) misms count dnode'
          end
          else if count < k + 1 then begin
            extended := true;
            let fresh = { blabel = `Mismatch (ch, j + 1); bchildren = [] } in
            dnode.bchildren <- fresh :: dnode.bchildren;
            let misms' = (j + 1) :: misms in
            if count + 1 = k + 1 then
              (* B is full: store it and backtrack (paper SS:IV.A). *)
              record misms' false
            else explore iv' (j + 1) misms' (count + 1) fresh
          end
        end
      done;
      if not !extended then record misms false
    end
  in
  explore (Fm.whole fm) 0 [] 0 root;
  { root = freeze root; paths = List.rev !paths }

let rec count_nodes node = 1 + List.fold_left (fun a c -> a + count_nodes c) 0 node.children

let leaves t = List.length t.paths

let pp ppf root =
  let rec go indent node =
    (match node.label with
    | `Match -> Format.fprintf ppf "%s<-, 0>@," indent
    | `Mismatch (c, i) -> Format.fprintf ppf "%s<%c, %d>@," indent c i);
    List.iter (go (indent ^ "  ")) node.children
  in
  Format.pp_open_vbox ppf 0;
  go "" root;
  Format.pp_close_box ppf ()
