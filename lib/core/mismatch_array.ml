type t = { m : int; lce : Suffix.Lce.t }

let build r =
  if r = "" then invalid_arg "Mismatch_array.build: empty pattern";
  { m = String.length r; lce = Suffix.Lce.make r }

let pairwise_lce t ~i ~j ~limit =
  let m = t.m in
  if i < 0 || j < 0 || i >= m || j >= m then
    invalid_arg "Mismatch_array.pairwise_lce: shift out of range";
  let ov = m - max i j in
  (* Each jump lands on the next mismatch x (1-based, x <= ov). *)
  let rec go x acc count =
    if count >= limit || x > ov then List.rev acc
    else begin
      let mis = x + Suffix.Lce.lce t.lce (i + x - 1) (j + x - 1) in
      if mis > ov then List.rev acc else go (mis + 1) (mis :: acc) (count + 1)
    end
  in
  Array.of_list (go 1 [] 0)

let naive_pairwise a b ~limit =
  if String.length a <> String.length b then
    invalid_arg "Mismatch_array.naive_pairwise: length mismatch";
  let acc = ref [] and count = ref 0 in
  let i = ref 0 in
  while !i < String.length a && !count < limit do
    if a.[!i] <> b.[!i] then begin
      acc := (!i + 1) :: !acc;
      incr count
    end;
    incr i
  done;
  Array.of_list (List.rev !acc)
