let rij r ~i ~j ~limit =
  let m = String.length r in
  if i < 0 || j < 0 || i >= m || j >= m then
    invalid_arg "Mismatch_array.rij: shift out of range";
  let ov = m - max i j in
  let found = Array.make (max 0 (min limit ov)) 0 in
  (* Compare the overlap left to right; x is 1-based within it. *)
  let rec go x count =
    if count = Array.length found || x > ov then count
    else if String.unsafe_get r (i + x - 1) <> String.unsafe_get r (j + x - 1) then begin
      found.(count) <- x;
      go (x + 1) (count + 1)
    end
    else go (x + 1) count
  in
  let count = go 1 0 in
  if count = Array.length found then found else Array.sub found 0 count

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
