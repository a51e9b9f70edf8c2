type t = { s : string; rank : int array; rmq : Rmq.t }

let make s =
  let sa = Suffix_array.build s in
  let rank = Suffix_array.rank_of sa in
  let h = Lcp.of_suffix_array s sa in
  { s; rank; rmq = Rmq.make h }

let lce t i j =
  let n = String.length t.s in
  if i < 0 || j < 0 || i > n || j > n then
    invalid_arg "Lce.lce: index out of range";
  if i = j then n - i
  else if i = n || j = n then 0
  else begin
    let ri = t.rank.(i) and rj = t.rank.(j) in
    let lo = min ri rj and hi = max ri rj in
    Rmq.min_in t.rmq (lo + 1) hi
  end
