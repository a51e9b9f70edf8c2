type t = {
  r : string;
  k : int;
  tables : int array array Lazy.t;
      (* R_1 .. R_{m-1}, built on first use: only [shift_table] and
         [derive] read them, while the M-tree engine needs the LCE alone *)
  lce : Suffix.Lce.t;
}

(* First [limit] mismatch positions x (1-based, x <= ov) between
   r[i+1 ..] and r[j+1 ..], scanning from [from], found with O(1) LCE
   jumps. *)
let kangaroo_from lce ~i ~j ~ov ~from ~limit =
  let rec go x acc count =
    if count >= limit || x > ov then List.rev acc
    else begin
      let l = Suffix.Lce.lce lce (i + x - 1) (j + x - 1) in
      let mis = x + l in
      if mis > ov then List.rev acc else go (mis + 1) (mis :: acc) (count + 1)
    end
  in
  go from [] 0

let build r ~k =
  if r = "" then invalid_arg "Mismatch_array.build: empty pattern";
  if k < 0 then invalid_arg "Mismatch_array.build: negative k";
  let m = String.length r in
  (* An overlap holds at most m mismatches, so any k >= m stores the
     complete R arrays; clamping keeps the k+2 limit overflow-safe. *)
  let k = min k m in
  let lce = Suffix.Lce.make r in
  let tables =
    lazy
      (Array.init m (fun i ->
           if i = 0 then [||]
           else
             Array.of_list
               (kangaroo_from lce ~i:0 ~j:i ~ov:(m - i) ~from:1 ~limit:(k + 2))))
  in
  { r; k; tables; lce }

let shift_table t i =
  if i < 0 || i >= String.length t.r then
    invalid_arg "Mismatch_array.shift_table: shift out of range";
  (Lazy.force t.tables).(i)

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

let merge ~a1 ~a2 ~beta ~gamma ~limit =
  let n1 = Array.length a1 and n2 = Array.length a2 in
  let out = ref [] and emitted = ref 0 in
  let emit pos =
    out := pos :: !out;
    incr emitted
  in
  let rec go p q =
    if !emitted >= limit then ()
    else if p >= n1 && q >= n2 then ()
    else if q >= n2 || (p < n1 && a1.(p) < a2.(q)) then begin
      (* alpha <> beta and alpha = gamma there, hence beta <> gamma. *)
      emit a1.(p);
      go (p + 1) q
    end
    else if p >= n1 || a2.(q) < a1.(p) then begin
      emit a2.(q);
      go p (q + 1)
    end
    else begin
      (* Both disagree with alpha at this position: compare directly. *)
      if beta a1.(p) <> gamma a1.(p) then emit a1.(p);
      go (p + 1) (q + 1)
    end
  in
  go 0 0;
  Array.of_list (List.rev !out)

let pairwise_lce t ~i ~j ~limit =
  let m = String.length t.r in
  if i < 0 || j < 0 || i >= m || j >= m then
    invalid_arg "Mismatch_array.pairwise_lce: shift out of range";
  let ov = m - max i j in
  Array.of_list (kangaroo_from t.lce ~i ~j ~ov ~from:1 ~limit)

let derive t ~i ~j =
  let m = String.length t.r in
  if not (0 <= i && i < j && j <= m - 1) then
    invalid_arg "Mismatch_array.derive: need 0 <= i < j <= m-1";
  let limit = t.k + 2 in
  let ov = m - j in
  let tables = Lazy.force t.tables in
  let a1 = tables.(i) and a2 = tables.(j) in
  (* A truncated table is only complete up to its last entry; cap the merge
     at the smaller reliable horizon and finish with direct LCE jumps. *)
  let horizon a len_a =
    if Array.length a < limit then len_a else min len_a a.(Array.length a - 1)
  in
  let reliable = min ov (min (horizon a1 (m - i)) (horizon a2 (m - j))) in
  let keep a = Array.of_list (List.filter (fun x -> x <= reliable) (Array.to_list a)) in
  let beta x = t.r.[i + x - 1] and gamma x = t.r.[j + x - 1] in
  let merged = merge ~a1:(keep a1) ~a2:(keep a2) ~beta ~gamma ~limit in
  let n_merged = Array.length merged in
  if n_merged >= limit || reliable >= ov then merged
  else begin
    let tail =
      kangaroo_from t.lce ~i ~j ~ov ~from:(reliable + 1) ~limit:(limit - n_merged)
    in
    Array.append merged (Array.of_list tail)
  end
