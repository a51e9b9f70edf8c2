(* SA-IS (Nong, Zhang & Chan 2009): induced sorting of LMS substrings with a
   recursive call on the reduced string when LMS names are not yet unique.

   One lean core serves every caller.  The suffix array is sorted in
   32-bit cells outside the OCaml heap, 4 bytes per symbol.  Level 0
   reads either a byte string of symbol codes (the DNA entry point:
   sentinel 0, bases 1..4) or a cell array (the byte-alphabet [build]);
   every deeper level reads the reduced string of LMS names, which lives
   in the upper part of the caller's SA.  Suffix types take one byte each
   (1 = S-type), LMS names are written into the SA's upper half (LMS
   positions are at least two apart, so [pos / 2] is a unique slot), and
   a level allocates nothing beyond its type bytes and two bucket
   arrays. *)

type cells = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Every position, name and the -1 marker fit a cell below this length. *)
let max_length = 0x7fff_fffe

let[@inline] get (a : cells) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline] set (a : cells) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)
let fill (a : cells) pos len v =
  Bigarray.Array1.fill (Bigarray.Array1.sub a pos len) (Int32.of_int v)

let create_cells n : cells = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

type text = Codes of Bytes.t | Cells of cells * int
(* [Cells (a, off)]: symbol [i] is [a.{off + i}]. *)

let[@inline] chr s i =
  match s with
  | Codes b -> Char.code (Bytes.unsafe_get b i)
  | Cells (a, off) -> get a (off + i)

let[@inline] is_s ty i = Bytes.unsafe_get ty i <> '\000'
let[@inline] is_lms ty i = i > 0 && is_s ty i && not (is_s ty (i - 1))

let bucket_heads cnt bkt =
  let sum = ref 0 in
  for c = 0 to Array.length cnt - 1 do
    bkt.(c) <- !sum;
    sum := !sum + cnt.(c)
  done

let bucket_tails cnt bkt =
  let sum = ref 0 in
  for c = 0 to Array.length cnt - 1 do
    sum := !sum + cnt.(c);
    bkt.(c) <- !sum
  done

(* Push [j] onto the front (L) or back (S) of its bucket. *)
let[@inline] push_head s sa bkt j =
  let c = chr s j in
  let p = Array.unsafe_get bkt c in
  set sa p j;
  Array.unsafe_set bkt c (p + 1)

let[@inline] push_tail s sa bkt j =
  let c = chr s j in
  let p = Array.unsafe_get bkt c - 1 in
  set sa p j;
  Array.unsafe_set bkt c p

(* Given the LMS suffixes at their bucket tails, induce L-types left to
   right, then S-types right to left. *)
let induce s ty sa n cnt bkt =
  bucket_heads cnt bkt;
  for i = 0 to n - 1 do
    let j = get sa i - 1 in
    if j >= 0 && not (is_s ty j) then push_head s sa bkt j
  done;
  bucket_tails cnt bkt;
  for i = n - 1 downto 0 do
    let j = get sa i - 1 in
    if j >= 0 && is_s ty j then push_tail s sa bkt j
  done

(* Whether the LMS substrings at [a] and [b] are equal (symbols and
   types), comparing from offset [d].  The unique sentinel stops every
   comparison before the end of the text. *)
let rec same_lms s ty a b d =
  let a' = a + d and b' = b + d in
  if chr s a' <> chr s b' || is_s ty a' <> is_s ty b' then false
  else if d > 0 && is_lms ty a' then true
  else same_lms s ty a b (d + 1)

(* [sais s n sigma sa] writes the suffix array of [s.[0 .. n-1]] into
   [sa.{0 .. n-1}]; [s] ends with a unique, smallest sentinel 0 and every
   symbol is below [sigma]. *)
let rec sais s n sigma sa =
  if n = 1 then set sa 0 0
  else begin
    let ty = Bytes.make n '\000' in
    Bytes.unsafe_set ty (n - 1) '\001';
    for i = n - 3 downto 0 do
      let a = chr s i and b = chr s (i + 1) in
      if a < b || (a = b && is_s ty (i + 1)) then Bytes.unsafe_set ty i '\001'
    done;
    let cnt = Array.make sigma 0 in
    for i = 0 to n - 1 do
      let c = chr s i in
      Array.unsafe_set cnt c (Array.unsafe_get cnt c + 1)
    done;
    let bkt = Array.make sigma 0 in
    (* Stage 1: induce from the LMS positions in text order, which sorts
       the LMS substrings; compact them into sa.{0 .. n1-1}. *)
    fill sa 0 n (-1);
    bucket_tails cnt bkt;
    for i = 1 to n - 1 do
      if is_lms ty i then push_tail s sa bkt i
    done;
    induce s ty sa n cnt bkt;
    let n1 = ref 0 in
    for i = 0 to n - 1 do
      let p = get sa i in
      if is_lms ty p then begin
        set sa !n1 p;
        incr n1
      end
    done;
    let n1 = !n1 in
    (* Name the LMS substrings (equal substrings share a name) into the
       upper half, then gather the names in text order at the top: the
       reduced string, ending in the sentinel's unique name 0. *)
    fill sa n1 (n - n1) (-1);
    let names = ref 0 and prev = ref (-1) in
    for i = 0 to n1 - 1 do
      let pos = get sa i in
      if !prev < 0 || not (same_lms s ty !prev pos 0) then begin
        incr names;
        prev := pos
      end;
      set sa (n1 + (pos / 2)) (!names - 1)
    done;
    let j = ref (n - 1) in
    for i = n - 1 downto n1 do
      let v = get sa i in
      if v >= 0 then begin
        set sa !j v;
        decr j
      end
    done;
    (* Stage 2: order the LMS suffixes.  Unique names mean sa.{0 .. n1-1}
       already is that order; otherwise recurse on the reduced string and
       map its suffix array back to text positions. *)
    if !names < n1 then begin
      let off = n - n1 in
      sais (Cells (sa, off)) n1 !names sa;
      let j = ref off in
      for i = 1 to n - 1 do
        if is_lms ty i then begin
          set sa !j i;
          incr j
        end
      done;
      for i = 0 to n1 - 1 do
        set sa i (get sa (off + get sa i))
      done
    end;
    (* Stage 3: seed the bucket tails with the sorted LMS suffixes (back
       to front, so each lands at or past its current slot) and induce
       the full order. *)
    fill sa n1 (n - n1) (-1);
    bucket_tails cnt bkt;
    for i = n1 - 1 downto 0 do
      let p = get sa i in
      set sa i (-1);
      push_tail s sa bkt p
    done;
    induce s ty sa n cnt bkt
  end

(* The core reads and writes unchecked, so its precondition is checked
   here, once, for every caller-supplied string. *)
let sais_codes codes ~sigma =
  let n = Bytes.length codes in
  if n > max_length then
    invalid_arg
      (Printf.sprintf "Suffix_array.sais_codes: %d symbols exceed the 32-bit limit of %d" n
         max_length);
  let bad () =
    invalid_arg "Suffix_array.sais_codes: codes must end in a unique 0 below sigma"
  in
  if n = 0 || sigma > 256 || Bytes.get codes (n - 1) <> '\000' then bad ();
  for i = 0 to n - 2 do
    let c = Char.code (Bytes.unsafe_get codes i) in
    if c = 0 || c >= sigma then bad ()
  done;
  let sa = create_cells n in
  sais (Codes codes) n sigma sa;
  sa

let build s =
  let n = String.length s in
  if n = 0 then [||]
  else begin
    if n >= max_length then
      invalid_arg
        (Printf.sprintf "Suffix_array.build: %d bytes exceed the 32-bit limit of %d" n
           (max_length - 1));
    let codes = create_cells (n + 1) in
    for i = 0 to n - 1 do
      set codes i (Char.code s.[i] + 1)
    done;
    set codes n 0;
    let sa = create_cells (n + 1) in
    sais (Cells (codes, 0)) (n + 1) 257 sa;
    (* Drop the sentinel suffix (always first). *)
    Array.init n (fun i -> get sa (i + 1))
  end

let build_doubling s =
  let n = String.length s in
  if n = 0 then [||]
  else begin
    let sa = Array.init n (fun i -> i) in
    let rank = Array.init n (fun i -> Char.code s.[i]) in
    let tmp = Array.make n 0 in
    let k = ref 1 in
    let continue = ref (n > 1) in
    while !continue do
      let key i = (rank.(i), if i + !k < n then rank.(i + !k) else -1) in
      Array.sort (fun a b -> compare (key a) (key b)) sa;
      tmp.(sa.(0)) <- 0;
      for i = 1 to n - 1 do
        tmp.(sa.(i)) <-
          (tmp.(sa.(i - 1)) + if key sa.(i - 1) = key sa.(i) then 0 else 1)
      done;
      Array.blit tmp 0 rank 0 n;
      if rank.(sa.(n - 1)) = n - 1 then continue := false;
      k := !k * 2
    done;
    sa
  end

let build_naive s =
  let n = String.length s in
  let sa = Array.init n (fun i -> i) in
  let suffix i = String.sub s i (n - i) in
  Array.sort (fun a b -> compare (suffix a) (suffix b)) sa;
  sa

let rank_of sa =
  let rank = Array.make (Array.length sa) 0 in
  Array.iteri (fun i p -> rank.(p) <- i) sa;
  rank

let is_valid s sa =
  let n = String.length s in
  Array.length sa = n
  && begin
       let seen = Array.make n false in
       Array.for_all
         (fun p ->
           p >= 0 && p < n
           &&
           if seen.(p) then false
           else begin
             seen.(p) <- true;
             true
           end)
         sa
     end
  &&
  let suffix i = String.sub s i (n - i) in
  let rec sorted i =
    i >= n - 1 || (String.compare (suffix sa.(i)) (suffix sa.(i + 1)) < 0 && sorted (i + 1))
  in
  sorted 0
