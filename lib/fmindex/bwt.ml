let of_suffix_array s sa =
  let n = String.length s in
  (* SA(s ^ "$") is [n] followed by SA(s): the sentinel suffix is smallest
     and the remaining suffixes keep their relative order. *)
  let l = Bytes.create (n + 1) in
  Bytes.set l 0 (if n = 0 then Dna.Alphabet.sentinel else s.[n - 1]);
  for i = 0 to n - 1 do
    let h = sa.(i) in
    Bytes.set l (i + 1) (if h = 0 then Dna.Alphabet.sentinel else s.[h - 1])
  done;
  Bytes.unsafe_to_string l

let of_text s = of_suffix_array s (Suffix.Suffix_array.build s)

(* The packed BWT skips the sentinel row entirely: lane j holds the
   (j < sentinel_row ? j : j+1)-th BWT character.  Row r's suffix starts
   at sa.(r) (row 0 is the sentinel suffix, sa.(0) = n), so its
   L-character is the code before it, and the row of position 0 is where
   the sentinel sits in L. *)
let of_packed_text ptext =
  let n = Packed_text.length ptext in
  let codes = Bytes.create (n + 1) in
  for i = 0 to n - 1 do
    Bytes.unsafe_set codes i (Char.unsafe_chr (Packed_text.unsafe_get ptext i + 1))
  done;
  Bytes.unsafe_set codes n '\000';
  let sa = Suffix.Suffix_array.sais_codes codes ~sigma:Dna.Alphabet.sigma in
  let data = Storage.create ((n + 3) / 4) in
  let sentinel_row = ref 0 and lane = ref 0 in
  for row = 0 to n do
    let p = Array.unsafe_get sa row in
    if p = 0 then sentinel_row := row
    else begin
      let d = Char.code (Bytes.unsafe_get codes (p - 1)) - 1 and j = !lane in
      let b = j lsr 2 in
      Bigarray.Array1.unsafe_set data b
        (Bigarray.Array1.unsafe_get data b lor (d lsl ((j land 3) * 2)));
      lane := j + 1
    end
  done;
  (Packed_text.of_storage data ~len:n, !sentinel_row, sa)

let inverse l =
  let n = String.length l in
  let sentinel_count = ref 0 in
  String.iter (fun c -> if c = Dna.Alphabet.sentinel then incr sentinel_count) l;
  if !sentinel_count <> 1 then
    invalid_arg "Bwt.inverse: input must contain exactly one sentinel";
  (* C.(c) = number of characters strictly smaller than code c. *)
  let sigma = Dna.Alphabet.sigma in
  let counts = Array.make sigma 0 in
  String.iter (fun c -> counts.(Dna.Alphabet.code c) <- counts.(Dna.Alphabet.code c) + 1) l;
  let c_array = Array.make sigma 0 in
  let sum = ref 0 in
  for c = 0 to sigma - 1 do
    c_array.(c) <- !sum;
    sum := !sum + counts.(c)
  done;
  (* lf.(i) = C[l[i]] + rank_{l[i]}(i): position in F of the character L[i]. *)
  let seen = Array.make sigma 0 in
  let lf = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = Dna.Alphabet.code l.[i] in
    lf.(i) <- c_array.(c) + seen.(c);
    seen.(c) <- seen.(c) + 1
  done;
  (* Walk backwards from the row whose L-character is the sentinel's
     predecessor: row 0 of the BWT matrix starts with '$', so L[0] is the
     last character of s; following LF yields s right to left. *)
  let out = Bytes.create (n - 1) in
  let row = ref 0 in
  for i = n - 2 downto 0 do
    Bytes.set out i l.[!row];
    row := lf.(!row)
  done;
  Bytes.unsafe_to_string out
