type t = string

let of_string s =
  let n = String.length s in
  let buf = Bytes.create n in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if not (Alphabet.is_base c) then
      invalid_arg
        (Printf.sprintf "Sequence.of_string: invalid character %C at %d" c i);
    Bytes.unsafe_set buf i (Alphabet.normalize c)
  done;
  Bytes.unsafe_to_string buf

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None
let to_string t = t
let length = String.length
let get = String.get
let sub t ~pos ~len = String.sub t pos len
let equal = String.equal
let compare = String.compare

let rev t =
  let n = String.length t in
  String.init n (fun i -> t.[n - 1 - i])

let revcomp t =
  let n = String.length t in
  let buf = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set buf i (Alphabet.complement (String.unsafe_get t (n - 1 - i)))
  done;
  Bytes.unsafe_to_string buf

let random ?state n =
  let st =
    match state with Some st -> st | None -> Random.State.make_self_init ()
  in
  String.init n (fun _ -> Alphabet.bases.(Random.State.int st 4))

let hamming a b =
  if String.length a <> String.length b then
    invalid_arg "Sequence.hamming: length mismatch";
  let d = ref 0 in
  for i = 0 to String.length a - 1 do
    if a.[i] <> b.[i] then incr d
  done;
  !d

let pp ppf t = Format.pp_print_string ppf t
