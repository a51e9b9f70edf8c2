let sigma = 5
let sentinel = '$'
let sentinel_code = 0

(* Byte-indexed tables, one load per character.  [codes] holds the code
   of [$acgtACGT] and [none] elsewhere; [lower] the lowercase form of a
   base and ['\000'] elsewhere (the sentinel included); [complements]
   the lowercase complement of a base and ['\000'] elsewhere. *)
let none = '\255'

let table f = String.init 256 (fun b -> f (Char.chr b))

let codes =
  table (function
    | '$' -> '\000'
    | 'a' | 'A' -> '\001'
    | 'c' | 'C' -> '\002'
    | 'g' | 'G' -> '\003'
    | 't' | 'T' -> '\004'
    | _ -> none)

let lower =
  table (function
    | 'a' | 'A' -> 'a'
    | 'c' | 'C' -> 'c'
    | 'g' | 'G' -> 'g'
    | 't' | 'T' -> 't'
    | _ -> '\000')

let complements =
  table (function
    | 'a' | 'A' -> 't'
    | 'c' | 'C' -> 'g'
    | 'g' | 'G' -> 'c'
    | 't' | 'T' -> 'a'
    | _ -> '\000')

let[@inline] lookup tbl c = String.unsafe_get tbl (Char.code c)

(* The raising paths stay out of line, so the lookups inline at their
   call sites. *)
let[@inline never] not_in_alphabet fn c =
  invalid_arg (Printf.sprintf "Alphabet.%s: %C is not in {$acgt}" fn c)

let[@inline never] not_a_base fn c =
  invalid_arg (Printf.sprintf "Alphabet.%s: %C is not a base" fn c)

let code_opts = [| Some 0; Some 1; Some 2; Some 3; Some 4 |]

let code_opt c =
  let v = lookup codes c in
  if v = none then None else Array.unsafe_get code_opts (Char.code v)

let code c =
  let v = lookup codes c in
  if v = none then not_in_alphabet "code" c else Char.code v

let of_code k =
  match k with
  | 0 -> '$'
  | 1 -> 'a'
  | 2 -> 'c'
  | 3 -> 'g'
  | 4 -> 't'
  | _ -> invalid_arg (Printf.sprintf "Alphabet.of_code: %d out of range" k)

let is_base c = lookup lower c <> '\000'

let normalize c =
  let v = lookup lower c in
  if v <> '\000' then v else if c = '$' then '$' else not_a_base "normalize" c

let complement c =
  let v = lookup complements c in
  if v <> '\000' then v else not_a_base "complement" c

let bases = [| 'a'; 'c'; 'g'; 't' |]
let base_codes = [| 1; 2; 3; 4 |]
