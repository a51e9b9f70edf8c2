(* CRC-32/ISO-HDLC: reflected 0xEDB88320, init and xorout 0xFFFFFFFF. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask32 = 0xFFFFFFFF

let[@inline] step table c byte = Array.unsafe_get table ((c lxor byte) land 0xff) lxor (c lsr 8)

let check_slice who length ~pos ~len =
  if pos < 0 || len < 0 || pos > length - len then invalid_arg (who ^ ": out-of-range slice")

let sub s ~pos ~len =
  check_slice "Crc32.sub" (String.length s) ~pos ~len;
  let table = Lazy.force table in
  let c = ref mask32 in
  for i = pos to pos + len - 1 do
    c := step table !c (Char.code (String.unsafe_get s i))
  done;
  !c lxor mask32

let string s = sub s ~pos:0 ~len:(String.length s)

let storage (a : Storage.t) ~pos ~len =
  check_slice "Crc32.storage" (Storage.length a) ~pos ~len;
  let table = Lazy.force table in
  let c = ref mask32 in
  for i = pos to pos + len - 1 do
    c := step table !c (Bigarray.Array1.unsafe_get a i)
  done;
  !c lxor mask32

(* [combine], as zlib's crc32_combine: a CRC is a polynomial over GF(2)
   (bit 31 is the coefficient of x^0), appending [len2] bytes to [a]
   multiplies its register by x^(8 len2) mod P, and the init/xorout
   terms cancel. *)

let poly = 0xEDB88320

(* a * b mod P. *)
let multmodp a b =
  let p = ref 0 and b = ref b and m = ref (1 lsl 31) in
  while !m <> 0 && a land (((!m) lsl 1) - 1) <> 0 do
    if a land !m <> 0 then p := !p lxor !b;
    m := !m lsr 1;
    b := if !b land 1 = 1 then (!b lsr 1) lxor poly else !b lsr 1
  done;
  !p

(* x^(2^n) mod P for n = 0 .. 31; x^(2^32) = x mod P, so the powers
   cycle with period 32. *)
let x2n_table =
  lazy
    (let t = Array.make 32 0 in
     t.(0) <- 1 lsl 30;
     for n = 1 to 31 do
       t.(n) <- multmodp t.(n - 1) t.(n - 1)
     done;
     t)

(* x^(8 len) mod P, by the binary digits of [len]. *)
let x8nmodp len =
  let t = Lazy.force x2n_table in
  let p = ref (1 lsl 31) and n = ref len and k = ref 3 in
  while !n > 0 do
    if !n land 1 = 1 then p := multmodp t.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine: negative length";
  multmodp (x8nmodp len2) crc1 lxor crc2
