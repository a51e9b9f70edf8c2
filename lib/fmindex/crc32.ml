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
