module A1 = Bigarray.Array1

type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

(* Bigarray allocation leaves contents undefined; the index code relies
   on padding lanes being zero, so heap buffers are always cleared. *)
let create n =
  let a = A1.create Bigarray.int8_unsigned Bigarray.c_layout n in
  A1.fill a 0;
  a

let create_words n =
  let a = A1.create Bigarray.int64 Bigarray.c_layout n in
  A1.fill a 0L;
  a

let length (a : t) = A1.dim a
let length_words (a : words) = A1.dim a

let of_string s =
  let n = String.length s in
  let a = create n in
  for i = 0 to n - 1 do
    A1.unsafe_set a i (Char.code (String.unsafe_get s i))
  done;
  a

let map_bytes fd ~pos ~len : t =
  if len = 0 then create 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int8_unsigned
         Bigarray.c_layout false [| len |])

let map_words fd ~pos ~len : words =
  if len = 0 then create_words 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int64
         Bigarray.c_layout false [| len |])

module Memo = struct
  type 'a t = { m : Mutex.t; cell : 'a option Atomic.t; f : unit -> 'a }

  let make f = { m = Mutex.create (); cell = Atomic.make None; f }

  let force t =
    match Atomic.get t.cell with
    | Some v -> v
    | None ->
        Mutex.lock t.m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.m)
          (fun () ->
            match Atomic.get t.cell with
            | Some v -> v
            | None ->
                let v = t.f () in
                Atomic.set t.cell (Some v);
                v)

  let is_forced t = Atomic.get t.cell <> None
end
