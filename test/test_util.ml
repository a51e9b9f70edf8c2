(* Shared helpers for the test suites. *)

let dna_gen_char = QCheck2.Gen.oneofl [ 'a'; 'c'; 'g'; 't' ]

(* Random DNA string with length in [lo, hi]. *)
let dna_gen ?(lo = 0) ~hi () =
  QCheck2.Gen.(string_size ~gen:dna_gen_char (int_range lo hi))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let random_dna st n =
  String.init n (fun _ -> [| 'a'; 'c'; 'g'; 't' |].(Random.State.int st 4))

(* The hits of one query through [Kmismatch.run]. *)
let run_hits idx ~engine ~pattern ~k =
  (Core.Kmismatch.run idx (Core.Kmismatch.Query.make ~engine ~pattern ~k ())).hits

(* [f ()] with the taps armed (restored after) and a fresh sink as the
   ambient one: the result and that sink. *)
let tapped f =
  let obs = Obs.create () in
  let was = Atomic.get Obs.taps in
  Obs.set_taps true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_taps was) (fun () -> Obs.with_ambient obs f) in
  (r, obs)
