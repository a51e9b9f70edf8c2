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

(* An index file that must load: the index, or the test fails with
   the typed error. *)
let load_fm ?mode path =
  match Fmindex.Fm_index.try_load ?mode path with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" path (Kmm_error.to_string e)

(* The hits of one query through [Kmismatch.run]. *)
let run_hits idx ~engine ~pattern ~k =
  (Core.Kmismatch.run idx (Core.Kmismatch.Query.make ~engine ~pattern ~k ())).hits

(* [f ()] with the taps armed (restored after) and [obs] as the ambient
   sink. *)
let tapped_into obs f =
  let was = Atomic.get Obs.taps in
  Obs.set_taps true;
  Fun.protect ~finally:(fun () -> Obs.set_taps was) (fun () -> Obs.with_ambient obs f)

(* [tapped_into] a fresh sink: the result and that sink. *)
let tapped f =
  let obs = Obs.create () in
  let r = tapped_into obs f in
  (r, obs)

(* The engine.* counters of a sink, by name. *)
let engine_counters obs =
  List.filter (fun (name, _) -> String.starts_with ~prefix:"engine." name) (Obs.counters obs)
