(* Seeded workload inputs.  The program under test only ever receives
   what is generated here: a genome from [Genome_gen] (30% repeats of
   300 bp units, 2% copy divergence), wgsim-style reads from [Read_sim],
   and query patterns cut from the genome with planted substitutions. *)

type query = { engine : Core.Kmismatch.engine; pattern : string; k : int }

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let genome ~seed ~size =
  Dna.Genome_gen.generate
    { Dna.Genome_gen.default with size; seed = Hashtbl.hash (seed, "genome") }

(* 100 bp reads from both strands with 2% substitution errors. *)
let reads ~seed ~count genome =
  Array.of_list
    (Dna.Read_sim.simulate
       {
         Dna.Read_sim.count;
         len = 100;
         error_rate = 0.02;
         both_strands = true;
         seed = Hashtbl.hash (seed, "reads");
       }
       genome)

(* A window of [text] of length [len] with between 0 and [k]
   substitutions, each to a different base. *)
let planted st text ~len ~k =
  let p = Bytes.of_string (String.sub text (Random.State.int st (String.length text - len + 1)) len) in
  for _ = 1 to Random.State.int st (k + 1) do
    let i = Random.State.int st len in
    let old = Bytes.get p i in
    let rec pick () = let b = "acgt".[Random.State.int st 4] in if b = old then pick () else b in
    Bytes.set p i (pick ())
  done;
  Bytes.unsafe_to_string p

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

type mix = {
  share : float;  (** fraction of the queries drawn from this class *)
  engine : Core.Kmismatch.engine;
  len : int * int;
  ks : int * int;
}

let queries ~seed ~count ~text mix =
  let st = rng ~seed "queries" in
  Array.init count (fun _ ->
      let u = Random.State.float st 1.0 in
      let rec choose acc = function
        | [ c ] -> c
        | c :: rest -> if u < acc +. c.share then c else choose (acc +. c.share) rest
        | [] -> invalid_arg "Inputs.queries: empty mix"
      in
      let c = choose 0. mix in
      let k = between st (fst c.ks) (snd c.ks) in
      let len = between st (fst c.len) (snd c.len) in
      { engine = c.engine; pattern = planted st text ~len ~k; k })
