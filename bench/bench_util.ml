(* Shared plumbing for the experiment harness: wall-clock timing, table
   rendering, and cached genomes/read sets so that experiments sharing a
   target build its index once. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let time_unit f = snd (time f)

(* --- output ----------------------------------------------------------- *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let note fmt = Printf.printf ("  # " ^^ fmt ^^ "\n%!")

let table ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    List.iter2 (fun w cell -> Printf.printf "  %-*s" (w + 2) cell) widths row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

let fmt_time secs =
  if secs < 1e-3 then Printf.sprintf "%.1fus" (secs *. 1e6)
  else if secs < 1.0 then Printf.sprintf "%.2fms" (secs *. 1e3)
  else Printf.sprintf "%.2fs" secs

let fmt_count n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 1_000 then Printf.sprintf "%.1fK" (float_of_int n /. 1e3)
  else string_of_int n

(* --- cached targets ---------------------------------------------------- *)

(* The experiments run on laptop-scaled stand-ins (sizes roughly 1/1000 of
   the paper's Table 1 genomes; see DESIGN.md).  The main timing target is
   the "Rat chr1" stand-in. *)

let genome_cache : (string, Dna.Sequence.t) Hashtbl.t = Hashtbl.create 8
let index_cache : (string, Core.Kmismatch.index) Hashtbl.t = Hashtbl.create 8

let genome name =
  match Hashtbl.find_opt genome_cache name with
  | Some g -> g
  | None ->
      let profile = List.assoc name Dna.Genome_gen.paper_table1 in
      let g = Dna.Genome_gen.generate profile in
      Hashtbl.add genome_cache name g;
      g

let index name =
  match Hashtbl.find_opt index_cache name with
  | Some idx -> idx
  | None ->
      let idx = Core.Kmismatch.of_sequence (genome name) in
      Hashtbl.add index_cache name idx;
      idx

let main_target = "Rat chr1 (Rnor_6.0)"

let reads ?(name = main_target) ?(error_rate = 0.02) ~count ~len ~seed () =
  let g = genome name in
  let cfg = { Dna.Read_sim.default with count; len; error_rate; seed } in
  List.map
    (fun r -> Dna.Sequence.to_string r.Dna.Read_sim.seq)
    (Dna.Read_sim.simulate cfg g)

(* --- measurement -------------------------------------------------------- *)

(* Average per-read search time of an engine over a read set. *)
let avg_search_time idx engine ~reads:rs ~k =
  let total =
    time_unit (fun () ->
        List.iter
          (fun pattern ->
            ignore
              (Core.Kmismatch.run idx
                 (Core.Kmismatch.Query.make ~engine ~pattern ~k ())))
          rs)
  in
  total /. float_of_int (List.length rs)

(* The engine.* counts of running every read through [engine]: one pass
   with a fresh sink, apart from any timed pass. *)
let engine_counts idx engine ~reads:rs ~k =
  let obs = Obs.create () in
  List.iter
    (fun pattern ->
      ignore
        (Core.Kmismatch.run idx (Core.Kmismatch.Query.make ~obs ~engine ~pattern ~k ())))
    rs;
  obs

(* Algorithm A's cost measure n' (paper Table 2): every path
   termination, derived ones included. *)
let total_leaves obs =
  Obs.counter_value obs "engine.leaves" + Obs.counter_value obs "engine.derived_leaves"

(* The four methods of the paper's §V, in its order and naming. *)
let paper_engines =
  [
    ("BWT", Core.Kmismatch.S_tree);
    ("Amir's", Core.Kmismatch.Amir);
    ("Cole's", Core.Kmismatch.Cole);
    ("A()", Core.Kmismatch.M_tree);
  ]
