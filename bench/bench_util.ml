(* Shared plumbing for the benchmarks: monotonic timing, table
   rendering, the cross-check of engines' answers, and cached
   genomes/read sets so that experiments sharing a target build its
   index once per process. *)

(* Seconds on the monotonic clock, which an NTP step cannot move. *)
let time f =
  let t0 = Obs.Clock.now_ns () in
  let y = f () in
  (y, float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9)

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

(* --- cross-checks -------------------------------------------------------- *)

(* [cross_check ~what ~reads answers]: [answers] pairs each engine (or
   configuration) with its hit list for every read of [reads], in
   order.  Every list must equal the first one's; the first divergence
   raises [Kmm_error.Error (Internal _)] naming [what], the engine, the
   baseline and the read. *)
let cross_check ~what ~reads = function
  | [] -> ()
  | (base, expected) :: rest ->
      let expected = List.combine reads expected in
      List.iter
        (fun (name, got) ->
          List.iteri
            (fun i ((read, want), hits) ->
              if hits <> want then
                Kmm_error.raise_error
                  (Internal
                     (Printf.sprintf "%s: %s diverges from %s on read %d (%s): %d hits against %d"
                        what name base i read (List.length hits) (List.length want))))
            (List.combine expected got))
        rest

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

let search ?obs idx engine ~k pattern =
  (Core.Kmismatch.run idx (Core.Kmismatch.Query.make ?obs ~engine ~pattern ~k ()))
    .Core.Kmismatch.Response.hits

(* Average per-read search time of an engine over a read set, and its
   hits on every read.  The engine's first-use derivations on the index
   (Cole's suffix tree, naive's unpacked text, ...) are built
   before the clock starts, so no cell of a table times them. *)
let avg_search_time idx engine ~reads:rs ~k =
  Core.Kmismatch.prepare engine idx;
  let hits, total = time (fun () -> List.map (search idx engine ~k) rs) in
  (total /. float_of_int (List.length rs), hits)

(* The engine.* counts of running every read through [engine]: one pass
   with a fresh sink, apart from any timed pass; and its hits. *)
let engine_counts idx engine ~reads:rs ~k =
  let obs = Obs.create () in
  let hits = List.map (search ~obs idx engine ~k) rs in
  (obs, hits)

(* Algorithm A's cost measure n' (paper Table 2): every path
   termination, derived ones included. *)
let total_leaves obs =
  Obs.counter_value obs "engine.leaves" + Obs.counter_value obs "engine.derived_leaves"

(* The four methods of the paper's §V, in its order and naming.  A
   cross-check names them by their engine names. *)
let paper_engines =
  [
    ("BWT", Core.Kmismatch.S_tree);
    ("Amir's", Core.Kmismatch.Amir);
    ("Cole's", Core.Kmismatch.Cole);
    ("A()", Core.Kmismatch.M_tree);
  ]
