(* The host's speed during a run, for scaling the run's times to a
   reference host.

   The benchmark host is a VM that shares its cores and caches with
   other machines, and its speed drifts: over a few minutes every timing
   of a run can come out up to twice as slow, and the shortest of several
   timings cannot undo that.  So the runner also times a fixed piece of
   work that uses no code of the repository, before every other timed
   batch of the workload: sorting 30 000 integers with [Array.sort
   compare], then filling a [Hashtbl] with 60 000 fresh keys.  That is
   the kind of work the workloads do — comparisons, unpredictable
   branches, allocation and the GC, scattered memory reads — and
   measured side by side with the mapper's engines during such a drift,
   its times moved in proportion to theirs (elasticity 0.8 to 1.1),
   where a chain of dependent memory reads or pure register arithmetic
   moved about half as much.  Its fast timings (the 10th
   percentile, as the workload keeps its shortest timings) say how fast
   the host ran during this run.

   Every end-to-end time is reported multiplied by [reference_s] over
   that percentile: as it would read on a host where the work takes
   [reference_s], which is what this VM gives in a quiet hour.  The
   factor itself is printed and recorded with the run. *)

let reference_s = 0.016

let work () =
  let st = Random.State.make [| 3 |] in
  let a = Array.init 30_000 (fun _ -> Random.State.bits st) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 60_000 do
    Hashtbl.replace h ((i * 7919) land 65535) i
  done;
  ignore (Sys.opaque_identity (a, h))

type t = { mutable samples : float list }

let create () = { samples = [] }

let sample t =
  let t0 = Ctx.now () in
  work ();
  t.samples <- (Ctx.now () -. t0) :: t.samples

(* The work's 10th-percentile time, in seconds. *)
let fast_s t = Bench_record.quantile (Array.of_list t.samples) 0.1

(* What this run's times are multiplied by. *)
let scale t = reference_s /. fast_s t

let describe t =
  Printf.sprintf "%.3f ms (median %.3f ms, %d samples)" (fast_s t *. 1e3)
    (Bench_record.median (Array.of_list t.samples) *. 1e3)
    (List.length t.samples)
