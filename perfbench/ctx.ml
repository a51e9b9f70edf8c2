(* What one benchmark run carries through its phases: the command line,
   a private scratch directory, the bench-side span sink, and the tally
   of operations attempted, failed, and checked wrong. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  kmm : string;  (** the kmm executable the serve daemons run *)
  results : string;  (** where records and traces are written *)
  dir : string;  (** this run's scratch directory (index files, sockets) *)
  obs : Obs.t;  (** bench-side spans; {!Obs.noop} unless traced *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** failed correctness checks *)
  mutable host_scale : float;  (** what the end-to-end times were multiplied by ({!Hostspeed}) *)
}

let now () = float_of_int (Obs.Clock.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

(* A bench-side span, [bench.<workload>.<name>], in the traced run. *)
let span t name f = Obs.span t.obs (Printf.sprintf "bench.%s.%s" t.workload name) f

let check t ok fmt =
  Printf.ksprintf (fun msg -> if not ok then t.wrong <- msg :: t.wrong) fmt

let tally t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let note fmt = Printf.printf ("  # " ^^ fmt ^^ "\n%!")

(* Peak resident set of a process ("self" or a pid), in MiB. *)
let peak_rss_mb proc =
  let status =
    In_channel.with_open_bin (Printf.sprintf "/proc/%s/status" proc) In_channel.input_all
  in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb))
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM line in /proc/<pid>/status"

(* Restart this process's peak-RSS count from its current RSS. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* [perfbench --build-index TEXT OUT]: build the index of the text in
   file TEXT, save it to OUT, and print the build+save and save
   seconds.  The runner runs this in a process of its own for every
   build, as [kmm index] would run: the build neither inherits nor
   leaves behind the runner's heap, and a process that has run domains
   cannot fork. *)
let build_main text_file out =
  let text = In_channel.with_open_bin text_file In_channel.input_all in
  let t0 = now () in
  let idx = Core.Kmismatch.build_index text in
  let t1 = now () in
  Core.Kmismatch.save_index idx out;
  let t2 = now () in
  Printf.printf "%.17g %.17g\n" (t2 -. t0) (t2 -. t1)

(* Child processes still running, for the runner's exit handler. *)
let children : int list ref = ref []

let stop_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Run [prog args] to completion; its exit status. *)
let run_child prog args ~stdout ~stderr =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout stderr in
  children := pid :: !children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (( <> ) pid) !children;
  status

let build_once t text_file path =
  span t "build" (fun () ->
      let r, w = Unix.pipe ~cloexec:true () in
      let status =
        Fun.protect
          ~finally:(fun () -> Unix.close w)
          (fun () ->
            run_child Sys.executable_name [ "--build-index"; text_file; path ] ~stdout:w ~stderr:Unix.stderr)
      in
      let ic = Unix.in_channel_of_descr r in
      let line =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> try input_line ic with End_of_file -> "")
      in
      if status <> Unix.WEXITED 0 then failwith "index build failed";
      Scanf.sscanf line "%f %f" (fun total save -> (total, save)))

(* The workload's index builds.  The first one writes the file the
   workload uses; later ones (see [rebuild]) are spread over the run, so
   that their shortest time is not set by one slow stretch of the
   host. *)
type builds = {
  path : string;
  text_file : string;
  bytes_per_base : float;
  mutable runs : (float * float) list;  (** build+save and save seconds, one per build *)
}

let build_index t text =
  let text_file = Filename.concat t.dir "genome.txt" in
  Out_channel.with_open_bin text_file (fun oc -> output_string oc text);
  let path = Filename.concat t.dir "genome.fmi" in
  let first = build_once t text_file path in
  let bytes = (Unix.stat path).Unix.st_size in
  { path; text_file; bytes_per_base = float_of_int bytes /. float_of_int (String.length text); runs = [ first ] }

(* How many of [count] events run before step [i] of [passes] steps
   (passes, or batch positions), so that they spread evenly over the
   run: back to back they would all land in the same state of the host
   (see hostspeed.ml). *)
let share ~count ~passes i = (count * (i + 1) / passes) - (count * i / passes)

(* The cold starts of a run (setup_s).  One cold start is short, and
   each vCPU of the host flips between a fast and a slow state every
   second or so, so a single cold start reads fast or about 1.4x slow
   depending on the moment.  [count] cold starts are therefore placed
   evenly over the run's [positions] batches and fall into
   [max 1 (count / passes)] slots, cold start [i] into slot
   [i mod slots]; each slot keeps its shortest time, as a batch keeps its
   shortest over the passes.  setup_s is the median of the slots' times. *)
type cold = { count : int; positions : int; best : float array; mutable started : int }

let cold_plan ~count ~passes ~nbatches =
  { count; positions = passes * nbatches; best = Array.make (max 1 (count / passes)) infinity; started = 0 }

let cold_sample c dt =
  Bench_record.keep_best c.best (c.started mod Array.length c.best) dt;
  c.started <- c.started + 1

(* Every cold start due before batch position [g]; [start ()] returns
   its seconds. *)
let cold_due c g start =
  for _ = 1 to share ~count:c.count ~passes:c.positions g do
    cold_sample c (start ())
  done

let setup_seconds c = Array.of_list (List.filter Float.is_finite (Array.to_list c.best))

(* One more build, into a file of its own (the workload's file stays
   mapped); skipped in a smoke run. *)
let rebuild t b =
  if not t.smoke then begin
    let p = Filename.concat t.dir "rebuild.fmi" in
    b.runs <- build_once t b.text_file p :: b.runs;
    Sys.remove p
  end

let build_seconds b = Array.of_list (List.map fst b.runs)
let save_seconds b = Bench_record.median (Array.of_list (List.map snd b.runs))
