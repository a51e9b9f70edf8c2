(* Provenance stamp shared by every BENCH_*.json record: without it, a
   directory of appended bench lines is a pile of numbers with no way to
   tell which commit, toolchain or machine produced which line.  Each
   probe is fail-soft ("unknown") so benches still run in a stripped
   container or an exported tarball without git. *)

let run_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with _ -> None

let git_rev () =
  match run_line "git rev-parse --short HEAD 2>/dev/null" with
  | Some rev -> rev
  | None -> "unknown"

let hostname () = try Unix.gethostname () with _ -> "unknown"

let timestamp_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let to_json () =
  Printf.sprintf
    "{\"git_rev\":\"%s\",\"ocaml\":\"%s\",\"hostname\":\"%s\",\
     \"timestamp_utc\":\"%s\",\"domains\":%d}"
    (Obs.json_escape (git_rev ()))
    (Obs.json_escape Sys.ocaml_version)
    (Obs.json_escape (hostname ()))
    (timestamp_utc ())
    (Domain.recommended_domain_count ())
