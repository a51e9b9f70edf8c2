(* A [kmm serve] daemon in its own process, as a user runs it:
   [kmm serve --index F --mmap --jobs 2 --quiet].  The benchmark talks
   to it only over its Unix socket, reads its peak memory from /proc,
   and reads its live metrics through the wire [metrics] command. *)

module Client = Kmm_server.Server.Client
module P = Kmm_server.Protocol

type t = { pid : int; socket : string; mutable reaped : bool }

(* The daemons still running, for the runner's exit handler. *)
let live : t list ref = ref []

let reap d =
  if not d.reaped then begin
    let deadline = Unix.gettimeofday () +. 15. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] d.pid)
          end
          else begin
            Unix.sleepf 0.005;
            wait ()
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    d.reaped <- true;
    live := List.filter (fun x -> x != d) !live
  end

(* SIGTERM asks for the daemon's clean drain; it unlinks its socket. *)
let stop d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap d
  end

let spawn ~kmm ~index ~socket ?trace_out () =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ kmm; "serve"; "--index"; index; "--mmap"; "--jobs"; "2"; "--quiet"; "--socket"; socket ]
    @ match trace_out with Some f -> [ "--trace"; f ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process kmm (Array.of_list args) null null Unix.stderr)
  in
  let d = { pid; socket; reaped = false } in
  live := d :: !live;
  d

let exited d =
  d.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.reaped <- true;
      true

(* Poll the socket until the daemon accepts (or has died). *)
let connect ?(timeout = 120.) d =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect d.socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if exited d then failwith "kmm serve exited before accepting connections";
        if Unix.gettimeofday () > deadline then failwith "kmm serve did not start";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let query c (q : Inputs.query) =
  match Client.query c ~engine:q.engine ~pattern:q.pattern ~k:q.k () with
  | Ok (P.Hits { hits; _ }) -> Ok hits
  | Ok (P.Error_reply { message; _ }) -> Error message
  | Ok (P.Ok_obj _) -> Error "unexpected reply shape"
  | Error e -> Error (Kmm_error.to_string e)

let peak_rss_mb d = Ctx.peak_rss_mb (string_of_int d.pid)

(* --- the daemon's live metrics ------------------------------------------ *)

(* A histogram as the Prometheus exposition gives it: cumulative counts
   at each non-empty bucket's upper bound, plus sum and count. *)
type hist = { cum : (float * int) list; sum : float; count : int }

(* The daemon's metrics exposition, over a connection of its own. *)
let metrics d =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.command c "metrics" with
      | Ok (P.Ok_obj { fields; _ }) -> (
          match List.assoc_opt "metrics" fields with
          | Some (P.Json.String text) -> text
          | _ -> failwith "metrics reply without a metrics field")
      | _ -> failwith "metrics command failed")

(* The histogram [name] (an Obs name such as "serve.request_ns") out of
   an exposition; empty if the daemon has not recorded it yet. *)
let hist text name =
  let prom = "kmm_" ^ String.map (fun c -> if c = '.' then '_' else c) name in
  let lines = String.split_on_char '\n' text in
  let value line = float_of_string (List.nth (String.split_on_char ' ' line) 1) in
  let starts p l = String.starts_with ~prefix:p l in
  let bucket = prom ^ "_bucket{le=\"" in
  let cum =
    List.filter_map
      (fun l ->
        if not (starts bucket l) then None
        else
          let rest = String.sub l (String.length bucket) (String.length l - String.length bucket) in
          match String.split_on_char '"' rest with
          | "+Inf" :: _ -> None
          | le :: _ -> Some (float_of_string le, int_of_float (value l))
          | [] -> None)
      lines
  in
  let scalar suffix =
    match List.find_opt (starts (prom ^ suffix ^ " ")) lines with
    | Some l -> value l
    | None -> 0.
  in
  { cum; sum = scalar "_sum"; count = int_of_float (scalar "_count") }

(* [after] minus [before]: what was recorded between two expositions. *)
let diff after before =
  let cum_at h le =
    List.fold_left (fun acc (l, n) -> if l <= le then n else acc) 0 h.cum
  in
  {
    cum = List.map (fun (le, n) -> (le, n - cum_at before le)) after.cum;
    sum = after.sum -. before.sum;
    count = after.count - before.count;
  }

let hist_quantile h q =
  let rank = int_of_float (Float.ceil (q *. float_of_int h.count)) in
  match List.find_opt (fun (_, n) -> n >= max 1 rank) h.cum with
  | Some (le, _) -> le
  | None -> nan

let hist_mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count
