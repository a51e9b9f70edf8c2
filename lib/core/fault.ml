exception Injected of string

type plan =
  | Enospc_after of int
  | Crash_after of int
  | Short_write of int
  | Bit_flip of { offset : int; bit : int }
  | Truncate_at of int

let plan_to_string = function
  | Enospc_after n -> Printf.sprintf "enospc-after-%d" n
  | Crash_after n -> Printf.sprintf "crash-after-%d" n
  | Short_write n -> Printf.sprintf "short-write-at-%d" n
  | Bit_flip { offset; bit } -> Printf.sprintf "bit-flip-%d.%d" offset bit
  | Truncate_at n -> Printf.sprintf "truncate-at-%d" n

let flip_byte s ~offset ~bit =
  let b = Bytes.of_string s in
  Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

(* How much of a [len]-byte chunk still fits below the absolute stream
   boundary [limit], given that [written] bytes went before it, and
   whether the chunk crosses the boundary. *)
let prefix_upto ~written ~limit len =
  if written >= limit then (0, len > 0)
  else if written + len <= limit then (len, false)
  else (limit - written, true)

let wrap plan (base : Fmindex.Fm_index.sink) : Fmindex.Fm_index.sink =
  let written = ref 0 in
  let lost = ref false in
  let write_counted s off len =
    base.Fmindex.Fm_index.sink_write s off len;
    written := !written + len
  in
  match plan with
  | Enospc_after limit ->
      {
        sink_write =
          (fun s off len ->
            let keep, overflow = prefix_upto ~written:!written ~limit len in
            write_counted s off keep;
            if overflow then raise (Injected "ENOSPC"));
        sink_flush = base.sink_flush;
      }
  | Crash_after limit ->
      {
        sink_write =
          (fun s off len ->
            if !lost then raise (Injected "crash");
            let keep, overflow = prefix_upto ~written:!written ~limit len in
            write_counted s off keep;
            if overflow then begin
              lost := true;
              raise (Injected "crash")
            end);
        sink_flush =
          (fun () -> if !lost then raise (Injected "crash") else base.sink_flush ());
      }
  | Short_write limit ->
      {
        sink_write =
          (fun s off len ->
            let keep, overflow = prefix_upto ~written:!written ~limit len in
            write_counted s off keep;
            if overflow then lost := true);
        sink_flush =
          (fun () ->
            base.sink_flush ();
            if !lost then raise (Injected "short write"));
      }
  | Bit_flip { offset; bit } ->
      {
        sink_write =
          (fun s off len ->
            let start = !written in
            if offset >= start && offset < start + len then
              write_counted
                (flip_byte (String.sub s off len) ~offset:(offset - start) ~bit)
                0 len
            else write_counted s off len);
        sink_flush = base.sink_flush;
      }
  | Truncate_at limit ->
      {
        sink_write =
          (fun s off len ->
            let keep, _ = prefix_upto ~written:!written ~limit len in
            base.Fmindex.Fm_index.sink_write s off keep;
            (* count the bytes the writer believes it wrote *)
            written := !written + len);
        sink_flush = base.sink_flush;
      }

let corrupt_string plan s =
  let len = String.length s in
  match plan with
  | Bit_flip { offset; bit } ->
      if len = 0 then s
      else flip_byte s ~offset:(((offset mod len) + len) mod len) ~bit:(bit land 7)
  | Enospc_after n | Crash_after n | Short_write n | Truncate_at n ->
      String.sub s 0 (max 0 (min n len))

let corrupt_file plan path =
  let image =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (corrupt_string plan image))

(* --- socket faults -------------------------------------------------- *)

module Socket = struct
  type c = { fd : Unix.file_descr; buf : Buffer.t }

  let connect path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    { fd; buf = Buffer.create 256 }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let fd c = c.fd

  let send c s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write c.fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let send_line c s = send c (s ^ "\n")

  let dribble ?(chunk = 1) ?(delay = 0.002) c s =
    if chunk < 1 then invalid_arg "Fault.Socket.dribble: chunk must be >= 1";
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      let len = min chunk (n - !off) in
      send c (String.sub s !off len);
      off := !off + len;
      if !off < n && delay > 0. then
        (try Unix.sleepf delay
         with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done

  let send_partial c s ~len =
    if len < 0 || len > String.length s then
      invalid_arg "Fault.Socket.send_partial: len out of range";
    send c (String.sub s 0 len)

  (* A minimal line reader for asserting replies: enough for the chaos
     tests, which must not depend on the server library's own client
     (that would test the client with the client). *)
  let recv_line ?(timeout = 10.) c =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec extract () =
      match String.index_opt (Buffer.contents c.buf) '\n' with
      | Some i ->
          let all = Buffer.contents c.buf in
          let line = String.sub all 0 i in
          Buffer.clear c.buf;
          Buffer.add_string c.buf
            (String.sub all (i + 1) (String.length all - i - 1));
          Some line
      | None -> fill ()
    and fill () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then None
      else
        match Unix.select [ c.fd ] [] [] remaining with
        | [], _, _ -> None
        | _ -> (
            let b = Bytes.create 8192 in
            match Unix.read c.fd b 0 8192 with
            | 0 -> None
            | n ->
                Buffer.add_subbytes c.buf b 0 n;
                extract ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
            | exception
                Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                None)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
    in
    extract ()
end
