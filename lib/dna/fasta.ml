type record = { name : string; seq : Sequence.t }

exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

(* One pass over [text], a line at a time: no list of all its lines, and
   a sequence buffer sized once to the input, so a genome is never held
   in more than its file string, the buffer and the record. *)
let parse_string text =
  let records = ref [] in
  let name = ref None in
  let body = Buffer.create (String.length text) in
  let lineno = ref 0 in
  let flush_record () =
    match !name with
    | None ->
        if Buffer.length body > 0 then
          fail !lineno "sequence data before any '>' header"
    | Some n ->
        (* A header with no sequence lines before the next header (or end
           of input) is almost always a truncated or corrupt file; reject
           it rather than silently producing an empty sequence. *)
        if Buffer.length body = 0 then
          fail !lineno (Printf.sprintf "record %S has no sequence data" n);
        let s =
          match Sequence.of_string_opt (Buffer.contents body) with
          | Some s -> s
          | None -> fail !lineno ("invalid sequence character in record " ^ n)
        in
        records := { name = n; seq = s } :: !records;
        Buffer.clear body
  in
  let handle_line raw =
    incr lineno;
    let line = String.trim raw in
    if String.length line = 0 then ()
    else
      match line.[0] with
      | ';' -> ()
      | '>' ->
          flush_record ();
          let n = String.trim (String.sub line 1 (String.length line - 1)) in
          if n = "" then fail !lineno "empty record name";
          name := Some n
      | _ ->
          if !name = None then fail !lineno "sequence data before any '>' header";
          Buffer.add_string body line
  in
  let len = String.length text in
  let rec lines start =
    let stop = Option.value (String.index_from_opt text start '\n') ~default:len in
    handle_line (String.sub text start (stop - start));
    if stop < len then lines (stop + 1)
  in
  lines 0;
  flush_record ();
  List.rev !records

let read_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string text

(* Typed-error channel: the same parsers, with failures reported as
   [Kmm_error.t] values instead of exceptions ([Parse_error] maps to
   [Bad_input], I/O failures to [Io]). *)

let try_parse_string text =
  match parse_string text with
  | records -> Ok records
  | exception Parse_error msg -> Error (Kmm_error.Bad_input msg)

let try_read_file path =
  match read_file path with
  | records -> Ok records
  | exception Parse_error msg -> Error (Kmm_error.Bad_input msg)
  | exception (Sys_error _ as e) -> Error (Kmm_error.Io e)

let to_string ?(width = 70) records =
  let buf = Buffer.create 1024 in
  let emit { name; seq } =
    Buffer.add_char buf '>';
    Buffer.add_string buf name;
    Buffer.add_char buf '\n';
    let s = Sequence.to_string seq in
    let n = String.length s in
    let rec go i =
      if i < n then begin
        Buffer.add_substring buf s i (min width (n - i));
        Buffer.add_char buf '\n';
        go (i + width)
      end
    in
    go 0
  in
  List.iter emit records;
  Buffer.contents buf

let write_file ?width path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?width records))
