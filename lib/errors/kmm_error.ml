type section =
  | Header
  | Text_section
  | Rank_blocks
  | Superblocks
  | Forward_blocks
  | Forward_superblocks
  | Sa_marks
  | Sa_samples
  | Trailer

let section_name = function
  | Header -> "header"
  | Text_section -> "text section"
  | Rank_blocks -> "rank blocks"
  | Superblocks -> "superblocks"
  | Forward_blocks -> "forward rank blocks"
  | Forward_superblocks -> "forward superblocks"
  | Sa_marks -> "sa marks"
  | Sa_samples -> "sa samples"
  | Trailer -> "trailer"

type t =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of string
  | Corrupt of section * string
  | Io of exn
  | Bad_input of string
  | Internal of string
  | Timeout of string
  | Overloaded of string

exception Error of t

let raise_error e = raise (Error e)

(* The phrasing below is load-bearing: the pre-typed-channel [load]
   raised [Failure] with these exact substrings ("corrupt index header",
   "truncated index", "trailing garbage", "not a kmm FM-index file") and
   the regression tests grep for them. *)
let to_string = function
  | Bad_magic -> "not a kmm FM-index file"
  | Unsupported_version v -> Printf.sprintf "unsupported index format version %d" v
  | Truncated what -> Printf.sprintf "truncated index (%s)" what
  | Corrupt (Header, detail) -> Printf.sprintf "corrupt index header (%s)" detail
  | Corrupt (sec, detail) ->
      Printf.sprintf "corrupt index %s (%s)" (section_name sec) detail
  | Io e -> Printf.sprintf "i/o error (%s)" (Printexc.to_string e)
  | Bad_input msg -> Printf.sprintf "bad input: %s" msg
  | Internal msg -> Printf.sprintf "internal error: %s" msg
  | Timeout msg -> Printf.sprintf "timeout: %s" msg
  | Overloaded msg -> Printf.sprintf "server overloaded: %s" msg

let pp ppf e = Format.pp_print_string ppf (to_string e)

let exit_code = function
  | Bad_input _ -> 2
  | Bad_magic -> 3
  | Unsupported_version _ -> 4
  | Truncated _ -> 5
  | Corrupt _ -> 6
  | Io _ -> 7
  | Internal _ -> 8
  | Timeout _ -> 9
  | Overloaded _ -> 10

let equal a b =
  match (a, b) with
  | Io x, Io y -> Printexc.to_string x = Printexc.to_string y
  | Io _, _ | _, Io _ -> false
  | x, y -> x = y

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Kmm_error.Error (%s)" (to_string e))
    | _ -> None)
