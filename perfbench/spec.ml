(* BENCHMARK.json: the declared workloads and metrics.  The runner checks
   every metric it prints against these declarations, compare.exe takes
   its bounds and directions from here, and [check] is the self-check
   every run starts with. *)

module Json = Kmm_server.Protocol.Json

type better = Lower | Higher

type decl = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : decl list;
  per_layer : decl list;
}

let fail fmt = Printf.ksprintf failwith fmt

let get key j =
  match Json.member key j with Some v -> v | None -> fail "missing key %S" key

let str key = function Json.String s -> s | _ -> fail "%S: expected a string" key
let strings key = function
  | Json.List l -> List.map (str key) l
  | _ -> fail "%S: expected a list of strings" key

let objs key = function
  | Json.List l -> l
  | _ -> fail "%S: expected a list of objects" key

let keys_exactly what allowed j =
  match j with
  | Json.Obj kv ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k allowed) then fail "%s: unexpected key %S" what k)
        kv;
      List.iter (fun k -> ignore (get k j)) allowed
  | _ -> fail "%s: expected an object" what

let decl ~with_bound j =
  let keys = [ "name"; "unit"; "better" ] @ if with_bound then [ "bound" ] else [] in
  keys_exactly "metric" keys j;
  let name = str "name" (get "name" j) in
  {
    name;
    unit_ = str "unit" (get "unit" j);
    better =
      (match str "better" (get "better" j) with
      | "lower" -> Lower
      | "higher" -> Higher
      | s -> fail "%s: better must be lower or higher, not %S" name s);
    bound =
      (if with_bound then
         match get "bound" j with
         | Json.Float f -> Some f
         | Json.Int n -> Some (float_of_int n)
         | _ -> fail "%s: bound must be a number" name
       else None);
  }

let of_json j =
  keys_exactly "BENCHMARK.json"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    j;
  {
    command = strings "command" (get "command" j);
    paths = strings "paths" (get "paths" j);
    run_seconds =
      (match get "run_seconds" j with
      | Json.Int n -> n
      | _ -> fail "run_seconds must be a whole number");
    workloads =
      List.map
        (fun w ->
          keys_exactly "workload" [ "name"; "why" ] w;
          (str "name" (get "name" w), str "why" (get "why" w)))
        (objs "workloads" (get "workloads" j));
    end_to_end = List.map (decl ~with_bound:true) (objs "end_to_end" (get "end_to_end" j));
    per_layer = List.map (decl ~with_bound:false) (objs "per_layer" (get "per_layer" j));
  }

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  match Json.of_string text with
  | Ok j -> of_json j
  | Error e -> fail "%s: %s" path e

(* --- the self-check ------------------------------------------------------ *)

let charset_ok extra s = String.for_all (fun c ->
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || String.contains extra c) s

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && charset_ok "_.-" s
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)

let valid_unit s = String.length s >= 1 && String.length s <= 16 && charset_ok "_/%.-" s

(* Static checks: name and unit syntax, uniqueness, bounds, the
   [setup_s] declaration, counts within range, and every declared
   workload a registered one. *)
let check t ~registered =
  let names =
    List.map fst t.workloads
    @ List.map (fun d -> d.name) (t.end_to_end @ t.per_layer)
  in
  List.iter (fun n -> if not (valid_name n) then fail "invalid name %S" n) names;
  List.iter
    (fun n ->
      if List.length (List.filter (( = ) n) names) > 1 then fail "name %S is used twice" n)
    names;
  List.iter
    (fun d -> if not (valid_unit d.unit_) then fail "%s: invalid unit %S" d.name d.unit_)
    (t.end_to_end @ t.per_layer);
  List.iter
    (fun d ->
      match d.bound with
      | Some b when b > 0. && b <= 0.25 -> ()
      | _ -> fail "%s: bound must be in (0, 0.25]" d.name)
    t.end_to_end;
  (match List.find_opt (fun d -> d.name = "setup_s") t.end_to_end with
  | Some { unit_ = "s"; better = Lower; bound = Some b; _ } ->
      List.iter
        (fun d ->
          if Option.value ~default:0. d.bound > b then
            fail "setup_s must carry the largest bound (%s has more)" d.name)
        t.end_to_end
  | _ -> fail "setup_s must be declared with unit s and better lower");
  let between what lo hi n = if n < lo || n > hi then fail "%s: %d not in %d..%d" what n lo hi in
  between "workloads" 2 8 (List.length t.workloads);
  between "end_to_end" 1 16 (List.length t.end_to_end);
  between "per_layer" 1 128 (List.length t.per_layer);
  between "paths" 1 16 (List.length t.paths);
  between "run_seconds" 1 60 t.run_seconds;
  List.iter
    (fun (w, why) ->
      if not (List.mem w registered) then fail "workload %S has no runner" w;
      if why = "" || String.length why > 200 || String.contains why '\n' then
        fail "workload %S: why must be one line of at most 200 characters" w)
    t.workloads

(* Every metric a run printed is declared, with the declared unit, and
   every declared metric of that kind was printed. *)
let check_printed decls (printed : (string * string) list) =
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun d -> d.name = name) decls with
      | None -> fail "printed metric %S is not declared in BENCHMARK.json" name
      | Some d when d.unit_ <> unit_ ->
          fail "metric %S printed in %S but declared in %S" name unit_ d.unit_
      | Some _ -> ())
    printed;
  List.iter
    (fun d ->
      if not (List.mem_assoc d.name printed) then
        fail "declared metric %S was not printed" d.name)
    decls
