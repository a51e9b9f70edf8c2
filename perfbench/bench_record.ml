(* One row schema for every perfbench run: provenance, workload, seed,
   the end-to-end metrics, the per-layer metrics of a traced run, and —
   for a metric summarizing several measurements inside the run — the
   repeat count and the spread.  Rows are appended as JSON lines
   (perfbench/results/suite.jsonl by default); compare.exe reads two
   such files.  The JSON codec is the daemon's own ([Protocol.Json]). *)

module Json = Kmm_server.Protocol.Json

(* --- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the value at rank ceil (q * n) of the sorted sample. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (the default, "exclusive"
   method), so the spreads printed here are the ones a Python reader of
   the records computes.  Needs at least two values. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld < 2 then (nan, nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median; 0 below four values,
   where quartiles say nothing. *)
let spread xs =
  if Array.length xs < 4 then 0.
  else
    let q1, q2, q3 = quartiles xs in
    if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* --- the record -------------------------------------------------------- *)

type meta = {
  git_rev : string;
  ocaml : string;
  hostname : string;
  timestamp_utc : string;
  cores : int;  (** what the host offers ([Domain.recommended_domain_count]) *)
  domains : int;  (** what this run's parallel phases used *)
}

type metric = {
  name : string;
  value : float;
  unit_ : string;
  repeats : int;  (** measurements the value summarizes *)
  spread : float;  (** IQR / median of those measurements *)
}

type t = {
  meta : meta;
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  host_scale : float;  (** what the end-to-end times were multiplied by (hostspeed.ml) *)
  e2e : metric list;
  layers : metric list;
}

let metric ?(repeats = 1) ?(spread = 0.) name unit_ value =
  { name; value; unit_; repeats; spread }

(* A metric reported as the median of [samples], with their spread. *)
let of_samples name unit_ samples =
  if Array.length samples = 0 then failwith (name ^ ": nothing was measured");
  metric ~repeats:(Array.length samples) ~spread:(spread samples) name unit_
    (median samples)

(* A metric reported as the smallest of [samples] (the shortest of
   several timings of the same work), with their spread. *)
let of_best name unit_ samples =
  if Array.length samples = 0 then failwith (name ^ ": nothing was measured");
  metric ~repeats:(Array.length samples) ~spread:(spread samples) name unit_
    (Array.fold_left Float.min infinity samples)

(* [m] with its value multiplied by [s], a host-speed scale
   (hostspeed.ml). *)
let scaled s m = { m with value = m.value *. s }

(* [keep_best best i t]: [best.(i)] becomes the shorter of itself and [t]. *)
let keep_best best i t = best.(i) <- Float.min best.(i) t

(* Provenance from the repository's shared probes ([Bench_meta]), with
   the host's core count and the run's own domain count kept apart. *)
let meta ~domains =
  {
    git_rev = Bench_meta.git_rev ();
    ocaml = Sys.ocaml_version;
    hostname = Bench_meta.hostname ();
    timestamp_utc = Bench_meta.timestamp_utc ();
    cores = Domain.recommended_domain_count ();
    domains;
  }

let metric_json m =
  Json.Obj
    [
      ("name", Json.String m.name);
      ("value", Json.Float m.value);
      ("unit", Json.String m.unit_);
      ("repeats", Json.Int m.repeats);
      ("spread", Json.Float m.spread);
    ]

let to_json r =
  let m = r.meta in
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("git_rev", Json.String m.git_rev);
            ("ocaml", Json.String m.ocaml);
            ("hostname", Json.String m.hostname);
            ("timestamp_utc", Json.String m.timestamp_utc);
            ("cores", Json.Int m.cores);
            ("domains", Json.Int m.domains);
          ] );
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("host_scale", Json.Float r.host_scale);
      ("e2e", Json.List (List.map metric_json r.e2e));
      ("layers", Json.List (List.map metric_json r.layers));
    ]

(* --- reading back (compare.exe) --------------------------------------- *)

let field key conv j =
  match Option.bind (Json.member key j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "record: missing or mistyped field %S" key)

let str = function Json.String s -> Some s | _ -> None
let int = function Json.Int n -> Some n | _ -> None
let bool = function Json.Bool b -> Some b | _ -> None
let num = function Json.Int n -> Some (float_of_int n) | Json.Float f -> Some f | _ -> None
let list = function Json.List l -> Some l | _ -> None

let metric_of_json j =
  {
    name = field "name" str j;
    value = field "value" num j;
    unit_ = field "unit" str j;
    repeats = field "repeats" int j;
    spread = field "spread" num j;
  }

let of_json j =
  let m = field "meta" Option.some j in
  {
    meta =
      {
        git_rev = field "git_rev" str m;
        ocaml = field "ocaml" str m;
        hostname = field "hostname" str m;
        timestamp_utc = field "timestamp_utc" str m;
        cores = field "cores" int m;
        domains = field "domains" int m;
      };
    workload = field "workload" str j;
    seed = field "seed" int j;
    seconds = field "seconds" int j;
    traced = field "traced" bool j;
    correct = field "correct" bool j;
    attempted = field "attempted" int j;
    failed = field "failed" int j;
    host_scale = field "host_scale" num j;
    e2e = List.map metric_of_json (field "e2e" list j);
    layers = List.map metric_of_json (field "layers" list j);
  }

let append path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json r) ^ "\n"))

let read_all path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc (lineno + 1)
        | line -> (
            match Json.of_string line with
            | Ok j -> go (of_json j :: acc) (lineno + 1)
            | Error e -> failwith (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      go [] 1)
