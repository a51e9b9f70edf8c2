(* Differential fuzzing of the k-mismatch engines: seeded adversarial
   case generation, cross-engine checking against the naive reference,
   greedy shrinking of failures, and a tiny replayable corpus format.
   See oracle.mli for the contract. *)

type case = { text : string; pattern : string; k : int }

let make_case ~text ~pattern ~k =
  if pattern = "" then invalid_arg "Oracle.make_case: empty pattern";
  if k < 0 then invalid_arg "Oracle.make_case: negative k";
  let norm what s =
    match Dna.Sequence.of_string_opt s with
    | Some seq -> Dna.Sequence.to_string seq
    | None -> invalid_arg ("Oracle.make_case: non-ACGT character in " ^ what)
  in
  { text = norm "text" text; pattern = norm "pattern" pattern; k }

let case_to_string c =
  Printf.sprintf "text=%S pattern=%S k=%d" c.text c.pattern c.k

let pp_case ppf c = Format.pp_print_string ppf (case_to_string c)

(* ------------------------------------------------------------------ *)
(* Reference answer                                                    *)

let reference c = Stringmatch.Hamming.search ~pattern:c.pattern ~text:c.text ~k:c.k

(* ------------------------------------------------------------------ *)
(* Subjects                                                            *)

type subject = {
  sub_name : string;
  run : Kmismatch.index -> case -> (int * int) list option;
}

let engine_subject e =
  {
    sub_name = Kmismatch.engine_name e;
    run =
      (fun idx c ->
        let q = Kmismatch.Query.make ~engine:e ~pattern:c.pattern ~k:c.k () in
        Some (Kmismatch.run idx q).hits);
  }

(* The packed FM-index core as its own subject: a forward index of the
   text answers k = 0 queries through [find_all], covering the packed
   rank kernel, the sampled-SA locate walk and pattern validation
   against the naive reference. *)
let fm_packed_find_all =
  {
    sub_name = "fm-packed-find-all";
    run =
      (fun _ c ->
        if c.k <> 0 then None
        else
          let fm = Fmindex.Fm_index.build c.text in
          Some (List.map (fun p -> (p, 0)) (Fmindex.Fm_index.find_all fm c.pattern)));
  }

(* Persistence under fuzz: the index is saved (format v5), reloaded by
   Copy and by Mmap, and queried through m-tree and bidir on each
   reload; the four answers must agree, so a disagreement between the
   adopted buffers and a freshly built index, or between the two load
   modes, shows up as a divergence. *)
let fm_save_roundtrip =
  {
    sub_name = "fm-save-roundtrip";
    run =
      (fun idx c ->
        let path = Filename.temp_file "kmm-fuzz" ".fmi" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Kmismatch.save_index idx path;
            let answers =
              List.concat_map
                (fun (mode_name, mode) ->
                  let idx' = Kmismatch.load_index ~mode path in
                  List.map
                    (fun engine ->
                      let q = Kmismatch.Query.make ~engine ~pattern:c.pattern ~k:c.k () in
                      ( Printf.sprintf "%s/%s" mode_name (Kmismatch.engine_name engine),
                        (Kmismatch.run idx' q).hits ))
                    [ Kmismatch.M_tree; Kmismatch.Bidir ])
                [ ("copy", Fmindex.Fm_index.Copy); ("mmap", Fmindex.Fm_index.Mmap) ]
            in
            let first_name, first = List.hd answers in
            List.iter
              (fun (name, hits) ->
                if hits <> first then
                  failwith (Printf.sprintf "%s disagrees with %s" name first_name))
              answers;
            Some first));
  }

(* Format-v5 self-verification under fuzz: serialize a forward index of
   the case's text, then hit the image with a pseudo-random battery of
   fault plans (bit flips, truncations, ENOSPC-style prefixes).  Every
   corrupted image must either be rejected by [try_of_string] with a
   typed error, or — if a corruption happens to be a no-op — decode to
   an index whose text and [find_all] answers are byte-identical to the
   clean one.  A checksum blind spot therefore surfaces as an
   [Engine_error] divergence with the offending plan in the message.
   Runs on [k = 0] cases only (the hit list doubles as the reference
   check); other budgets are skipped, not failed. *)
let fm_image_corruption =
  {
    sub_name = "fm-image-corruption";
    run =
      (fun _ c ->
        if c.k <> 0 then None
        else begin
          let fm = Fmindex.Fm_index.build c.text in
          let image = Fmindex.Fm_index.serialize fm in
          let clean_hits = Fmindex.Fm_index.find_all fm c.pattern in
          let len = String.length image in
          let rng = Random.State.make [| Hashtbl.hash (c.text, c.pattern); len |] in
          let plans =
            List.init 12 (fun i ->
                match i mod 3 with
                | 0 ->
                    Fault.Bit_flip
                      { offset = Random.State.int rng len; bit = Random.State.int rng 8 }
                | 1 -> Fault.Truncate_at (Random.State.int rng len)
                | _ -> Fault.Enospc_after (Random.State.int rng len))
          in
          List.iter
            (fun plan ->
              let corrupted = Fault.corrupt_string plan image in
              match Fmindex.Fm_index.try_of_string corrupted with
              | Error _ -> ()
              | Ok fm' ->
                  (* Only acceptable if the corruption was a no-op. *)
                  if
                    Fmindex.Packed_text.to_string (Fmindex.Fm_index.packed_text fm')
                    <> c.text
                    || Fmindex.Fm_index.find_all fm' c.pattern <> clean_hits
                  then
                    failwith
                      (Printf.sprintf "corruption %s accepted with wrong contents"
                         (Fault.plan_to_string plan)))
            plans;
          Some (List.map (fun p -> (p, 0)) clean_hits)
        end);
  }

(* The word-parallel verification kernel as its own subject: scan every
   window of the packed forward text with [hamming ~limit:k], covering
   all four lane phases, the ragged final byte, the early exit and the
   pre-packed pattern masks against the naive reference.  A window
   within the limit is scanned to the end, so its count is exact. *)
let packed_verify =
  {
    sub_name = "packed-verify";
    run =
      (fun idx c ->
        let m = String.length c.pattern in
        let pt = Kmismatch.packed_text idx in
        let n = Fmindex.Packed_text.length pt in
        if m > n then Some []
        else begin
          let k = min c.k m in
          let pp = Fmindex.Packed_text.Pattern.make c.pattern in
          let acc = ref [] in
          for pos = n - m downto 0 do
            let d = Fmindex.Packed_text.hamming ~limit:k pt pp ~pos in
            if d <= k then acc := (pos, d) :: !acc
          done;
          Some !acc
        end);
  }

(* Batch mapping under fuzz: [Mapper.run] maps the pattern and its
   reverse complement as two reads, one per pool task, with m-tree and
   bidir on one and on two domains.  Every read's forward hits must be
   the naive scan of the text for it and its reverse hits the scan for
   its reverse complement, except that a read equal to its own reverse
   complement is reported once, on the forward strand.  A read longer
   than the text must be skipped as bad input, and no other read may be
   skipped.  The answer is read 0's forward hits from the first run. *)
let mapper =
  let scan c pattern = Stringmatch.Hamming.search ~pattern ~text:c.text ~k:c.k in
  {
    sub_name = "mapper";
    run =
      (fun idx c ->
        let rc = Dna.Sequence.(to_string (revcomp (of_string c.pattern))) in
        let reads = [ (0, c.pattern); (1, rc) ] in
        let too_long = String.length c.pattern > String.length c.text in
        let fwd = scan c c.pattern and rev = scan c rc in
        let expected read strand =
          match (read, strand) with
          | _, `Reverse when rc = c.pattern -> []
          | 0, `Forward | 1, `Reverse -> fwd
          | _ -> rev
        in
        let answers =
          List.map
            (fun (engine, domains) ->
              let what =
                Printf.sprintf "%s on %d domain(s)" (Kmismatch.engine_name engine) domains
              in
              let hits, summary =
                Mapper.run
                  { Mapper.default with engine; domains; chunk_size = 1 }
                  idx ~reads ~k:c.k
              in
              (match summary.Mapper.skipped with
              | [] when not too_long -> ()
              | [ (0, Kmm_error.Bad_input _); (1, Kmm_error.Bad_input _) ] when too_long -> ()
              | skipped ->
                  failwith
                    (Printf.sprintf "%s skipped reads [%s]" what
                       (String.concat "; " (List.map (fun (id, _) -> string_of_int id) skipped))));
              let got read strand =
                List.filter_map
                  (fun h ->
                    if h.Mapper.read_id = read && h.Mapper.strand = strand then
                      Some (h.Mapper.pos, h.Mapper.distance)
                    else None)
                  hits
              in
              List.iter
                (fun (read, strand) ->
                  if got read strand <> expected read strand then
                    failwith
                      (Printf.sprintf "%s: read %d's %s hits differ from the naive scan" what read
                         (match strand with `Forward -> "forward" | `Reverse -> "reverse")))
                [ (0, `Forward); (0, `Reverse); (1, `Forward); (1, `Reverse) ];
              got 0 `Forward)
            Kmismatch.[ (M_tree, 1); (M_tree, 2); (Bidir, 1); (Bidir, 2) ]
        in
        Some (List.hd answers));
  }

let default_subjects () =
  List.map engine_subject (Kmismatch.all_engines ())
  @ [
      packed_verify;
      fm_packed_find_all;
      fm_save_roundtrip;
      fm_image_corruption;
      mapper;
    ]

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

type outcome = Hits of (int * int) list | Engine_error of string

type divergence = {
  div_case : case;
  div_subject : string;
  expected : (int * int) list;
  got : outcome;
}

let pp_hits ppf hits =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (List.map (fun (p, d) -> Printf.sprintf "(%d,%d)" p d) hits))

let pp_divergence ppf d =
  Format.fprintf ppf "@[<v 2>engine %s diverges on %a:@ expected %a@ got      %s@]"
    d.div_subject pp_case d.div_case pp_hits d.expected
    (match d.got with
    | Hits h -> Format.asprintf "%a" pp_hits h
    | Engine_error msg -> "exception: " ^ msg)

(* Run one subject on one case against a prebuilt (lazy) index; [None]
   means agreement or not-applicable. *)
let check_one_lazy idx s c expected =
  let verdict =
    match s.run (Lazy.force idx) c with
    | None -> None
    | Some hits -> if hits = expected then None else Some (Hits hits)
    | exception e -> Some (Engine_error (Printexc.to_string e))
  in
  Option.map
    (fun got -> { div_case = c; div_subject = s.sub_name; expected; got })
    verdict

let check_case ?subjects c =
  let subjects = match subjects with Some s -> s | None -> default_subjects () in
  let expected = reference c in
  let idx = lazy (Kmismatch.build_index c.text) in
  List.filter_map (fun s -> check_one_lazy idx s c expected) subjects

let check_subject s c =
  check_one_lazy (lazy (Kmismatch.build_index c.text)) s c (reference c)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

type gen_class =
  | Uniform
  | Planted
  | Periodic
  | Homopolymer
  | Near_full
  | Boundary
  | Zero_k
  | Big_k
  | Single_char

let all_classes =
  [ Uniform; Planted; Periodic; Homopolymer; Near_full; Boundary; Zero_k; Big_k; Single_char ]

let class_name = function
  | Uniform -> "uniform"
  | Planted -> "planted"
  | Periodic -> "periodic"
  | Homopolymer -> "homopolymer"
  | Near_full -> "near-full"
  | Boundary -> "boundary"
  | Zero_k -> "zero-k"
  | Big_k -> "big-k"
  | Single_char -> "single-char"

let bases = [| 'a'; 'c'; 'g'; 't' |]
let rand_base st = bases.(Random.State.int st 4)
let rand_dna st n = String.init n (fun _ -> rand_base st)

(* Change up to [count] random positions of [s] to random bases. *)
let mutate st s count =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    for _ = 1 to count do
      Bytes.set b (Random.State.int st n) (rand_base st)
    done;
    Bytes.to_string b
  end

(* A pattern planted at [pos] in [text], with a few mutations. *)
let planted_at st text pos m muts = mutate st (String.sub text pos m) muts

let gen_in_class st cls ~max_text =
  let mt = max 4 max_text in
  match cls with
  | Uniform ->
      let n = Random.State.int st (mt + 1) in
      let m = 1 + Random.State.int st 24 in
      { text = rand_dna st n; pattern = rand_dna st m; k = Random.State.int st 7 }
  | Planted ->
      let n = 1 + Random.State.int st mt in
      let text = rand_dna st n in
      let m = 1 + Random.State.int st (min n 24) in
      let pos = Random.State.int st (n - m + 1) in
      let k = Random.State.int st 5 in
      { text; pattern = planted_at st text pos m (Random.State.int st (k + 2)); k }
  | Periodic ->
      let u = 1 + Random.State.int st 6 in
      let unit_ = rand_dna st u in
      let reps = 1 + Random.State.int st (max 1 (mt / u)) in
      let buf = Buffer.create (reps * u) in
      for _ = 1 to reps do
        Buffer.add_string buf unit_
      done;
      let text = String.sub (Buffer.contents buf) 0 (min mt (Buffer.length buf)) in
      let n = String.length text in
      let m = 1 + Random.State.int st (min n 20) in
      let pos = Random.State.int st (n - m + 1) in
      { text; pattern = planted_at st text pos m (Random.State.int st 3); k = Random.State.int st 5 }
  | Homopolymer ->
      let n = 1 + Random.State.int st mt in
      let buf = Buffer.create n in
      while Buffer.length buf < n do
        Buffer.add_string buf (String.make (1 + Random.State.int st 12) (rand_base st))
      done;
      let text = String.sub (Buffer.contents buf) 0 n in
      let m = 1 + Random.State.int st 14 in
      let pattern =
        if Random.State.bool st then mutate st (String.make m (rand_base st)) 1
        else String.make m (rand_base st)
      in
      { text; pattern; k = Random.State.int st 7 }
  | Near_full ->
      let n = 1 + Random.State.int st mt in
      let text = rand_dna st n in
      let m = max 1 (n - 2 + Random.State.int st 5) in
      let pattern =
        if m <= n then planted_at st text (if Random.State.bool st then 0 else n - m) m (Random.State.int st 4)
        else text ^ rand_dna st (m - n)
      in
      { text; pattern; k = Random.State.int st 5 }
  | Boundary ->
      let n = 2 + Random.State.int st (mt - 1) in
      let text = rand_dna st n in
      let m = 1 + Random.State.int st (min n 20) in
      let pos = if Random.State.bool st then 0 else n - m in
      { text; pattern = planted_at st text pos m (Random.State.int st 4); k = Random.State.int st 5 }
  | Zero_k ->
      let n = 1 + Random.State.int st mt in
      let text = rand_dna st n in
      let m = 1 + Random.State.int st (min n 20) in
      let pos = Random.State.int st (n - m + 1) in
      { text; pattern = planted_at st text pos m (Random.State.int st 2); k = 0 }
  | Big_k ->
      let n = Random.State.int st (mt + 1) in
      let m = 1 + Random.State.int st 8 in
      (* Mostly k slightly above m; sometimes absurd budgets, up to
         max_int, to smoke out overflow in k-derived arithmetic. *)
      let k =
        match Random.State.int st 8 with
        | 0 -> max_int
        | 1 -> m + (1 lsl (20 + Random.State.int st 40))
        | _ -> m + Random.State.int st 4
      in
      { text = rand_dna st n; pattern = rand_dna st m; k }
  | Single_char ->
      let b = rand_base st in
      let n = Random.State.int st (mt + 1) in
      let pattern =
        if Random.State.bool st then String.make (1 + Random.State.int st 12) b
        else rand_dna st (1 + Random.State.int st 6)
      in
      { text = String.make n b; pattern; k = Random.State.int st 4 }

let generate ?(classes = all_classes) ?(max_text = 160) st =
  if classes = [] then invalid_arg "Oracle.generate: empty class list";
  let cls = List.nth classes (Random.State.int st (List.length classes)) in
  gen_in_class st cls ~max_text

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let shrink ?(max_evals = 4000) still_fails c0 =
  let evals = ref 0 in
  let test c =
    !evals < max_evals
    && begin
         incr evals;
         try still_fails c with _ -> false
       end
  in
  let remove s size start =
    String.sub s 0 start ^ String.sub s (start + size) (String.length s - start - size)
  in
  (* Try chunk deletions of [s], biggest chunks first; [rebuild] plugs the
     candidate string back into a full case. *)
  let shrink_string c s rebuild ~min_len =
    let found = ref None in
    let n = String.length s in
    let size = ref n in
    while !found = None && !size >= 1 do
      if n - !size >= min_len then begin
        let start = ref 0 in
        while !found = None && !start + !size <= n do
          let cand = rebuild c (remove s !size !start) in
          if test cand then found := Some cand;
          start := !start + max 1 !size
        done
      end;
      size := (if !size = 1 then 0 else max 1 (!size / 2))
    done;
    !found
  in
  let shrink_k c =
    let cands =
      List.sort_uniq Int.compare (List.filter (fun k -> 0 <= k && k < c.k) [ 0; c.k / 2; c.k - 1 ])
    in
    List.find_map (fun k -> let cand = { c with k } in if test cand then Some cand else None) cands
  in
  (* Rewrite one non-'a' character to 'a'. *)
  let simplify_chars c =
    let try_str s rebuild =
      let n = String.length s in
      let rec go i =
        if i >= n then None
        else if s.[i] <> 'a' then begin
          let b = Bytes.of_string s in
          Bytes.set b i 'a';
          let cand = rebuild c (Bytes.to_string b) in
          if test cand then Some cand else go (i + 1)
        end
        else go (i + 1)
      in
      go 0
    in
    match try_str c.text (fun c s -> { c with text = s }) with
    | Some _ as r -> r
    | None -> try_str c.pattern (fun c s -> { c with pattern = s })
  in
  let improve c =
    match shrink_k c with
    | Some _ as r -> r
    | None -> (
        match shrink_string c c.text (fun c s -> { c with text = s }) ~min_len:0 with
        | Some _ as r -> r
        | None -> (
            match shrink_string c c.pattern (fun c s -> { c with pattern = s }) ~min_len:1 with
            | Some _ as r -> r
            | None -> simplify_chars c))
  in
  let rec fix c = match improve c with Some c' -> fix c' | None -> c in
  fix c0

let shrink_divergence ?subjects d =
  let subjects = match subjects with Some s -> s | None -> default_subjects () in
  match List.find_opt (fun s -> s.sub_name = d.div_subject) subjects with
  | None -> d.div_case
  | Some s -> shrink (fun c -> check_subject s c <> None) d.div_case

(* ------------------------------------------------------------------ *)
(* Fuzz driver                                                         *)

type report = {
  iters_run : int;
  by_class : (string * int) list;
  divergences : divergence list;
}

let fuzz ?subjects ?(classes = all_classes) ?(max_text = 160) ?progress ~seed ~iters () =
  if classes = [] then invalid_arg "Oracle.fuzz: empty class list";
  let subjects = match subjects with Some s -> s | None -> default_subjects () in
  let st = Random.State.make [| 0x6f7261; seed |] in
  let counts = Hashtbl.create 16 in
  let raw = ref [] in
  (* first divergence per subject, generation order *)
  for i = 1 to iters do
    (match progress with Some f -> f i | None -> ());
    let cls = List.nth classes (Random.State.int st (List.length classes)) in
    Hashtbl.replace counts (class_name cls)
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts (class_name cls)));
    let c = gen_in_class st cls ~max_text in
    let fresh =
      List.filter (fun s -> not (List.exists (fun d -> d.div_subject = s.sub_name) !raw)) subjects
    in
    if fresh <> [] then
      List.iter
        (fun d ->
          if not (List.exists (fun d' -> d'.div_subject = d.div_subject) !raw) then
            raw := d :: !raw)
        (check_case ~subjects:fresh c)
  done;
  let shrunk =
    List.rev_map
      (fun d ->
        let c' = shrink_divergence ~subjects d in
        match List.find_opt (fun s -> s.sub_name = d.div_subject) subjects with
        | None -> { d with div_case = c' }
        | Some s -> (
            match check_subject s c' with
            | Some d' -> d'
            | None -> d (* shrinking raced max_evals; keep the original *)))
      !raw
  in
  let by_class =
    List.sort
      (fun (n1, c1) (n2, c2) ->
        let c = String.compare n1 n2 in
        if c <> 0 then c else Int.compare c1 c2)
      (Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts [])
  in
  { iters_run = iters; by_class; divergences = shrunk }

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)

let corpus_to_string ?(comment = []) c =
  let b = Buffer.create 128 in
  List.iter (fun l -> Buffer.add_string b ("# " ^ l ^ "\n")) comment;
  Printf.bprintf b "k %d\n" c.k;
  Printf.bprintf b "pattern %s\n" c.pattern;
  if c.text = "" then Buffer.add_string b "text\n"
  else Printf.bprintf b "text %s\n" c.text;
  Buffer.contents b

let corpus_of_string doc =
  let k = ref None and pattern = ref None and text = ref None in
  let error = ref None in
  let set_err msg = if !error = None then error := Some msg in
  let handle lineno raw =
    let line = String.trim raw in
    if line = "" || line.[0] = '#' then ()
    else begin
      let key, value =
        match String.index_opt line ' ' with
        | None -> (line, "")
        | Some i ->
            (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
      in
      match key with
      | "k" -> (
          match int_of_string_opt value with
          | Some v -> k := Some v
          | None -> set_err (Printf.sprintf "line %d: bad k %S" lineno value))
      | "pattern" -> pattern := Some value
      | "text" -> text := Some value
      | _ -> set_err (Printf.sprintf "line %d: unknown key %S" lineno key)
    end
  in
  List.iteri (fun i l -> handle (i + 1) l) (String.split_on_char '\n' doc);
  match !error with
  | Some msg -> Error msg
  | None -> (
      match (!k, !pattern, !text) with
      | None, _, _ -> Error "missing 'k' line"
      | _, None, _ -> Error "missing 'pattern' line"
      | _, _, None -> Error "missing 'text' line"
      | Some k, Some pattern, Some text -> (
          match make_case ~text ~pattern ~k with
          | c -> Ok c
          | exception Invalid_argument msg -> Error msg))

let save_case ?comment path c =
  let oc = open_out_bin path in
  output_string oc (corpus_to_string ?comment c);
  close_out oc

let load_case path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let doc = really_input_string ic len in
  close_in ic;
  match corpus_of_string doc with
  | Ok c -> c
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let replay_file ?subjects path = check_case ?subjects (load_case path)

let replay_dir ?subjects dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, replay_file ?subjects path))
