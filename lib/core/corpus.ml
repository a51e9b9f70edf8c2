(* A searchable reference that is either one monolithic index or a
   sharded set of overlapping FM-indexes tied together by a manifest.
   See corpus.mli for the coverage argument and the manifest grammar. *)

type shard = {
  s_off : int;  (* global position of the shard's first owned base *)
  s_owned : int;  (* bases this shard answers for *)
  s_stored : int;  (* bases actually indexed (owned + overlap tail) *)
  s_index : Kmismatch.index;
}

type t =
  | Mono of Kmismatch.index
  | Sharded of { shards : shard array; total : int; overlap : int }

let default_overlap = 1023

let mono idx = Mono idx

let length = function
  | Mono idx -> Kmismatch.length idx
  | Sharded { total; _ } -> total

let nshards = function Mono _ -> 1 | Sharded { shards; _ } -> Array.length shards

let overlap = function Mono _ -> None | Sharded { overlap; _ } -> Some overlap

(* A single-shard corpus stores the whole text, so the overlap ceiling
   only binds when a match could genuinely straddle a shard boundary. *)
let max_query = function
  | Mono idx -> Kmismatch.length idx
  | Sharded { shards; total; overlap } ->
      if Array.length shards <= 1 then total else min (overlap + 1) total

let limit_msg ~limit m =
  Printf.sprintf
    "pattern of %d bp exceeds the corpus query limit of %d bp (shard \
     overlap + 1); rebuild with a larger --shard-overlap"
    m limit

(* Sum per-phase timings across shards, label order of first appearance. *)
let merge_timings acc ts =
  List.fold_left
    (fun acc (label, v) ->
      if List.mem_assoc label acc then
        List.map (fun (l, w) -> if l = label then (l, w +. v) else (l, w)) acc
      else acc @ [ (label, v) ])
    acc ts

let try_run t (q : Kmismatch.Query.t) =
  match t with
  | Mono idx -> Kmismatch.try_run idx q
  | Sharded { shards; total; _ } -> (
      let m = String.length q.Kmismatch.Query.pattern in
      let limit = max_query t in
      if Array.length shards > 1 && m <= total && m > limit then
        Error (Kmm_error.Bad_input (limit_msg ~limit m))
      else begin
        (* Sequential fan-out: the mapper already fans reads out across
           domains, and a per-query fan-out would spawn domains for
           every query of every read.  Shard order = ascending
           global offset, and each shard reports ascending local
           positions over a disjoint owned range, so plain concatenation
           is globally sorted. *)
        let stats = Stats.create () in
        let rec loop i timings acc =
          if i = Array.length shards then
            Ok
              {
                Kmismatch.Response.hits = List.concat (List.rev acc);
                stats;
                timings;
              }
          else
            let sh = shards.(i) in
            match Kmismatch.try_run sh.s_index q with
            | Error e -> Error e
            | Ok r ->
                Stats.merge ~into:stats r.Kmismatch.Response.stats;
                let hits =
                  List.filter_map
                    (fun (pos, d) ->
                      (* The owning shard reports a boundary-straddling
                         match; the overlap tail only exists so it can. *)
                      if pos < sh.s_owned then Some (pos + sh.s_off, d)
                      else None)
                    r.Kmismatch.Response.hits
                in
                loop (i + 1)
                  (merge_timings timings r.Kmismatch.Response.timings)
                  (hits :: acc)
        in
        loop 0 [] []
      end)

let run t q =
  match try_run t q with
  | Ok r -> r
  | Error (Kmm_error.Bad_input msg) -> invalid_arg msg
  | Error e -> Kmm_error.raise_error e

let target t =
  match t with
  | Mono idx -> Mapper.target_of_index idx
  | Sharded { shards; total; _ } ->
      let limit = max_query t in
      {
        Mapper.tgt_length = total;
        tgt_max_read = limit;
        tgt_limit_msg =
          (fun m ->
            Printf.sprintf
              "read of %d bp exceeds the corpus query limit of %d bp \
               (shard overlap + 1)"
              m limit);
        tgt_prepare =
          (fun engine ->
            Array.iter
              (fun sh ->
                (Mapper.target_of_index sh.s_index).Mapper.tgt_prepare engine)
              shards);
        tgt_run = (fun q -> try_run t q);
        (* Global hit positions span shard boundaries; there is no
           single packed text to re-check them against.  (Each shard's
           own engines still verify word-parallel.) *)
        tgt_packed = (fun () -> None);
      }

(* ------------------------------------------------------------------ *)
(* Building                                                            *)

let shard_specs ~total ~shard_size ~overlap =
  let nshards = max 1 ((total + shard_size - 1) / shard_size) in
  Array.init nshards (fun i ->
      let off = i * shard_size in
      let owned = min shard_size (total - off) in
      let stored = min (owned + overlap) (total - off) in
      (off, owned, stored))

let build ?occ_rate ?sa_rate ?shard_size ?(overlap = default_overlap) ?domains
    text =
  match shard_size with
  | None -> Mono (Kmismatch.build_index ?occ_rate ?sa_rate text)
  | Some shard_size ->
      if shard_size < 1 then
        invalid_arg "Corpus.build: shard_size must be >= 1";
      if overlap < 0 then invalid_arg "Corpus.build: overlap must be >= 0";
      (* Normalize once so every shard sees identical bases and an
         invalid character is reported against the whole input. *)
      let text = Dna.Sequence.to_string (Dna.Sequence.of_string text) in
      let total = String.length text in
      let specs = shard_specs ~total ~shard_size ~overlap in
      let shards = Array.make (Array.length specs) None in
      let domains =
        match domains with
        | Some d ->
            if d < 1 then invalid_arg "Corpus.build: domains must be >= 1";
            min d (Array.length specs)
        | None -> 1
      in
      (* Shard builds are independent; slot [task] receives shard [task]
         no matter which domain built it, so the corpus is deterministic
         at any domain count.  Each shard builds both of its rank sides
         on its own domain ([~parallel:false]): a helper domain per
         shard task could push the process past the runtime's domain
         limit. *)
      Work_pool.with_pool ~domains (fun pool ->
          Work_pool.run pool ~tasks:(Array.length specs)
            (fun ~worker:_ ~task ->
              let off, owned, stored = specs.(task) in
              let idx =
                Kmismatch.build_index ?occ_rate ?sa_rate ~parallel:false
                  (String.sub text off stored)
              in
              shards.(task) <-
                Some { s_off = off; s_owned = owned; s_stored = stored; s_index = idx }));
      Sharded
        { shards = Array.map Option.get shards; total; overlap }

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let manifest_magic = "kmm-manifest"

let shard_file_name base i = Printf.sprintf "%s.shard%03d.fmi" base i

type entry = {
  e_off : int;
  e_owned : int;
  e_stored : int;
  e_crc : int;
  e_file : string;  (* relative to the manifest's directory *)
}

type manifest = { m_total : int; m_overlap : int; m_entries : entry array }

let save t path =
  match t with
  | Mono idx -> Kmismatch.save_index idx path
  | Sharded { shards; total; overlap } ->
      let dir = Filename.dirname path in
      let base = Filename.basename path in
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "%s 1 %d %d %d\n" manifest_magic (Array.length shards)
           total overlap);
      Array.iteri
        (fun i sh ->
          let fname = shard_file_name base i in
          let image = Fmindex.Fm_index.serialize (Kmismatch.fm_rev sh.s_index) in
          Fmindex.Fm_index.write_atomic image (Filename.concat dir fname);
          Buffer.add_string buf
            (Printf.sprintf "shard %d %d %d %08x %s\n" sh.s_off sh.s_owned
               sh.s_stored (Fmindex.Crc32.string image) fname))
        shards;
      Buffer.add_string buf
        (Printf.sprintf "hcrc %08x\n" (Fmindex.Crc32.string (Buffer.contents buf)));
      (* The manifest is written last: a crash mid-save leaves shard
         files without a manifest naming them, never a manifest pointing
         at missing or half-written shards. *)
      Fmindex.Fm_index.write_atomic (Buffer.contents buf) path

exception Fail of Kmm_error.t

let fail e = raise (Fail e)
let corrupt msg = fail (Kmm_error.Corrupt (Kmm_error.Header, msg))

let int_field what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> corrupt (Printf.sprintf "corrupt manifest: bad %s" what)

let hex_field what s =
  if String.length s <> 8 then
    corrupt (Printf.sprintf "corrupt manifest: bad %s" what)
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> corrupt (Printf.sprintf "corrupt manifest: bad %s" what)

let parse_manifest content =
  let lines = String.split_on_char '\n' content in
  match lines with
  | first :: rest -> (
      match String.split_on_char ' ' first with
      | [ magic; version; nshards; total; overlap ]
        when magic = manifest_magic -> (
          (match version with
          | "1" -> ()
          | v -> (
              match int_of_string_opt v with
              | Some v -> fail (Kmm_error.Unsupported_version v)
              | None -> corrupt "corrupt manifest: bad version"));
          let nshards = int_field "shard count" nshards in
          let total = int_field "total length" total in
          let overlap = int_field "overlap" overlap in
          if nshards < 1 then corrupt "corrupt manifest: no shards";
          let entries = Array.make nshards None in
          let rec shard_lines i = function
            | [] | [ "" ] -> fail (Kmm_error.Truncated "manifest")
            | line :: rest when i < nshards -> (
                match String.split_on_char ' ' line with
                | [ "shard"; off; owned; stored; crc; file ] when file <> "" ->
                    entries.(i) <-
                      Some
                        {
                          e_off = int_field "shard offset" off;
                          e_owned = int_field "shard owned length" owned;
                          e_stored = int_field "shard stored length" stored;
                          e_crc = hex_field "shard checksum" crc;
                          e_file = file;
                        };
                    shard_lines (i + 1) rest
                | _ -> corrupt "corrupt manifest: bad shard line")
            | line :: rest -> (
                (* hcrc line, then exactly the final newline's residue *)
                (match rest with
                | [] | [ "" ] -> ()
                | _ -> corrupt "corrupt manifest: trailing garbage");
                match String.split_on_char ' ' line with
                | [ "hcrc"; crc ] ->
                    let stored = hex_field "header checksum" crc in
                    let body_len =
                      (* everything before the hcrc line *)
                      String.length content - (String.length line + 1)
                    in
                    if body_len < 0 then fail (Kmm_error.Truncated "manifest");
                    let actual =
                      Fmindex.Crc32.sub content ~pos:0 ~len:body_len
                    in
                    if actual <> stored then
                      corrupt "corrupt manifest: header checksum mismatch"
                | _ -> fail (Kmm_error.Truncated "manifest"))
          in
          shard_lines 0 rest;
          let entries = Array.map Option.get entries in
          (* Geometry: shards tile [0, total) in order, each storing its
             owned range plus at most [overlap] bases of tail. *)
          let cur = ref 0 in
          Array.iteri
            (fun i e ->
              if e.e_off <> !cur then corrupt "corrupt manifest: shard offsets do not tile";
              if e.e_owned < 1 && total > 0 then
                corrupt "corrupt manifest: empty shard";
              if
                e.e_stored < e.e_owned
                || e.e_stored > e.e_owned + overlap
                || e.e_off + e.e_stored > total
                || (i = nshards - 1 && e.e_off + e.e_owned <> total)
              then corrupt "corrupt manifest: bad shard geometry";
              cur := e.e_off + e.e_owned)
            entries;
          if total > 0 && !cur <> total then
            corrupt "corrupt manifest: shards do not cover the corpus";
          { m_total = total; m_overlap = overlap; m_entries = entries })
      | magic :: _ when magic = manifest_magic ->
          corrupt "corrupt manifest: bad header line"
      | _ -> fail Kmm_error.Bad_magic)
  | [] -> fail Kmm_error.Bad_magic

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let r = input ic chunk 0 (Bytes.length chunk) in
        if r > 0 then begin
          Buffer.add_subbytes buf chunk 0 r;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let try_read_manifest path =
  match read_file path with
  | exception (Sys_error _ as e) -> Error (Kmm_error.Io e)
  | content -> ( try Ok (parse_manifest content) with Fail e -> Error e)

let is_manifest path =
  match
    In_channel.with_open_bin path (fun ic ->
        let b = Bytes.create (String.length manifest_magic) in
        match In_channel.really_input ic b 0 (Bytes.length b) with
        | Some () -> Bytes.to_string b = manifest_magic
        | None -> false)
  with
  | v -> v
  | exception Sys_error _ -> false

let load_manifest ?mode path =
  match try_read_manifest path with
  | Error e -> Error e
  | Ok { m_total; m_overlap; m_entries } -> (
      let dir = Filename.dirname path in
      let shards = Array.make (Array.length m_entries) None in
      let rec load_all i =
        if i = Array.length m_entries then Ok ()
        else
          let e = m_entries.(i) in
          match Kmismatch.try_load_index ?mode (Filename.concat dir e.e_file) with
          | Error err -> Error err
          | Ok idx ->
              if Kmismatch.length idx <> e.e_stored then
                Error
                  (Kmm_error.Corrupt
                     ( Kmm_error.Header,
                       Printf.sprintf
                         "corrupt manifest: shard %d length %d disagrees \
                          with its index (%d)"
                         i e.e_stored (Kmismatch.length idx) ))
              else begin
                shards.(i) <-
                  Some
                    {
                      s_off = e.e_off;
                      s_owned = e.e_owned;
                      s_stored = e.e_stored;
                      s_index = idx;
                    };
                load_all (i + 1)
              end
      in
      match load_all 0 with
      | Error e -> Error e
      | Ok () ->
          Ok
            (Sharded
               {
                 shards = Array.map Option.get shards;
                 total = m_total;
                 overlap = m_overlap;
               }))

let try_load ?mode path =
  if is_manifest path then load_manifest ?mode path
  else Result.map mono (Kmismatch.try_load_index ?mode path)

let load ?mode path =
  match try_load ?mode path with
  | Ok t -> t
  | Error (Kmm_error.Io e) -> raise e
  | Error e -> failwith (Kmm_error.to_string e)
