type hit = {
  read_id : int;
  pos : int;
  strand : [ `Forward | `Reverse ];
  distance : int;
}

type summary = {
  total : int;
  mapped : int;
  unique : int;
  ambiguous : int;
  skipped : (int * Kmm_error.t) list;
}

let deterministic_summary s = s

let default_chunk_size = 16

type options = {
  engine : Kmismatch.engine;
  both_strands : bool;
  domains : int;
  chunk_size : int;
  obs : Obs.t;
  deadline : Deadline.t;
}

let default =
  {
    engine = Kmismatch.Bidir;
    both_strands = true;
    domains = 1;
    chunk_size = default_chunk_size;
    obs = Obs.noop;
    deadline = Deadline.none;
  }

(* Classify a read the engines cannot process, so one bad record degrades
   to a [skipped] entry instead of an exception that aborts the batch.
   The checks mirror the engines' preconditions: nonempty, ACGT-only
   (case folded), and no longer than the reference.  A valid read comes
   back normalized: this table pass is the only time the mapper folds
   its case. *)
let validate_read ~len sequence =
  let m = String.length sequence in
  if m = 0 then Error (Kmm_error.Bad_input "empty read")
  else
    match Dna.Sequence.of_string_opt sequence with
    | None ->
        let i = ref 0 in
        while Dna.Alphabet.is_base sequence.[!i] do
          incr i
        done;
        Error
          (Kmm_error.Bad_input
             (Printf.sprintf "invalid base %C at offset %d" sequence.[!i] !i))
    | Some seq ->
        if m > len then
          Error
            (Kmm_error.Bad_input
               (Printf.sprintf "read of %d bp exceeds the %d bp reference" m len))
        else Ok seq

(* A query the index refused after validation passed — surfaced as the
   read's own skip reason, never as a batch abort. *)
exception Skip of Kmm_error.t

(* Re-check an engine's hits against the reversed packed text [rt]:
   every reported (position, distance) must agree with the word-parallel
   kernel, which reads window [pos] of the text as window [n - pos - m]
   of [rt] against the reversed pattern.  An engine answer the kernel
   refutes, or a window outside the text, is a bug, and it costs
   exactly this read — a typed [Internal] skip, never a batch abort.  One kernel call per hit
   (limit = the claimed distance, so refutation early-exits); with
   [obs] as the ambient sink, re-checking effort lands in the same
   [verify.*] taps as the engines' own verification. *)
let recheck ~obs rt ~pattern hits =
  match hits with
  | [] -> ()
  | _ ->
      let rpp = Fmindex.Packed_text.Pattern.make_rev pattern in
      let back = Fmindex.Packed_text.length rt - String.length pattern in
      Obs.with_ambient obs (fun () ->
          List.iter
            (fun (pos, distance) ->
              if
                pos < 0 || pos > back
                || Fmindex.Packed_text.hamming ~limit:distance rt rpp ~pos:(back - pos)
                   <> distance
              then
                raise
                  (Skip
                     (Kmm_error.Internal
                        (Printf.sprintf
                           "hit re-check: engine hit (pos %d, distance %d) \
                            disagrees with packed verification"
                           pos distance))))
            hits)

(* Map one validated read: all forward hits, then all reverse-complement
   hits, in the order the engine reports them.  Pure with respect to the
   index, so reads can be fanned out across domains freely.  Hits are
   re-checked on the index's own payload [rt], the reversed text, so
   re-checking reverses nothing. *)
let map_one ~obs ~engine ~both_strands ~deadline index rt ~k read_id seq =
  let sequence = Dna.Sequence.to_string seq in
  let search strand pattern =
    match
      Kmismatch.try_run index (Kmismatch.Query.make ~obs ~deadline ~engine ~pattern ~k ())
    with
    | Error e -> raise (Skip e)
    | Ok r ->
        recheck ~obs rt ~pattern r.Kmismatch.Response.hits;
        List.map
          (fun (pos, distance) -> { read_id; pos; strand; distance })
          r.Kmismatch.Response.hits
  in
  let fwd = search `Forward sequence in
  let rev =
    if both_strands then begin
      let rc = Dna.Sequence.to_string (Dna.Sequence.revcomp seq) in
      (* A palindromic read would report each site twice. *)
      if rc = sequence then [] else search `Reverse rc
    end
    else []
  in
  fwd @ rev

(* Output order: read id, then position, then strand, with [`Reverse]
   before [`Forward]: polymorphic [compare]'s order of the two
   constructors, kept so that [kmm map] output stays byte-identical.
   Typed fields allocate nothing per comparison. *)
let strand_rank = function `Reverse -> 0 | `Forward -> 1

let compare_hits a b =
  let c = Int.compare a.read_id b.read_id in
  if c <> 0 then c
  else
    let c = Int.compare a.pos b.pos in
    if c <> 0 then c else Int.compare (strand_rank a.strand) (strand_rank b.strand)

let run opts index ~reads ~k =
  let { engine; both_strands; domains; chunk_size; obs; deadline } = opts in
  if domains < 1 then invalid_arg "Mapper.run: domains must be >= 1";
  if chunk_size < 1 then invalid_arg "Mapper.run: chunk_size must be >= 1";
  let t0 = Obs.Clock.now_ns () in
  let reads = Array.of_list reads in
  let n = Array.length reads in
  let bounds = Work_pool.chunks ~total:n ~chunk_size in
  (* Never keep more domains than there are chunks of work. *)
  let domains = max 1 (min domains (Array.length bounds)) in
  (* Force shared derived state (suffix tree, unpacked text) before the
     fan-out so workers don't serialize on its first use — on one domain
     too, so that map.prepare_ns, not map.search_ns, carries its cost. *)
  Kmismatch.prepare engine index;
  let ref_len = Kmismatch.length index in
  let rt = Fmindex.Fm_index.packed_text (Kmismatch.fm_rev index) in
  (* Per-domain sinks, merged in worker-index order at the end, so the
     reported totals match a sequential run exactly.  ([Obs.fork] of the
     noop sink is noop: observability off costs one branch per read.) *)
  let worker_obs = Array.init domains (fun _ -> Obs.fork obs) in
  (* Slot [i] receives read [i]'s hits — or its skip reason — no matter
     which domain computed them: the merge (and therefore the skipped
     list) is deterministic by construction.  A fault in one read never
     reaches the pool: it is caught here, recorded in the read's own
     slot, and the rest of the batch proceeds — so the byte-identical
     seq≡par guarantee holds for the surviving reads. *)
  let per_read = Array.make n [] in
  let skip_slot = Array.make n None in
  let expired_msg = "batch deadline expired before this read was searched" in
  let t1 = Obs.Clock.now_ns () in
  Work_pool.with_pool ~domains (fun pool ->
      Work_pool.run ~obs:worker_obs pool ~tasks:(Array.length bounds)
        (fun ~worker ~task ->
          let o = worker_obs.(worker) in
          let start, len = bounds.(task) in
          for i = start to start + len - 1 do
            let read_id, sequence = reads.(i) in
            (* Coarse per-read checkpoint: a read started after expiry
               sheds immediately; one already in flight is cut by the
               engine polls through the query's own deadline. *)
            if Deadline.expired deadline then begin
              skip_slot.(i) <- Some (Kmm_error.Timeout expired_msg);
              Obs.incr o Obs.Counter.map_reads_skipped
            end
            else
              match validate_read ~len:ref_len sequence with
              | Error e ->
                  skip_slot.(i) <- Some e;
                  Obs.incr o Obs.Counter.map_reads_skipped
              | Ok seq -> (
                  let map () =
                    map_one ~obs:o ~engine ~both_strands ~deadline index rt ~k read_id seq
                  in
                  match Obs.time o Obs.Hist.map_read_ns map with
                  | hits ->
                      per_read.(i) <- hits;
                      if Obs.enabled o then begin
                        Obs.incr o Obs.Counter.map_reads;
                        (* Hit multiplicity is a function of the input
                           alone — the histogram merges bit-for-bit
                           across any domain count. *)
                        Obs.record o Obs.Hist.map_read_hits (List.length hits)
                      end
                  | exception Skip e ->
                      (* The index refused the query after validation —
                         the read's own typed skip, not a batch abort. *)
                      Obs.incr o Obs.Counter.map_reads_skipped;
                      skip_slot.(i) <- Some e
                  | exception e ->
                      (* An engine exception on a validated read is a
                         bug, but it still only costs this one read. *)
                      Obs.incr o Obs.Counter.map_reads_failed;
                      skip_slot.(i) <-
                        Some (Kmm_error.Internal (Printexc.to_string e)))
          done));
  let t2 = Obs.Clock.now_ns () in
  (* Worker-index order: deterministic merge of deterministic metrics. *)
  Array.iter (fun o -> Obs.merge ~into:obs o) worker_obs;
  let mapped = ref 0 and unique = ref 0 and ambiguous = ref 0 in
  Array.iteri
    (fun i hits ->
      match (skip_slot.(i), hits) with
      | Some _, _ | None, [] -> ()
      | None, [ _ ] ->
          incr mapped;
          incr unique
      | None, _ :: _ :: _ ->
          incr mapped;
          incr ambiguous)
    per_read;
  let skipped = ref [] in
  for i = n - 1 downto 0 do
    match skip_slot.(i) with
    | Some e -> skipped := (fst reads.(i), e) :: !skipped
    | None -> ()
  done;
  let hits = List.sort compare_hits (List.concat (Array.to_list per_read)) in
  let t3 = Obs.Clock.now_ns () in
  Obs.record obs Obs.Hist.map_prepare_ns (t1 - t0);
  Obs.record obs Obs.Hist.map_search_ns (t2 - t1);
  Obs.record obs Obs.Hist.map_merge_ns (t3 - t2);
  ( hits,
    {
      total = n;
      mapped = !mapped;
      unique = !unique;
      ambiguous = !ambiguous;
      skipped = !skipped;
    } )

let best_hits hits =
  let best = Hashtbl.create 64 in
  List.iter
    (fun h ->
      match Hashtbl.find_opt best h.read_id with
      | Some d when d <= h.distance -> ()
      | _ -> Hashtbl.replace best h.read_id h.distance)
    hits;
  List.filter (fun h -> Hashtbl.find best h.read_id = h.distance) hits

let to_tsv hits =
  let buf = Buffer.create 256 in
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "%d\t%d\t%c\t%d\n" h.read_id h.pos
           (match h.strand with `Forward -> '+' | `Reverse -> '-')
           h.distance))
    hits;
  Buffer.contents buf
