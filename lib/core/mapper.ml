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
  stats : Stats.t;
  timings : (string * float) list;
}

let deterministic_summary s = { s with timings = [] }

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

(* What the mapper actually needs from the thing it maps against — a
   monolithic {!Kmismatch.index} or a sharded {!Corpus.t} — abstracted so
   the fan-out/merge machinery is written once.  [tgt_run] must be pure
   with respect to the target (safe to call from any domain) and report
   hits in the target's global coordinates. *)
type target = {
  tgt_length : int;  (** total reference length (reporting) *)
  tgt_max_read : int;  (** longest read the target can answer *)
  tgt_limit_msg : int -> string;  (** skip reason for an oversize read *)
  tgt_prepare : Kmismatch.engine -> unit;
      (** force shared derived state before fan-out *)
  tgt_run : Kmismatch.Query.t -> (Kmismatch.Response.t, Kmm_error.t) result;
  tgt_packed : unit -> Fmindex.Packed_text.t option;
      (** the reversed packed text hits can be re-checked against, when
          the target has a single coordinate space ([None] for sharded
          corpora, whose global positions span shard boundaries) *)
}

let target_of_index index =
  let len = Kmismatch.length index in
  {
    tgt_length = len;
    tgt_max_read = len;
    tgt_limit_msg =
      (fun m ->
        Printf.sprintf "read of %d bp exceeds the %d bp reference" m len);
    tgt_prepare =
      (fun engine ->
        (* The memos under the derived index components are domain-safe,
           but forcing the ones the run needs before fan-out keeps the
           workers from serializing on the first force.  Each registry
           entry knows what its engine reads. *)
        match Kmismatch.Engine_registry.find engine with
        | Some entry -> entry.Kmismatch.Engine_registry.prepare index
        | None -> ());
    tgt_run = (fun q -> Kmismatch.try_run index q);
    (* The index's own payload: re-checking reverses nothing. *)
    tgt_packed =
      (fun () -> Some (Fmindex.Fm_index.packed_text (Kmismatch.fm_rev index)));
  }

(* Classify a read the engines cannot process, so one bad record degrades
   to a [skipped] entry instead of an exception that aborts the batch.
   The checks mirror the engines' preconditions: nonempty, ACGT-only
   (case folded), and no longer than the target can answer.  A valid
   read comes back normalized: this table pass is the only time the
   mapper folds its case. *)
let validate_read ~target sequence =
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
        if m > target.tgt_max_read then
          Error (Kmm_error.Bad_input (target.tgt_limit_msg m))
        else Ok seq

(* A query the target refused after validation passed — surfaced as the
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
   target, so reads can be fanned out across domains freely. *)
let map_one ~stats ~obs ~engine ~both_strands ~deadline target ~k read_id seq =
  let sequence = Dna.Sequence.to_string seq in
  let search strand pattern =
    match
      target.tgt_run (Kmismatch.Query.make ~obs ~deadline ~engine ~pattern ~k ())
    with
    | Error e -> raise (Skip e)
    | Ok r ->
        Stats.merge ~into:stats r.Kmismatch.Response.stats;
        (match target.tgt_packed () with
        | Some rt -> recheck ~obs rt ~pattern r.Kmismatch.Response.hits
        | None -> ());
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

let run_target opts target ~reads ~k =
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
     too, so that the "prepare" phase, not "search", carries its cost. *)
  target.tgt_prepare engine;
  (* Per-domain counters and sinks, merged in worker-index order at the
     end, so the reported totals match a sequential run exactly.
     ([Obs.fork] of the noop sink is noop: observability off costs one
     branch per read.) *)
  let worker_stats = Array.init domains (fun _ -> Stats.create ()) in
  let worker_obs = Array.init domains (fun _ -> Obs.fork obs) in
  (* Slot [i] receives read [i]'s hits — or its skip reason — no matter
     which domain computed them: the merge (and therefore the skipped
     list) is deterministic by construction.  A fault in one read never
     reaches the pool: it is caught here, recorded in the read's own
     slot, and the rest of the batch proceeds — so the byte-identical
     seq≡par guarantee holds for the surviving reads. *)
  let per_read = Array.make n [] in
  let skip_slot = Array.make n None in
  (* [touched.(i)] distinguishes "processed, zero hits" from "never
     reached": the pool's [cancel] skips whole chunk bodies once the
     batch deadline expires, and the post-pass below turns every
     untouched read into a typed [Timeout] skip. *)
  let touched = Array.make n false in
  let expired_msg = "batch deadline expired before this read was searched" in
  let t1 = Obs.Clock.now_ns () in
  Work_pool.with_pool ~domains (fun pool ->
      match
        Work_pool.run
          ~cancel:(fun () -> Deadline.expired deadline)
          ~obs:worker_obs pool ~tasks:(Array.length bounds)
          (fun ~worker ~task ->
            let stats = worker_stats.(worker) in
            let o = worker_obs.(worker) in
            let start, len = bounds.(task) in
            for i = start to start + len - 1 do
              touched.(i) <- true;
              let read_id, sequence = reads.(i) in
              (* Coarse per-read checkpoint: a read started after expiry
                 sheds immediately; one already in flight is cut by the
                 engine polls through the query's own deadline. *)
              if Deadline.expired deadline then begin
                skip_slot.(i) <- Some (Kmm_error.Timeout expired_msg);
                Obs.incr o Obs.Counter.map_reads_skipped
              end
              else
                match validate_read ~target sequence with
                | Error e ->
                    skip_slot.(i) <- Some e;
                    Obs.incr o Obs.Counter.map_reads_skipped
                | Ok seq -> (
                    let map () =
                      map_one ~stats ~obs:o ~engine ~both_strands ~deadline
                        target ~k read_id seq
                    in
                    match
                      if Obs.enabled o then Obs.time o "map.read" map
                      else map ()
                    with
                    | hits ->
                        per_read.(i) <- hits;
                        if Obs.enabled o then begin
                          Obs.incr o Obs.Counter.map_reads;
                          (* Hit multiplicity is a function of the input
                             alone — the histogram merges bit-for-bit
                             across any domain count. *)
                          Obs.record o "map.read_hits" (List.length hits)
                        end
                    | exception Skip e ->
                        (* The target refused the query after validation —
                           the read's own typed skip, not a batch abort. *)
                        Obs.incr o Obs.Counter.map_reads_skipped;
                        skip_slot.(i) <- Some e
                    | exception e ->
                        (* An engine exception on a validated read is a
                           bug, but it still only costs this one read. *)
                        Obs.incr o Obs.Counter.map_reads_failed;
                        skip_slot.(i) <-
                          Some (Kmm_error.Internal (Printexc.to_string e)))
            done)
      with
      | () -> ()
      | exception Work_pool.Cancelled ->
          (* Chunks skipped by the cancel poll: their reads were never
             touched and become Timeout skips below. *)
          ());
  for i = 0 to n - 1 do
    if not touched.(i) then
      skip_slot.(i) <- Some (Kmm_error.Timeout expired_msg)
  done;
  let t2 = Obs.Clock.now_ns () in
  let stats = Stats.create () in
  Array.iter (fun s -> Stats.merge ~into:stats s) worker_stats;
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
  let hits =
    List.sort
      (fun a b -> compare (a.read_id, a.pos, a.strand) (b.read_id, b.pos, b.strand))
      (List.concat (Array.to_list per_read))
  in
  let t3 = Obs.Clock.now_ns () in
  let s ns = float_of_int ns *. 1e-9 in
  let timings =
    [ ("prepare", s (t1 - t0)); ("search", s (t2 - t1)); ("merge", s (t3 - t2)) ]
  in
  if Obs.enabled obs then begin
    Obs.record obs "map.prepare_ns" (t1 - t0);
    Obs.record obs "map.search_ns" (t2 - t1);
    Obs.record obs "map.merge_ns" (t3 - t2)
  end;
  ( hits,
    {
      total = n;
      mapped = !mapped;
      unique = !unique;
      ambiguous = !ambiguous;
      skipped = !skipped;
      stats;
      timings;
    } )

let run opts index ~reads ~k = run_target opts (target_of_index index) ~reads ~k

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
