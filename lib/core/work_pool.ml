(* Fan-out over parked helper domains.

   The helper domains belong to the process, not to a pool: helper [w]
   is always worker [w], it is spawned the first time a run asks for
   [w + 1] workers, and between runs it blocks on [wake].  A run that
   finds the helpers free owns them until it returns: it publishes its
   job, works as worker 0, and waits on [finished] until every helper
   that took part is done.  A run that finds them owned (a [run] from
   inside a task, or from a second systhread) runs its tasks inline on
   its caller, exactly like [domains = 1].

   Every worker pulls task ids from the job's Atomic counter until none
   are left.  Task bodies write their results into caller-owned
   per-task slots, so merging is deterministic by construction.

   A raising task does not stop its worker: each worker keeps its own
   lowest failing task, and the lowest over all workers is re-raised as
   [Task_failed] after every helper is done.  Each worker pulls
   increasing ids, so that is the lowest failing task of the whole
   job. *)

exception Task_failed of { task : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Task_failed { task; exn } ->
        Some
          (Printf.sprintf "Work_pool.Task_failed (task %d: %s)" task
             (Printexc.to_string exn))
    | _ -> None)

type t = int

let max_domains = 128

let default_domains () =
  max 1 (min max_domains (Domain.recommended_domain_count ()))

let domains t = t

let with_pool ?domains f =
  let n = match domains with None -> default_domains () | Some d -> d in
  if n < 1 || n > max_domains then
    invalid_arg
      (Printf.sprintf "Work_pool.with_pool: domains must be in 1..%d"
         max_domains);
  f n

(* A job as the helpers see it: workers [1 .. width - 1] each run
   [work worker], which returns that worker's lowest failing task. *)
type job = { width : int; work : int -> (int * exn) option }

let no_job = { width = 0; work = (fun _ -> None) }

(* All fields are guarded by [lock]. *)
type helpers = {
  lock : Mutex.t;
  wake : Condition.t;  (** a job was published *)
  finished : Condition.t;  (** the last helper of the job is done *)
  mutable spawned : int;  (** helpers [1 .. spawned] exist *)
  mutable owned : bool;  (** a run holds the helpers *)
  mutable generation : int;  (** jobs published so far *)
  mutable job : job;
  mutable pending : int;  (** helpers still working on [job] *)
  mutable failed : (int * exn) option;  (** their lowest failing task *)
}

let h =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    finished = Condition.create ();
    spawned = 0;
    owned = false;
    generation = 0;
    job = no_job;
    pending = 0;
    failed = None;
  }

let lowest a b =
  match (a, b) with
  | None, f | f, None -> f
  | Some (x, _), Some (y, _) -> if y < x then b else a

(* Helper [w]'s life, entered with [lock] held.  It waits for a job
   newer than [seen], takes part if the job is wide enough, and parks
   again; it keeps no reference to a job it has finished.  [work] never
   raises (it catches every task's exception), but a helper that died
   would leave [pending] above zero forever, so it catches anyway. *)
let rec helper w seen =
  while h.generation = seen do
    Condition.wait h.wake h.lock
  done;
  let seen = h.generation in
  if w < h.job.width then begin
    let work = h.job.work in
    Mutex.unlock h.lock;
    let failed = try work w with exn -> Some (max_int, exn) in
    Mutex.lock h.lock;
    h.failed <- lowest h.failed failed;
    h.pending <- h.pending - 1;
    if h.pending = 0 then Condition.signal h.finished
  end;
  helper w seen

(* Take the helpers and start [work] on up to [wanted] of them, spawning
   the ones that do not exist yet; returns how many took the job (0 when
   another run holds them).  If the runtime refuses a domain, the
   helpers that exist take its share. *)
let publish ~wanted work =
  Mutex.protect h.lock (fun () ->
      if h.owned then 0
      else begin
        (try
           while h.spawned < wanted do
             let w = h.spawned + 1 and seen = h.generation in
             ignore
               (Domain.spawn (fun () ->
                    Mutex.lock h.lock;
                    helper w seen));
             h.spawned <- w
           done
         with Failure _ -> ());
        let n = min wanted h.spawned in
        if n > 0 then begin
          h.owned <- true;
          h.job <- { width = n + 1; work };
          h.pending <- n;
          h.generation <- h.generation + 1;
          Condition.broadcast h.wake
        end;
        n
      end)

(* Wait for the published job's helpers, release them, and return their
   lowest failing task. *)
let await () =
  Mutex.protect h.lock (fun () ->
      while h.pending > 0 do
        Condition.wait h.finished h.lock
      done;
      let failed = h.failed in
      h.failed <- None;
      h.job <- no_job;
      h.owned <- false;
      failed)

let run ?(obs = [||]) t ~tasks body =
  if tasks < 0 then invalid_arg "Work_pool.run: negative task count";
  let started_ns =
    if Array.exists Obs.enabled obs then Obs.Clock.now_ns () else 0
  in
  let next = Atomic.make 0 in
  (* Pull tasks until none are left; return this worker's lowest failing
     task. *)
  let work worker =
    let o = if worker < Array.length obs then obs.(worker) else Obs.noop in
    let rec loop failed =
      let task = Atomic.fetch_and_add next 1 in
      if task >= tasks then failed
      else
        match
          if Obs.enabled o then begin
            Obs.record o Obs.Hist.pool_queue_wait_ns
              (Obs.Clock.now_ns () - started_ns);
            Obs.incr o Obs.Counter.pool_tasks;
            Obs.time o Obs.Hist.pool_task_ns (fun () -> body ~worker ~task)
          end
          else body ~worker ~task
        with
        | () -> loop failed
        | exception exn ->
            loop (if Option.is_none failed then Some (task, exn) else failed)
    in
    loop None
  in
  let wanted = min t tasks - 1 in
  let helpers = if wanted > 0 then publish ~wanted work else 0 in
  let failed =
    if helpers = 0 then work 0
    else
      match work 0 with
      | first -> lowest first (await ())
      | exception exn ->
          ignore (await ());
          raise exn
  in
  match failed with
  | Some (task, exn) -> raise (Task_failed { task; exn })
  | None -> ()

let map_array t ~f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run t ~tasks:n (fun ~worker:_ ~task ->
        results.(task) <- Some (f a.(task)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let chunks ~total ~chunk_size =
  if total < 0 then invalid_arg "Work_pool.chunks: negative total";
  if chunk_size < 1 then invalid_arg "Work_pool.chunks: chunk_size must be >= 1";
  let n = (total + chunk_size - 1) / chunk_size in
  Array.init n (fun i ->
      let start = i * chunk_size in
      (start, min chunk_size (total - start)))
