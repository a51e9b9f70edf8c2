(* One-shot fan-out over Domain.spawn.

   [run] spawns its helper domains, every worker (the caller is worker
   0) pulls task ids from one Atomic counter until none are left, and
   [run] joins every helper before it returns or raises.  Task bodies
   write their results into caller-owned per-task slots, so merging is
   deterministic by construction.

   A raising task does not stop its worker: each worker keeps its own
   lowest failing task, and the lowest over all workers is re-raised as
   [Task_failed] after the join.  Each worker pulls increasing ids, so
   that is the lowest failing task of the whole job. *)

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
  (* If the runtime refuses a domain, the workers already started take
     the remaining tasks. *)
  let rec spawn w acc =
    if w >= min t tasks then acc
    else
      match Domain.spawn (fun () -> work w) with
      | d -> spawn (w + 1) (d :: acc)
      | exception Failure _ -> acc
  in
  let helpers = spawn 1 [] in
  let first = work 0 in
  let failures = List.filter_map Fun.id (first :: List.map Domain.join helpers) in
  match List.sort (fun (a, _) (b, _) -> compare a b) failures with
  | (task, exn) :: _ -> raise (Task_failed { task; exn })
  | [] -> ()

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
