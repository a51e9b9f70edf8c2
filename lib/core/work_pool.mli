(** One-shot fan-out of integer tasks over OCaml 5 domains, with
    deterministic result merging.

    The fan-out is the scaling primitive of the batch mapper
    ([Mapper]): a job is a fixed number of integer
    tasks (typically chunk indices).  {!run} spawns its helper domains,
    every worker pulls the next task id from one atomic counter, and
    {!run} joins them all before it returns or raises.  Results land in
    caller-owned slots indexed by task id, so the merged output never
    depends on scheduling order.

    With [domains = 1] nothing is spawned and every task runs inline on
    the calling domain, in task order: the sequential path is the
    [domains = 1] special case, not a different code path. *)

type t
(** A validated domain count. *)

exception Task_failed of { task : int; exn : exn }
(** How a task failure reaches the caller: the lowest failing task id,
    together with the exception it raised.  By the time this is raised
    every task of the job has been executed and every helper domain has
    been joined. *)

val max_domains : int
(** The most domains one process may run at once, the calling domain
    included: 128 in the OCaml 5.1 runtime. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [1 .. max_domains]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ?domains f] runs [f] with a fan-out of [domains] domains
    in total, the caller included.  Default: [default_domains ()].
    Nothing is spawned until {!run}.
    @raise Invalid_argument if [domains] is outside [1 .. max_domains]. *)

val domains : t -> int
(** Number of domains (including the caller) jobs run on. *)

val run :
  ?obs:Obs.t array ->
  t ->
  tasks:int ->
  (worker:int -> task:int -> unit) ->
  unit
(** [run t ~tasks body] executes [body ~worker ~task] once for every
    [task] in [0 .. tasks - 1] and returns when all have finished.  It
    spawns [min (domains t) tasks - 1] helper domains; if the runtime
    refuses one, the workers already started take its share.  [worker]
    is a stable id in [0 .. domains t - 1] (0 is the calling domain),
    so callers can keep per-worker accumulators (e.g. one {!Obs.t} per
    domain) without locking.  If any task raises, the remaining tasks
    still run and the lowest failing task is re-raised at the caller as
    {!Task_failed}.  With [domains t = 1] the tasks run inline, in
    order, with the same failure semantics.  The pool never skips a
    task: a body that should stop early checks its deadline itself (as
    [Mapper] does per read).

    [obs] (default [[||]], observability off) supplies one sink per
    worker, indexed by worker id — per-domain sinks, never shared, to be
    {!Obs.merge}d by the caller after the job.  Worker [w] records a
    [pool.queue_wait_ns] histogram value (from the [run] call to the
    pull, so it includes the spawn), a [pool.tasks] counter bump, and a
    [pool.task_ns] duration histogram entry for every task it executes.
    Workers beyond the array length record nothing.
    @raise Invalid_argument if [tasks < 0].
    @raise Task_failed if any task raised. *)

val map_array : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_array t ~f a] applies [f] to every element of [a] in one
    {!run}; slot [i] of the result is [f a.(i)] regardless of which
    domain ran it (deterministic merge). *)

val chunks : total:int -> chunk_size:int -> (int * int) array
(** [chunks ~total ~chunk_size] covers [0 .. total - 1] with contiguous
    [(start, len)] chunks of at most [chunk_size] items, in order: the
    standard sharding of a batch into tasks.
    @raise Invalid_argument if [total < 0] or [chunk_size < 1]. *)
