(** Monotonic deadlines with an ambient, per-domain cancellation point.

    A deadline is an absolute instant on {!Obs.Clock}'s monotonic clock
    (immune to wall-clock steps).  It travels with a request — computed
    once at admission from the client's relative budget — and is
    enforced {e cooperatively}: code that may run long installs the
    deadline with {!with_ambient} and sprinkles {!poll} through its hot
    loops; [poll] raises {!Expired} once the instant has passed.

    The design constraint is the taps-off cost.  Engine hot loops poll
    per node/window, millions of times per query, so:

    - with no ambient deadline (the default — every batch entry point
      that isn't handed one), {!poll} is a domain-local load and one
      compare against [max_int]; no clock read, no allocation;
    - with a deadline installed, the clock is read only every
      {!poll_stride} polls (fuel counting), bounding both the overhead
      and the detection latency (stride × per-poll work).

    The ambient slot is per-domain ([Domain.DLS]), so a helper domain
    of [Work_pool.run] does not see its caller's: callers that
    fan out must install the deadline inside each task (see [Mapper],
    which checks the batch deadline before each read and hands it to
    each read's query). *)

type t
(** An absolute monotonic instant, or {!none}. *)

val none : t
(** The absent deadline: never expires, and {!with_ambient} [none] makes
    {!poll} free (well, one compare). *)

val after : float -> t
(** [after seconds] is the instant [seconds] from now ([seconds <= 0.]
    is an already-expired deadline, not [none]). *)

val of_ns : int -> t
(** An absolute instant in {!Obs.Clock.now_ns} nanoseconds. *)

val is_none : t -> bool

val expired : t -> bool
(** Has the instant passed?  Reads the clock (unless [is_none]). *)

val remaining_ns : t -> int
(** Nanoseconds until expiry: negative once expired, [max_int] for
    {!none}. *)

val remaining_s : t -> float
(** {!remaining_ns} in seconds ([infinity] for {!none}). *)

exception Expired
(** Raised by {!poll} (and {!check}) when the ambient deadline has
    passed.  Catchers translate it to [Kmm_error.Timeout]; partial work
    is discarded. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient d f] runs [f] with [d] installed as the current
    domain's ambient deadline, restoring the previous one on exit
    (normal or exceptional), so nesting composes.  Installing {!none}
    explicitly shields [f] from an outer deadline. *)

val ambient : unit -> t
(** The currently installed deadline ({!none} outside {!with_ambient}).
    Fan-out code reads it here to re-install inside worker tasks. *)

val poll : unit -> unit
(** The cancellation point.  Raises {!Expired} if the ambient deadline
    has passed; otherwise returns.  Reads the clock at most once per
    {!poll_stride} calls. *)

val check : unit -> unit
(** Like {!poll} but reads the clock on every call (no fuel): for
    coarse checkpoints — per read — where immediate
    detection matters more than per-call cost. *)

val poll_stride : int
(** Polls between clock reads when a deadline is installed (256). *)
