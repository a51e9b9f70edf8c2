type t = int
(* Absolute Obs.Clock.now_ns instant; max_int = none.  Plain int so the
   ambient slot and every comparison stay allocation-free. *)

let none = max_int

let after seconds =
  if seconds >= float_of_int max_int *. 1e-9 then none
  else Obs.Clock.now_ns () + int_of_float (seconds *. 1e9)

let of_ns ns = ns

let is_none d = d = max_int

let expired d = (not (is_none d)) && Obs.Clock.now_ns () >= d

let remaining_ns d = if is_none d then max_int else d - Obs.Clock.now_ns ()

let remaining_s d =
  if is_none d then infinity else float_of_int (remaining_ns d) *. 1e-9

exception Expired

let poll_stride = 256

(* The ambient slot.  One mutable record per domain: [hard] is the
   installed instant (max_int when absent); [renew_at] is when the
   budget of {!with_budget} next runs out (max_int when none is set),
   [every] its length and [renew] its test; [next], the earlier of
   [hard] and [renew_at], is the instant a poll acts on; [fuel] counts
   polls until the next clock read.  DLS lookup is a few loads — the
   taps-off poll is that lookup plus one compare. *)
type slot = {
  mutable next : int;
  mutable fuel : int;
  mutable hard : int;
  mutable renew_at : int;
  mutable every : int;
  mutable renew : unit -> bool;
}

let key =
  Domain.DLS.new_key (fun () ->
      { next = max_int; fuel = 0; hard = max_int; renew_at = max_int; every = 0; renew = (fun () -> false) })

let ambient () = (Domain.DLS.get key).hard

let with_ambient d f =
  let s = Domain.DLS.get key in
  let saved_hard = s.hard and saved_fuel = s.fuel in
  s.hard <- d;
  s.next <- min d s.renew_at;
  s.fuel <- 0;
  Fun.protect
    ~finally:(fun () ->
      s.hard <- saved_hard;
      s.next <- min saved_hard s.renew_at;
      s.fuel <- saved_fuel)
    f

let with_budget ~ns ~renew f =
  let s = Domain.DLS.get key in
  let saved_at = s.renew_at and saved_every = s.every and saved_renew = s.renew
  and saved_fuel = s.fuel in
  s.renew_at <- Obs.Clock.now_ns () + ns;
  s.every <- ns;
  s.renew <- renew;
  s.next <- min s.hard s.renew_at;
  s.fuel <- 0;
  Fun.protect
    ~finally:(fun () ->
      s.renew_at <- saved_at;
      s.every <- saved_every;
      s.renew <- saved_renew;
      s.next <- min s.hard saved_at;
      s.fuel <- saved_fuel)
    f

(* [now] has reached [s.next]: past the installed deadline, or past a
   budget that [renew] declines to extend, raise; else renew it. *)
let lapse s now =
  if now >= s.hard || not (s.renew ()) then raise Expired;
  s.renew_at <- now + s.every;
  s.next <- min s.hard s.renew_at

(* Every [poll_stride]th poll under a deadline or a budget: read the
   clock.  Out of line, so the inlined poll stays a load, a compare and
   a decrement. *)
let[@inline never] tick s =
  s.fuel <- poll_stride - 1;
  let now = Obs.Clock.now_ns () in
  if now >= s.next then lapse s now

let[@inline] poll () =
  let s = Domain.DLS.get key in
  if s.next <> max_int then if s.fuel > 0 then s.fuel <- s.fuel - 1 else tick s

let check () =
  let s = Domain.DLS.get key in
  if s.next <> max_int then begin
    let now = Obs.Clock.now_ns () in
    if now >= s.next then lapse s now
  end
