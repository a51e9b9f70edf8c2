/* Monotonic clock for the observability layer.
 *
 * One tiny stub so span timers never go backwards when NTP steps the
 * wall clock.  The result is returned as a tagged OCaml int: 2^62
 * nanoseconds is ~146 years of uptime, so the value always fits and the
 * call never allocates ([@@noalloc] on the OCaml side).
 */
#include <caml/mlvalues.h>
#include <stdint.h>
#include <time.h>

CAMLprim value kmm_obs_now_ns(value unit)
{
  struct timespec ts;
#if defined(CLOCK_MONOTONIC)
  clock_gettime(CLOCK_MONOTONIC, &ts);
#else
  /* Platforms without a monotonic clock use realtime: it is still
   * nanosecond-resolution, merely steppable. */
  clock_gettime(CLOCK_REALTIME, &ts);
#endif
  (void)unit;
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
