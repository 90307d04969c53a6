/* The process's one monotonic clock (Omf_util.Clock).
 *
 * Timers, deadlines, rate limits and trace spans need wall-clock-rate
 * time that keeps advancing while a thread blocks in select/write and
 * never steps with the system clock, and trace spans need it cheap
 * enough to call twice per traced frame.  CLOCK_MONOTONIC in
 * microseconds fits a tagged OCaml int (2^62 us ~ 146k years), so the
 * stub allocates nothing and is safe to mark noalloc. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value omf_clock_now_us(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000 + ts.tv_nsec / 1000);
}
