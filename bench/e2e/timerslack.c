/* Timer slack for the open-loop generator.
 *
 * Linux lets a sleeping thread wake up to its timer slack (50 us by
 * default) late; at 10k events/s that is half of a mean arrival gap,
 * and every late launch adds to the measured latency.  Lowering the
 * calling thread's slack makes Unix.sleepf wake within a few
 * microseconds of the due time. */

#include <caml/mlvalues.h>
#include <sys/prctl.h>

CAMLprim value omfbench_set_timerslack_ns(value ns)
{
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
  return Val_unit;
}
