/* Monotonic clock for deadlines and span timing.

   CLOCK_MONOTONIC never goes backwards under NTP slews or manual clock
   adjustment, which is the whole point: a deadline armed for 50ms must
   fire in ~50ms of real time no matter what the wall clock does.

   The reading is returned as an OCaml immediate int of nanoseconds. A
   63-bit int holds ~146 years of nanoseconds, so overflow is not a
   practical concern, and [@@noalloc] keeps the fast path free of any
   allocation — it is called from amortized cancellation checkpoints
   inside simplex pivot loops.

   [ccs_mono_sleep_ns] sleeps in nanosleep, resumed with the remaining time
   after a signal, inside a blocking section so that a sleeping domain
   never holds up another domain's minor GC (as Unix.sleepf does). */

#include <errno.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

CAMLprim value ccs_mono_now_ns(value unit)
{
  struct timespec ts;
#ifdef CLOCK_MONOTONIC
  clock_gettime(CLOCK_MONOTONIC, &ts);
#else
  clock_gettime(CLOCK_REALTIME, &ts);
#endif
  (void)unit;
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

CAMLprim value ccs_mono_sleep_ns(value ns)
{
  long n = Long_val(ns);
  struct timespec t;
  int ret;
  if (n <= 0) return Val_unit;
  t.tv_sec = n / 1000000000L;
  t.tv_nsec = n % 1000000000L;
  caml_enter_blocking_section();
  do {
    ret = nanosleep(&t, &t);
    /* a signal handled in OCaml runs now, not after the whole sleep */
    if (ret == -1 && errno == EINTR) {
      caml_leave_blocking_section();
      caml_enter_blocking_section();
    }
  } while (ret == -1 && errno == EINTR);
  caml_leave_blocking_section();
  return Val_unit;
}
