/* Reap a child process with its resource usage.

   OCaml's Unix.waitpid returns neither the peak resident set size nor the
   CPU time of the reaped child, and the benchmark needs both for every
   ccs_solve invocation. wait4(2) returns them with the exit status.

   A timeout is enforced without signals: on Linux the child is watched
   through a pidfd, so the parent sleeps in poll(2) until the child exits
   or the timeout passes, and then kills it with SIGKILL. Without pidfd
   support the wait simply blocks.

   ccsbench_wait4(pid, timeout_ms) returns
   (kind, code, maxrss_kb, user_s, sys_s), where kind is 0 for a normal
   exit (code = exit status), 1 for death by a signal (code = signal
   number) and 2 for a child killed at the timeout. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* 1 if the child is still running when timeout_ms elapses, 0 otherwise. */
static int timed_out(pid_t pid, int timeout_ms)
{
#ifdef SYS_pidfd_open
  if (timeout_ms < 0) return 0;
  int fd = (int)syscall(SYS_pidfd_open, pid, 0);
  if (fd < 0) return 0;
  struct pollfd p = { .fd = fd, .events = POLLIN, .revents = 0 };
  int r;
  do r = poll(&p, 1, timeout_ms); while (r < 0 && errno == EINTR);
  close(fd);
  return r == 0;
#else
  (void)pid;
  (void)timeout_ms;
  return 0;
#endif
}

static double seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

CAMLprim value ccsbench_wait4(value vpid, value vtimeout_ms)
{
  CAMLparam2(vpid, vtimeout_ms);
  CAMLlocal1(res);
  pid_t pid = (pid_t)Long_val(vpid);
  int timeout_ms = (int)Long_val(vtimeout_ms);
  int status = 0, killed = 0;
  struct rusage ru;
  pid_t r;

  caml_enter_blocking_section();
  if (timed_out(pid, timeout_ms)) {
    kill(pid, SIGKILL);
    killed = 1;
  }
  do r = wait4(pid, &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);

  res = caml_alloc_tuple(5);
  if (killed) {
    Store_field(res, 0, Val_int(2));
    Store_field(res, 1, Val_int(SIGKILL));
  } else if (WIFEXITED(status)) {
    Store_field(res, 0, Val_int(0));
    Store_field(res, 1, Val_int(WEXITSTATUS(status)));
  } else {
    Store_field(res, 0, Val_int(1));
    Store_field(res, 1, Val_int(WIFSIGNALED(status) ? WTERMSIG(status) : 0));
  }
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, caml_copy_double(seconds(ru.ru_utime)));
  Store_field(res, 4, caml_copy_double(seconds(ru.ru_stime)));
  CAMLreturn(res);
}
