/* poll(2) for the reactor and Tcp.dial (Omf_util.Poll).
 *
 * select(2) takes fd_sets of FD_SETSIZE (1024) bits, so a server that
 * holds a descriptor numbered 1024 or more cannot wait on it at all.
 * poll has no such limit. The pollfd array lives in a bigarray,
 * outside the OCaml heap, so the loop keeps one array between rounds,
 * fills an entry only when its interest changes, and can release the
 * runtime lock while it waits. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/bigarray.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <errno.h>
#include <poll.h>

#define Pollfds(v) ((struct pollfd *)Caml_ba_data_val(v))

/* the bits Poll.readable, Poll.writable and Poll.invalid */
#define READABLE 1
#define WRITABLE 2
#define INVALID 4

CAMLprim value omf_poll_create(value n)
{
  return caml_ba_alloc_dims(CAML_BA_UINT8 | CAML_BA_C_LAYOUT, 1, NULL,
                            (intnat)(Long_val(n) * sizeof(struct pollfd)));
}

CAMLprim value omf_poll_set(value buf, value i, value fd, value events)
{
  struct pollfd *p = Pollfds(buf) + Long_val(i);
  p->fd = Int_val(fd);
  p->events = ((Long_val(events) & READABLE) ? POLLIN : 0)
              | ((Long_val(events) & WRITABLE) ? POLLOUT : 0);
  p->revents = 0;
  return Val_unit;
}

/* An error or a hang-up reads as both readable and writable, as select
 * reports it: whichever callback runs finds the failure in its read or
 * write. */
CAMLprim value omf_poll_ready(value buf, value i)
{
  short r = Pollfds(buf)[Long_val(i)].revents;
  int bits = 0;
  if (r & (POLLIN | POLLHUP | POLLERR)) bits |= READABLE;
  if (r & (POLLOUT | POLLHUP | POLLERR)) bits |= WRITABLE;
  if (r & POLLNVAL) bits |= INVALID;
  return Val_int(bits);
}

CAMLprim value omf_poll_wait(value buf, value n, value timeout_ms)
{
  CAMLparam1(buf);
  struct pollfd *p = Pollfds(buf);
  nfds_t nfds = (nfds_t)Long_val(n);
  int ms = Int_val(timeout_ms);
  int r, err;
  caml_enter_blocking_section();
  r = poll(p, nfds, ms);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_unix_error(err, "poll", Nothing);
  CAMLreturn(Val_int(r));
}
