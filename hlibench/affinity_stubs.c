/* CPU affinity of the calling thread, for Affinity (affinity.ml). */

#define _GNU_SOURCE
#include <sched.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order; an empty
   array when the mask cannot be read. */
value hlibench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc_tuple(0));
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  res = n == 0 ? caml_alloc_tuple(0) : caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Field(res, k++) = Val_int(c);
  CAMLreturn(res);
}

/* Restrict the calling thread to the given CPUs; true on success. */
value hlibench_set_cpus(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}
