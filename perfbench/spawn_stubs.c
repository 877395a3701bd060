/* Daemon spawning for the benchmark: fork + exec with the child's
   stdout on a pipe, and PR_SET_PDEATHSIG so a daemon never outlives a
   benchmark process that was killed outright (SIGKILL cannot be caught,
   so no OCaml-level cleanup can cover that exit path). */

#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#include <sched.h>
#include <sys/prctl.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

CAMLprim value perfbench_spawn(value v_prog, value v_argv, value v_stdout)
{
  CAMLparam3(v_prog, v_argv, v_stdout);
  mlsize_t argc = Wosize_val(v_argv);
  char *prog = strdup(String_val(v_prog));
  char **argv = calloc(argc + 1, sizeof(char *));
  if (prog == NULL || argv == NULL) caml_raise_out_of_memory();
  for (mlsize_t i = 0; i < argc; i++) {
    argv[i] = strdup(String_val(Field(v_argv, i)));
    if (argv[i] == NULL) caml_raise_out_of_memory();
  }
  int out = Int_val(v_stdout);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent)
      _exit(127);
    if (dup2(out, 1) < 0) _exit(127);
    execv(prog, argv);
    _exit(127);
  }
  int err = errno;
  for (mlsize_t i = 0; i < argc; i++) free(argv[i]);
  free(argv);
  free(prog);
  if (pid < 0) caml_unix_error(err, "fork", Nothing);
  CAMLreturn(Val_int(pid));
}

/* CLOCK_MONOTONIC in integer nanoseconds: immune to wall-clock steps,
   and allocation-free, so the client's timed loop can stamp every
   frame without touching the heap. */
CAMLprim value perfbench_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}

/* Pin the calling thread (and so every process it spawns afterwards)
   to one CPU. */
CAMLprim value perfbench_pin_cpu(value v_cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(v_cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    caml_unix_error(errno, "sched_setaffinity", Nothing);
  return Val_unit;
}
