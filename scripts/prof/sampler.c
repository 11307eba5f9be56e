/* LD_PRELOAD sampling profiler for hosts without `perf`: a SIGPROF handler
 * stores the interrupted instruction pointer every 4 ms of process CPU time
 * (250 Hz); at exit the samples and /proc/self/maps go to $PROF_OUT for
 * scripts/prof/symbolize.py. x86-64 Linux only; see scripts/prof/run.sh. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20) /* 70 min of one busy core */
static unsigned long long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void set_timer(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void prof_start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    if (!getenv("PROF_OUT") || sigaction(SIGPROF, &sa, NULL) != 0) return;
    set_timer(4000);
}

__attribute__((destructor)) static void prof_stop(void) {
    const char *path = getenv("PROF_OUT");
    set_timer(0);
    if (!path) return;
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fputs("--samples--\n", out);
    for (unsigned long i = 0; i < taken && i < MAX_SAMPLES; i++) fprintf(out, "%llx\n", samples[i]);
    fclose(out);
}
