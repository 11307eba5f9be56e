/* LD_PRELOAD allocation-site sampler, the companion of sampler.c: counts every
 * malloc/calloc/realloc the process makes and keeps the call stack of every
 * 512th; at exit the stacks and /proc/self/maps go to $PROF_OUT for
 * `scripts/prof/symbolize.py --allocs`. glibc Linux only; see run.sh. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define EVERY 512
#define DEPTH 48
#define MAX_STACKS (1u << 16) /* 33 M calls; later ones are only counted */
static void *stacks[MAX_STACKS][DEPTH];
static unsigned long calls, kept;
/* Set while this thread is inside dlsym or backtrace, which allocate. */
static __thread int busy __attribute__((tls_model("initial-exec")));

/* dlsym allocates before the real functions are known: that comes from here. */
static char arena[1 << 16];
static size_t arena_used;
static int in_arena(void *p) { return (char *)p >= arena && (char *)p < arena + sizeof arena; }
static void *arena_alloc(size_t n) {
    size_t at = __atomic_fetch_add(&arena_used, (n + 15) & ~(size_t)15, __ATOMIC_RELAXED);
    return at + n <= sizeof arena ? arena + at : NULL;
}

static void *(*real_malloc)(size_t), *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int resolved(void) {
    if (real_malloc) return 1;
    if (busy) return 0;
    busy = 1;
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    busy = 0;
    return 1;
}

static void note(void) {
    if (__atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % EVERY || busy) return;
    busy = 1;
    unsigned long i = __atomic_fetch_add(&kept, 1, __ATOMIC_RELAXED);
    if (i < MAX_STACKS) backtrace(stacks[i], DEPTH); /* unused frames stay NULL */
    busy = 0;
}

void *malloc(size_t n) { return resolved() ? (note(), real_malloc(n)) : arena_alloc(n); }
void *calloc(size_t a, size_t b) {
    return resolved() ? (note(), real_calloc(a, b)) : arena_alloc(a * b); /* static: zeroed */
}
void free(void *p) { if (p && !in_arena(p) && resolved()) real_free(p); }
void *realloc(void *p, size_t n) {
    if (resolved() && !in_arena(p)) return note(), real_realloc(p, n);
    void *q = malloc(n);
    size_t have = p ? (size_t)(arena + sizeof arena - (char *)p) : 0;
    if (q && p) memcpy(q, p, n < have ? n : have);
    return q;
}

/* The first backtrace() loads libgcc_s; do that before anything is sampled. */
__attribute__((constructor)) static void warm(void) {
    void *frames[2];
    busy = 1, backtrace(frames, 2), busy = 0;
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("PROF_OUT");
    busy = 1;
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fprintf(out, "--allocs-- %lu calls (every %dth kept)\n", calls, EVERY);
    for (unsigned long i = 0; i < kept && i < MAX_STACKS; i++, fputc('\n', out))
        for (int d = 0; d < DEPTH && stacks[i][d]; d++)
            fprintf(out, "%lx ", (unsigned long)stacks[i][d]);
    fclose(out);
}
