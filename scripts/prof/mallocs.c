/* LD_PRELOAD allocation-site sampler, the companion of sampler.c: counts every
 * malloc/calloc/realloc the process makes and keeps the call stack of every
 * 512th; at exit the stacks and /proc/self/maps go to $PROF_OUT for
 * `scripts/prof/symbolize.py --allocs`. glibc Linux only; see run.sh.
 *
 * With $PROF_LIVE set it ranks sites by what they keep instead of by how often
 * they ask (`symbolize.py --live`): blocks are sampled by bytes, one sample
 * point every PERIOD allocated bytes, a block standing for PERIOD times the
 * points that fell in it; a sampled block is remembered by address, with its
 * stack, until it is freed or realloc'd; and the per-stack live totals are
 * copied aside whenever sampled-live bytes pass the last copy's by 5 %, so what
 * is dumped is the heap at its high-water mark, not at exit. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdint.h>
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

/* --live state, all under `lock`. Interned stacks and the sampled blocks sit
 * in open-addressed tables (linear probing; blocks delete by backward shift);
 * when either fills, further samples are counted in `dropped` and lost. */
#define PERIOD 4096
#define NSITE (1u << 14)
#define NBLOCK (1u << 18)
static int live_mode;
static char lock;
static void *sites[NSITE][DEPTH];
static unsigned long site_live[NSITE], site_peak[NSITE]; /* sampled bytes */
static struct block { void *p; unsigned weight, site; } blocks[NBLOCK];
static unsigned nsites, nblocks;
static unsigned long live_now, live_peak, dropped;
static long until_sample = PERIOD;

static unsigned home(void *p) {
    return (unsigned)(((uintptr_t)p >> 4) * 0x9E3779B97F4A7C15ull >> 46) & (NBLOCK - 1);
}

static void forget(void *p) {
    unsigned i = home(p), j;
    while (blocks[i].p && blocks[i].p != p) i = (i + 1) & (NBLOCK - 1);
    if (!blocks[i].p) return;
    live_now -= blocks[i].weight, site_live[blocks[i].site] -= blocks[i].weight, nblocks--;
    for (j = (i + 1) & (NBLOCK - 1); blocks[j].p; j = (j + 1) & (NBLOCK - 1)) {
        unsigned k = home(blocks[j].p); /* stays put if its home lies in (i, j] */
        if (i <= j ? i < k && k <= j : i < k || k <= j) continue;
        blocks[i] = blocks[j], i = j;
    }
    blocks[i].p = NULL;
}

static void remember(void *p, unsigned weight) {
    void *st[DEPTH] = {0};
    backtrace(st, DEPTH);
    uintptr_t h = 1469598103934665603ull;
    for (int d = 0; d < DEPTH; d++) h = (h ^ (uintptr_t)st[d]) * 1099511628211ull;
    unsigned s = h & (NSITE - 1), i = home(p);
    while (sites[s][0] && memcmp(sites[s], st, sizeof st)) s = (s + 1) & (NSITE - 1);
    if ((!sites[s][0] && nsites >= NSITE / 4 * 3) || nblocks >= NBLOCK / 8 * 7) {
        dropped++;
        return;
    }
    if (!sites[s][0]) memcpy(sites[s], st, sizeof st), nsites++;
    while (blocks[i].p) i = (i + 1) & (NBLOCK - 1);
    blocks[i] = (struct block){p, weight, s}, nblocks++;
    live_now += weight, site_live[s] += weight;
    if (live_now > live_peak + live_peak / 20) {
        memcpy(site_peak, site_live, sizeof site_peak);
        live_peak = live_now;
    }
}

/* One block of `n` bytes came to live at `p`; `old`, if any, is gone. */
static void *track(void *old, void *p, size_t n) {
    if (busy || !p) return p;
    busy = 1;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {}
    if (old) forget(old);
    if (n && (until_sample -= (long)n) <= 0) {
        long points = 1 + -until_sample / PERIOD;
        until_sample += points * PERIOD;
        remember(p, (unsigned)(points * PERIOD));
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    busy = 0;
    return p;
}

static void *note(void *p, size_t n) {
    if (live_mode) return track(NULL, p, n);
    if (__atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % EVERY || busy) return p;
    busy = 1;
    unsigned long i = __atomic_fetch_add(&kept, 1, __ATOMIC_RELAXED);
    if (i < MAX_STACKS) backtrace(stacks[i], DEPTH); /* unused frames stay NULL */
    busy = 0;
    return p;
}

void *malloc(size_t n) { return resolved() ? note(real_malloc(n), n) : arena_alloc(n); }
void *calloc(size_t a, size_t b) {
    return resolved() ? note(real_calloc(a, b), a * b) : arena_alloc(a * b); /* static: zeroed */
}
void free(void *p) {
    if (!p || in_arena(p) || !resolved()) return;
    if (live_mode) track(p, p, 0);
    real_free(p);
}
void *realloc(void *p, size_t n) {
    /* A moved block is a new block: forgotten under its old address first, as
     * another thread may be handed that address the moment it is released. */
    if (resolved() && !in_arena(p)) {
        if (live_mode && p) track(p, p, 0);
        return note(real_realloc(p, n), n);
    }
    void *q = malloc(n);
    size_t have = p ? (size_t)(arena + sizeof arena - (char *)p) : 0;
    if (q && p) memcpy(q, p, n < have ? n : have);
    return q;
}

/* The first backtrace() loads libgcc_s; do that before anything is sampled. */
__attribute__((constructor)) static void warm(void) {
    void *frames[2];
    busy = 1, backtrace(frames, 2), busy = 0;
    live_mode = getenv("PROF_LIVE") != NULL;
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("PROF_OUT");
    busy = 1;
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (live_mode) { /* one row per site: sampled bytes (hex), then its stack */
        fprintf(out, "--live-- %lu bytes sampled live at the high-water mark (a sample per %d"
                     " allocated bytes, %lu lost to full tables)\n", live_peak, PERIOD, dropped);
        for (unsigned s = 0; s < NSITE; s++) {
            if (!site_peak[s]) continue;
            fprintf(out, "%lx ", site_peak[s]);
            for (int d = 0; d < DEPTH && sites[s][d]; d++)
                fprintf(out, "%lx ", (unsigned long)sites[s][d]);
            fputc('\n', out);
        }
        fclose(out);
        return;
    }
    fprintf(out, "--allocs-- %lu calls (every %dth kept)\n", calls, EVERY);
    for (unsigned long i = 0; i < kept && i < MAX_STACKS; i++, fputc('\n', out))
        for (int d = 0; d < DEPTH && stacks[i][d]; d++)
            fprintf(out, "%lx ", (unsigned long)stacks[i][d]);
    fclose(out);
}
