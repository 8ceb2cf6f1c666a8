// The allocation sampler behind scripts/allocprof.sh: an LD_PRELOAD that
// wraps malloc, calloc and realloc (forwarding to glibc's __libc_* entry
// points) and records, per allocation, the same sample scripts/hostprof.c
// takes per SIGPROF: the routine called, the return address into its caller
// and a bounded frame-pointer walk from the caller's frame, read with
// process_vm_readv so a register that is no frame pointer ends the walk, not
// the process. A reservoir keeps MAX_SAMPLES of them uniformly over the whole
// run, so a long set-up cannot crowd the run phase out. A per-thread flag
// keeps the sampler's own calls out. At exit the samples go to $HOSTPROF_OUT
// in hostprof.c's format, with an `A` line giving the allocation count.
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/uio.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

enum { DEPTH = 24, MAX_SAMPLES = 1 << 17 };
static uint64_t samples[MAX_SAMPLES][2 + DEPTH];
static uint64_t seen;
static __thread int busy __attribute__((tls_model("initial-exec")));
static pid_t self;

static int peek(uint64_t addr, uint64_t *out, size_t words) {
    struct iovec local = {out, words * 8}, remote = {(void *)addr, words * 8};
    if (!self)
        self = getpid();
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)(words * 8);
}

// Reservoir sampling (Algorithm R): allocation n replaces a random slot
// with probability MAX_SAMPLES / n. The hash of n stands in for a random
// number, so a run's samples are reproducible.
static uint64_t *slot_for(uint64_t n) {
    if (n < MAX_SAMPLES)
        return samples[n];
    uint64_t z = (n + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 31)) * 0x94D049BB133111EBull;
    z = (z ^ (z >> 29)) % (n + 1);
    return z < MAX_SAMPLES ? samples[z] : NULL;
}

__attribute__((noinline)) static void record(void *routine, uint64_t ret, uint64_t fp) {
    uint64_t *s = slot_for(__atomic_fetch_add(&seen, 1, __ATOMIC_RELAXED));
    if (!s)
        return;
    uint64_t frame[2];
    s[0] = (uint64_t)routine;
    s[1] = ret;
    int d = 0;
    // A frame record is { caller's rbp, return address }, and the chain
    // only climbs: anything else is a register in other use.
    for (; d < DEPTH && fp && !(fp & 7) && peek(fp, frame, 2); d++) {
        s[2 + d] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    for (; d < DEPTH; d++)
        s[2 + d] = 0;
}

// Each wrapper's frame record holds the caller's rbp: the walk starts there,
// as hostprof.c's does from a frameless leaf.
#define SAMPLE(routine)                                                              \
    do {                                                                             \
        if (!busy) {                                                                 \
            busy = 1;                                                                \
            record((void *)routine, (uint64_t)__builtin_return_address(0),          \
                   *(uint64_t *)__builtin_frame_address(0));                         \
            busy = 0;                                                                \
        }                                                                            \
    } while (0)

void *malloc(size_t n) {
    SAMPLE(malloc);
    return __libc_malloc(n);
}

void *calloc(size_t k, size_t n) {
    SAMPLE(calloc);
    return __libc_calloc(k, n);
}

void *realloc(void *p, size_t n) {
    SAMPLE(realloc);
    return __libc_realloc(p, n);
}

__attribute__((destructor)) static void dump(void) {
    busy = 1;
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "allocprof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (char line[4096]; fgets(line, sizeof line, maps);)
        fprintf(out, "M %s", line);
    fprintf(out, "F malloc %lx\nF calloc %lx\nF realloc %lx\n", (unsigned long)malloc,
            (unsigned long)calloc, (unsigned long)realloc);
    fprintf(out, "A %lu\n", (unsigned long)seen);
    for (uint64_t i = 0; i < seen && i < MAX_SAMPLES; i++) {
        fputc('S', out);
        for (int d = 0; d < 2 + DEPTH && (d < 2 || samples[i][d]); d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
