// The sampler behind scripts/hostprof.sh, for a host with no perf, gdb or
// valgrind: an LD_PRELOAD constructor arms ITIMER_PROF (250 Hz of process
// CPU time) and the SIGPROF handler records RIP, the word at RSP (the return
// address when the sample lands in a frameless libc leaf such as memmove)
// and a bounded frame-pointer walk. Memory is read with process_vm_readv, so
// a register that is no frame pointer ends the walk, not the process. At
// exit the samples go to $HOSTPROF_OUT with /proc/self/maps and the run-time
// addresses of the libc routines worth naming: libc is stripped, and the
// IFUNC-selected memmove has no dynamic symbol of its own.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 24, MAX_SAMPLES = 1 << 16 };
static uint64_t samples[MAX_SAMPLES][2 + DEPTH];
static long taken;
static pid_t self;

static int peek(uint64_t addr, uint64_t *out, size_t words) {
    struct iovec local = {out, words * 8}, remote = {(void *)addr, words * 8};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)(words * 8);
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    int saved_errno = errno;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
        uint64_t *s = samples[i], frame[2], fp = regs[REG_RBP];
        s[0] = regs[REG_RIP];
        s[1] = peek(regs[REG_RSP], frame, 1) ? frame[0] : 0;
        // A frame record is { caller's rbp, return address }, and the chain
        // only climbs: anything else is a register in other use.
        for (int d = 0; d < DEPTH && !(fp & 7) && peek(fp, frame, 2); d++) {
            s[2 + d] = frame[1];
            if (frame[0] <= fp)
                break;
            fp = frame[0];
        }
    }
    errno = saved_errno;
}

__attribute__((constructor)) static void arm(void) {
    self = getpid();
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.samples", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (char line[4096]; fgets(line, sizeof line, maps);)
        fprintf(out, "M %s", line);
    const char *named[] = {"memmove", "memcpy", "memset", "malloc", "free", "realloc"};
    for (size_t i = 0; i < sizeof named / sizeof *named; i++)
        fprintf(out, "F %s %lx\n", named[i], (unsigned long)dlsym(RTLD_DEFAULT, named[i]));
    for (long i = 0; i < taken && i < MAX_SAMPLES; i++) {
        fputc('S', out);
        for (int d = 0; d < 2 + DEPTH && (d < 2 || samples[i][d]); d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
