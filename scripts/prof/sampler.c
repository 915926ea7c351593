/* SIGPROF stack sampler, loaded with LD_PRELOAD.
 *
 * An ITIMER_PROF timer fires every millisecond of process CPU time; the
 * handler records the interrupted PC and the return addresses above it
 * with backtrace(3) into a preallocated table of 200000 samples.
 * At exit the samples go to SAMPLER_OUT (default prof.<pid>.txt),
 * together with the executable mappings from /proc/self/maps, so that
 * report.py can symbolize them offline with addr2line.  The output format
 * is line based:
 *
 *   map <start> <end> <file offset> <path>
 *   s <pc> <return address> ...        (leaf first, hex)
 *
 * Build: cc -O2 -fPIC -shared -o sampler.so sampler.c
 * Only the thread that the kernel picks for each signal is sampled; the
 * benchmark runs single-threaded, so that is the whole timed region.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 64, kPeriodUs = 1000, kMaxSamples = 200000 };

static void** g_frames;     /* kMaxSamples x kDepth */
static int* g_depth;        /* frames recorded per sample */
static volatile size_t g_n; /* samples taken */
static volatile size_t g_dropped;

static void on_prof(int sig, siginfo_t* si, void* uctx) {
  (void)sig;
  (void)si;
  if (g_n >= kMaxSamples) {
    g_dropped++;
    return;
  }
  void* raw[kDepth + 8];
  const int got = backtrace(raw, kDepth + 8);
  /* Drop the handler and signal-trampoline frames: start at the frame
   * whose address is the interrupted PC, else after the first two. */
  const void* pc =
      (const void*)((ucontext_t*)uctx)->uc_mcontext.gregs[REG_RIP];
  int first = got > 2 ? 2 : got;
  for (int i = 0; i < got && i < 4; i++) {
    if (raw[i] == pc) {
      first = i;
      break;
    }
  }
  void** out = g_frames + g_n * kDepth;
  int d = 0;
  out[d++] = (void*)pc;
  for (int i = first + (raw[first] == pc ? 1 : 0); i < got && d < kDepth; i++) {
    out[d++] = raw[i];
  }
  g_depth[g_n] = d;
  g_n++;
}

static void dump(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  const char* path = getenv("SAMPLER_OUT");
  char fallback[64];
  if (path == NULL || *path == '\0') {
    snprintf(fallback, sizeof(fallback), "prof.%d.txt", (int)getpid());
    path = fallback;
  }
  FILE* f = fopen(path, "w");
  if (f == NULL) {
    perror("sampler: cannot write profile");
    return;
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      unsigned long lo, hi, off;
      char perms[8], dev[16], file[3072];
      unsigned long inode;
      file[0] = '\0';
      if (sscanf(line, "%lx-%lx %7s %lx %15s %lu %3071s", &lo, &hi, perms,
                 &off, dev, &inode, file) >= 6 &&
          perms[2] == 'x' && file[0] == '/') {
        fprintf(f, "map %lx %lx %lx %s\n", lo, hi, off, file);
      }
    }
    fclose(maps);
  }
  for (size_t s = 0; s < g_n; s++) {
    fputc('s', f);
    for (int i = 0; i < g_depth[s]; i++) {
      fprintf(f, " %lx", (unsigned long)g_frames[s * kDepth + i]);
    }
    fputc('\n', f);
  }
  fclose(f);
  fprintf(stderr, "sampler: %zu samples (%zu dropped) -> %s\n", g_n,
          g_dropped, path);
}

__attribute__((constructor)) static void start(void) {
  /* mmap'd, so untouched capacity costs no resident memory. */
  g_frames = mmap(NULL, (size_t)kMaxSamples * kDepth * sizeof(void*),
                  PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  g_depth = mmap(NULL, kMaxSamples * sizeof(int), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (g_frames == MAP_FAILED || g_depth == MAP_FAILED) return;

  /* The first backtrace() loads the unwinder; do it outside the handler. */
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(dump);

  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = kPeriodUs;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}
