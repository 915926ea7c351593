/* Allocation-site sampler, loaded with LD_PRELOAD.
 *
 * Interposes malloc(3) and records the call stack of every 1009th call
 * (a prime, so loops that allocate a fixed number of times per iteration
 * do not alias with the period) into a preallocated table of 200000
 * samples.  Every C++ allocation reaches malloc through operator new, so
 * the sampled stacks are a uniform 1-in-1009 sample of the heap
 * allocations, and a function's share of the samples is its share of the
 * allocation count.
 *
 * At exit the samples go to SAMPLER_OUT (default allocs.<pid>.txt) in
 * sampler.c's format, so report.py reads both:
 *
 *   map <start> <end> <file offset> <path>
 *   s <call site> <return address> ...        (innermost first, hex)
 *
 * The first address of a sample is the return address into malloc's
 * caller minus one: an address inside the call instruction, which
 * symbolizes to the allocating line the way a sampled PC would.
 *
 * Build: cc -O2 -fPIC -shared -o allocsamp.so allocsamp.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

enum { kDepth = 64, kEvery = 1009, kMaxSamples = 200000 };

extern void* __libc_malloc(size_t n);

static void** g_frames; /* kMaxSamples x kDepth */
static int* g_depth;    /* frames recorded per sample */
static size_t g_n;      /* samples taken, including dropped ones */
static unsigned long g_calls;
static __thread int t_inside; /* backtrace() may itself allocate */

/* `ra` is malloc's return address; frames below it are this library. */
static void record(void* ra) {
  const size_t s = __atomic_fetch_add(&g_n, 1, __ATOMIC_RELAXED);
  if (s >= kMaxSamples) return;
  void* raw[kDepth + 4];
  const int got = backtrace(raw, kDepth + 4);
  int first = 0;
  while (first < got && raw[first] != ra) first++;
  if (first == got) first = 0;
  void** out = g_frames + s * kDepth;
  int d = 0;
  for (int i = first; i < got && d < kDepth; i++) {
    out[d++] = i == first ? (void*)((char*)raw[i] - 1) : raw[i];
  }
  g_depth[s] = d;
}

void* malloc(size_t n) {
  if (g_frames != NULL && !t_inside &&
      __atomic_add_fetch(&g_calls, 1, __ATOMIC_RELAXED) % kEvery == 0) {
    t_inside = 1;
    record(__builtin_return_address(0));
    t_inside = 0;
  }
  return __libc_malloc(n);
}

static void dump(void) {
  void** frames = g_frames;
  g_frames = NULL; /* stop sampling: the writes below allocate */
  const char* path = getenv("SAMPLER_OUT");
  char fallback[64];
  if (path == NULL || *path == '\0') {
    snprintf(fallback, sizeof(fallback), "allocs.%d.txt", (int)getpid());
    path = fallback;
  }
  FILE* f = fopen(path, "w");
  if (f == NULL) {
    perror("allocsamp: cannot write profile");
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
  const size_t n = g_n < kMaxSamples ? g_n : kMaxSamples;
  for (size_t s = 0; s < n; s++) {
    fputc('s', f);
    for (int i = 0; i < g_depth[s]; i++) {
      fprintf(f, " %lx", (unsigned long)frames[s * kDepth + i]);
    }
    fputc('\n', f);
  }
  fclose(f);
  fprintf(stderr, "allocsamp: %zu samples of %lu mallocs (%zu dropped) -> %s\n",
          n, g_calls, g_n - n, path);
}

__attribute__((constructor)) static void start(void) {
  /* mmap'd, so untouched capacity costs no resident memory. */
  void** frames = mmap(NULL, (size_t)kMaxSamples * kDepth * sizeof(void*),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  g_depth = mmap(NULL, kMaxSamples * sizeof(int), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (frames == MAP_FAILED || g_depth == MAP_FAILED) return;

  /* The first backtrace() loads the unwinder, which allocates. */
  void* warm[4];
  backtrace(warm, 4);
  atexit(dump);
  g_frames = frames;
}
