// perfbench — the repository benchmark.
//
//   perfbench --workload mixed_rw|dup_heavy_ec|churn --seed N --seconds S
//             --trace 0|1 [--tiny] [--inject readback|undrained|conservation]
//             [--trace-out PATH] [--promote-on-read]
//
// Runs the workload on a fresh cluster with fresh inputs, cycling through
// the workload's input sets (seeds derived from --seed), until S seconds
// of timed work have run.  The end-to-end host metrics take the fastest
// iteration, the per-layer host times the median of the traced ones;
// virtual-time metrics are pooled over the input sets.  --trace 0 prints
// the end-to-end metrics; --trace 1 alternates untraced and traced
// iterations on one input set and prints the per-layer split plus the
// tracing overhead.  The last stdout line is one JSON object.  Exit 0 only
// when every read matched the oracle, every drain finished and the
// refcount-conservation walk was clean.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "harness.h"

extern char** environ;

// ------------------------------------------------ allocation counting
// Replacement global operator new: counts calls while a traced iteration
// has counting switched on, otherwise costs one relaxed load.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gdedup::perfbench {

void alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool promote_on_read = false;
  Inject inject = Inject::kNone;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (k == "--promote-on-read") {
      a->promote_on_read = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--inject") {
      static const std::map<std::string, Inject> kInjects = {
          {"readback", Inject::kReadback},
          {"undrained", Inject::kUndrained},
          {"conservation", Inject::kConservation}};
      auto it = kInjects.find(v);
      if (it == kInjects.end()) return false;
      a->inject = it->second;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of virtual latencies, in microseconds.
double percentile_us(std::vector<SimTime> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::max(1.0, static_cast<double>(v.size()) * q + 0.999999999));
  const size_t idx = std::min(v.size(), rank) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return static_cast<double>(v[idx]) / 1e3;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

long status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n + 1);
  }
  return 0;
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  std::string a, b, c;
  f >> a >> b >> c;
  return a + " " + b + " " + c;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void print_lines() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); i++) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.10g", metrics_[i].value);
      if (i > 0) s += ", ";
      s += "\"" + metrics_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

double mb_per_s(const IterResult& r) {
  return ratio(static_cast<double>(r.client_bytes) / 1e6, r.timed_s);
}

// A run covers several input sets derived from --seed, so the virtual
// metrics average over inputs instead of hanging on one draw.  Seeds of
// different runs never share an input set.
constexpr uint64_t kMaxInputSets = 16;

uint64_t set_seed(uint64_t seed, size_t j) { return seed * kMaxInputSets + j; }

// Virtual-time results pooled over the first run of each input set:
// latency samples and byte counts are summed, the once-per-set values take
// the median (churn's drain time is bimodal, one HitSet period apart).
struct Pooled {
  std::vector<SimTime> write_lat;
  std::vector<SimTime> read_lat;
  uint64_t client_bytes = 0;
  SimTime client_virtual = 0;
  double space_amp = 0;
  double drain_virtual_s = 0;
};

Pooled pool(const std::vector<const IterResult*>& firsts) {
  Pooled p;
  std::vector<double> space_amp;
  std::vector<double> drain;
  for (const IterResult* r : firsts) {
    p.write_lat.insert(p.write_lat.end(), r->write_lat.begin(),
                       r->write_lat.end());
    p.read_lat.insert(p.read_lat.end(), r->read_lat.begin(),
                      r->read_lat.end());
    p.client_bytes += r->client_bytes;
    p.client_virtual += r->client_virtual;
    space_amp.push_back(r->space_amp);
    drain.push_back(static_cast<double>(r->drain_virtual) / kSecond);
  }
  p.space_amp = median(space_amp);
  p.drain_virtual_s = median(drain);
  return p;
}

double mean_us(const std::vector<SimTime>& v) {
  double sum = 0;
  for (SimTime x : v) sum += static_cast<double>(x);
  return ratio(sum / 1e3, static_cast<double>(v.size()));
}

// Host-time figures take the fastest of the run's iterations.  The host
// is shared: for tens of seconds at a time it runs this program up to 40%
// slower, so a run's median depends on when it ran, while its fastest
// repeats (the least-disturbed ones) agree from run to run.  The medians
// are printed alongside.
void end_to_end(const std::vector<IterResult>& plain, const Pooled& v,
                Report* rep) {
  std::vector<double> mbps, setup;
  for (const IterResult& r : plain) {
    mbps.push_back(mb_per_s(r));
    setup.push_back(r.setup_s);
  }
  std::printf("host medians over %zu iterations: %.3f sim-MB/s, setup "
              "%.4f s\n",
              plain.size(), median(mbps), median(setup));
  rep->add("sim_mb_per_s", *std::max_element(mbps.begin(), mbps.end()),
           "MB/s");
  rep->add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
  rep->add("peak_rss_mb", static_cast<double>(status_kb("VmHWM")) / 1024.0,
           "MB");
  rep->add("client_mb_per_s",
           ratio(static_cast<double>(v.client_bytes) / 1e6,
                 static_cast<double>(v.client_virtual) / kSecond),
           "MB/s");
  rep->add("write_mean_us", mean_us(v.write_lat), "us");
  rep->add("write_p99_us", percentile_us(v.write_lat, 0.99), "us");
  rep->add("read_mean_us", mean_us(v.read_lat), "us");
  rep->add("read_p99_us", percentile_us(v.read_lat, 0.99), "us");
  rep->add("space_amp", v.space_amp, "ratio");
  rep->add("drain_virtual_s", v.drain_virtual_s, "s");
}

void per_layer(const std::vector<IterResult>& plain,
               const std::vector<IterResult>& traced, const rusage& ru,
               Report* rep) {
  const IterResult& t = traced.front();  // counters repeat exactly
  const LayerCounters& l = t.layers;
  const double ops = static_cast<double>(t.attempted);
  auto med = [&](auto fn) {
    std::vector<double> v;
    for (const IterResult& r : traced) v.push_back(fn(r));
    return median(v);
  };
  auto kernel_s = [&](Kernel k) {
    return med([k](const IterResult& r) {
      return static_cast<double>(r.layers.kernel_ns[static_cast<int>(k)]) / 1e9;
    });
  };
  auto kernel_jobs = [&](Kernel k) {
    return static_cast<double>(l.kernel_jobs[static_cast<int>(k)]);
  };
  std::vector<double> plain_mbps;
  std::vector<double> plain_timed;
  for (const IterResult& r : plain) {
    plain_mbps.push_back(mb_per_s(r));
    plain_timed.push_back(r.timed_s);
  }
  const double untraced = median(plain_mbps);
  const double traced_mbps = med(mb_per_s);

  rep->add("workload.gen_s", med([](const IterResult& r) { return r.gen_s; }),
           "s");
  rep->add("sim.events", static_cast<double>(l.events), "count");
  rep->add("sim.events_per_op", ratio(static_cast<double>(l.events), ops),
           "count/op");
  rep->add("sim.events_per_s",
           ratio(static_cast<double>(l.events), median(plain_timed)), "1/s");
  rep->add("sim.arena_kb", static_cast<double>(l.arena_bytes) / 1024.0, "KiB");
  rep->add("sim.net_bytes_per_op",
           ratio(static_cast<double>(l.net_bytes), ops), "B/op");
  rep->add("sim.callback_self_s", med([](const IterResult& r) {
             const TraceTotals& x = r.trace;
             return static_cast<double>(x.step_ns - x.submit_in_step_ns -
                                        x.client_kernel_ns - x.read_crc_ns) /
                    1e9;
           }),
           "s");
  rep->add("rados.submit_s",
           med([](const IterResult& r) {
             return static_cast<double>(r.trace.submit_ns) / 1e9;
           }),
           "s");
  rep->add("rados.submit_us_per_op",
           med([](const IterResult& r) {
             return ratio(static_cast<double>(r.trace.submit_ns) / 1e3,
                          static_cast<double>(r.attempted));
           }),
           "us");
  rep->add("rados.client_errors", static_cast<double>(l.client_errors),
           "count");
  rep->add("osd.sub_writes_per_op",
           ratio(static_cast<double>(l.sub_writes), ops), "count/op");
  rep->add("osd.chunk_dedup_hit_ratio",
           ratio(static_cast<double>(l.chunk_dedup_hits),
                 static_cast<double>(l.chunk_puts)),
           "ratio");
  rep->add("osd.meta_bytes_written_per_op",
           ratio(static_cast<double>(l.meta_bytes_written), ops), "B/op");
  rep->add("osd.meta_read_amp",
           ratio(static_cast<double>(l.meta_bytes_read),
                 static_cast<double>(t.client_bytes)),
           "ratio");
  rep->add("osd.refs_cache_hit_ratio",
           ratio(static_cast<double>(l.refs_cache_hits),
                 static_cast<double>(l.refs_cache_hits + l.refs_decodes)),
           "ratio");
  rep->add("dedup.drain_s", med([](const IterResult& r) { return r.drain_s; }),
           "s");
  rep->add("dedup.drain_self_s", med([](const IterResult& r) {
             return r.drain_s -
                    static_cast<double>(r.trace.drain_kernel_ns) / 1e9;
           }),
           "s");
  rep->add("dedup.sha_avoided_ratio",
           ratio(static_cast<double>(l.sha_avoided + l.fp_memo_hits),
                 static_cast<double>(l.sha_computed + l.sha_avoided +
                                     l.fp_memo_hits)),
           "ratio");
  rep->add("dedup.fp_memo_hits", static_cast<double>(l.fp_memo_hits), "count");
  rep->add("dedup.evictions", static_cast<double>(l.evictions), "count");
  rep->add("dedup.flush_lat_p99_us",
           static_cast<double>(l.flush_lat_p99_ns) / 1e3, "us");
  rep->add("dedup.read_chunk_rpcs", static_cast<double>(l.read_chunk_rpcs),
           "count");
  rep->add("dedup.read_amp_objs_per_mb",
           ratio(static_cast<double>(l.read_chunk_objects),
                 static_cast<double>(l.read_logical_bytes) / 1e6),
           "objs/MB");
  rep->add("dedup.asm_hit_ratio",
           ratio(static_cast<double>(l.asm_hits),
                 static_cast<double>(l.redirected_read_chunks)),
           "ratio");
  rep->add("hash.fingerprint_s", kernel_s(Kernel::kFingerprint), "s");
  rep->add("hash.fingerprint_jobs", kernel_jobs(Kernel::kFingerprint),
           "count");
  rep->add("ec.encode_s", kernel_s(Kernel::kEcEncode), "s");
  rep->add("ec.encode_jobs", kernel_jobs(Kernel::kEcEncode), "count");
  rep->add("common.allocs_per_op",
           ratio(static_cast<double>(t.trace.allocs), ops), "count/op");
  rep->add("bench.read_crc_s", med([](const IterResult& r) {
             return static_cast<double>(r.trace.read_crc_ns) / 1e9;
           }),
           "s");
  rep->add("bench.cpu_s", cpu_seconds(), "s");
  rep->add("bench.minflt", static_cast<double>(ru.ru_minflt), "count");
  rep->add("bench.nivcsw", static_cast<double>(ru.ru_nivcsw), "count");
  rep->add("trace.untraced_mb_per_s", untraced, "MB/s");
  rep->add("trace.traced_mb_per_s", traced_mbps, "MB/s");
  rep->add("trace.overhead_frac", ratio(untraced - traced_mbps, untraced),
           "ratio");
  rep->add("trace.spans", static_cast<double>(t.trace.spans), "count");
}

int run(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--inject readback|undrained|"
                 "conservation] [--trace-out PATH] [--promote-on-read]\n");
    return 2;
  }
  // Every number must measure the configuration the harness sets, never
  // one the environment overrides.
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "GDEDUP_", 7) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      return 2;
    }
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s%s "
              "nproc=%ld loadavg=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, a.tiny ? " tiny" : "",
              a.promote_on_read ? " promote_on_read" : "", nproc,
              loadavg().c_str());

  // Plain runs cycle through the input sets until --seconds of timed work
  // is done.  With --trace 1, untraced and traced iterations alternate on
  // the first input set, so the overhead compares identical inputs.
  const size_t subs = a.tiny ? 1 : input_sets(a.workload);
  if (subs == 0) {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  const size_t min_plain = a.trace ? (a.tiny ? 1 : 2) : subs;
  const size_t min_traced = a.trace ? min_plain : 0;
  const int64_t start = host_ns();
  std::vector<IterResult> plain;
  std::vector<IterResult> traced;
  std::vector<size_t> plain_sub;
  double timed = 0;
  double slowest = 0;
  for (size_t iter = 0;; iter++) {
    const bool want_trace = a.trace == 1 && iter % 2 == 1;
    const size_t j = a.trace ? 0 : iter % subs;
    IterOptions opt;
    opt.seed = set_seed(a.seed, j);
    opt.tiny = a.tiny;
    opt.promote_on_read = a.promote_on_read;
    opt.traced = want_trace;
    opt.keep_spans = want_trace && traced.empty();
    opt.inject = a.inject;
    const int64_t t0 = host_ns();
    IterResult r;
    if (!run_iteration(a.workload, opt, &r)) {
      std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
      return 2;
    }
    const double wall = static_cast<double>(host_ns() - t0) / 1e9;
    slowest = std::max(slowest, wall);
    timed += r.timed_s;
    std::printf("iter %zu seed %llu%s: setup %.3f s  timed %.3f s  "
                "cpu %.3f s  drain %.3f s (virtual %.3f s)  %.2f sim-MB/s  "
                "wall %.2f s  digest %s\n",
                iter, static_cast<unsigned long long>(opt.seed),
                want_trace ? " traced" : "", r.setup_s, r.timed_s,
                r.timed_cpu_s, r.drain_s,
                static_cast<double>(r.drain_virtual) / kSecond,
                mb_per_s(r), wall, r.digest.c_str());
    for (const std::string& p : r.problems) {
      std::printf("  FAIL: %s\n", p.c_str());
    }
    if (!r.trace_json.empty() && !a.trace_out.empty()) {
      std::ofstream(a.trace_out) << r.trace_json;
      std::printf("  trace written to %s\n", a.trace_out.c_str());
    }
    r.trace_json.clear();
    if (want_trace) {
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
      plain_sub.push_back(j);
    }

    const bool enough = plain.size() >= min_plain &&
                        traced.size() >= min_traced && timed >= a.seconds;
    const double elapsed = static_cast<double>(host_ns() - start) / 1e9;
    // Stay well inside the 180 s run limit whatever --seconds asks for.
    const bool out_of_time = elapsed + slowest > 150.0;
    if (enough || (out_of_time && plain.size() >= min_plain &&
                   traced.size() >= min_traced)) {
      break;
    }
  }

  // Repeats of an input set must retrace the same virtual trajectory; the
  // digest is reported, not gated.
  std::vector<const IterResult*> firsts;
  bool digests_agree = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (size_t i = 0; i < plain.size(); i++) {
    if (plain_sub[i] == firsts.size()) firsts.push_back(&plain[i]);
    digests_agree = digests_agree && plain[i].digest ==
                                         firsts[plain_sub[i]]->digest;
  }
  for (const IterResult& r : traced) {
    digests_agree = digests_agree && r.digest == plain.front().digest;
  }
  std::string digest;
  for (const IterResult* r : firsts) digest += r->digest;
  for (const auto* set : {&plain, &traced}) {
    for (const IterResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const bool correct = failed == 0;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const Pooled v = pool(firsts);
  std::printf("digest %s (%s across %zu iterations)\n", digest.c_str(),
              digests_agree ? "repeats identical" : "repeats DIFFER",
              plain.size() + traced.size());
  std::printf("op_fail_frac %.6f ratio (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, lat] :
       {std::pair{"write", &v.write_lat}, std::pair{"read", &v.read_lat}}) {
    std::printf("%s latency us over %zu input sets: n=%zu mean %.3f p50 %.3f "
                "p90 %.3f p99 %.3f p99.9 %.3f\n",
                name, firsts.size(), lat->size(), mean_us(*lat),
                percentile_us(*lat, 0.5), percentile_us(*lat, 0.9),
                percentile_us(*lat, 0.99), percentile_us(*lat, 0.999));
  }
  const IterResult& f = *firsts.front();
  std::printf("after drain (seed %llu): metadata pool %.1f MiB, chunk pool "
              "%.1f MiB physical for %.1f MiB live\n",
              static_cast<unsigned long long>(set_seed(a.seed, 0)),
              static_cast<double>(f.meta_physical) / (1 << 20),
              static_cast<double>(f.chunk_physical) / (1 << 20),
              static_cast<double>(f.live_bytes) / (1 << 20));
  SimTime lateness = 0;
  for (const IterResult* r : firsts) {
    lateness = std::max(lateness, r->open_lateness);
  }
  std::printf("open-loop generator lateness %.3f us\n",
              static_cast<double>(lateness) / 1e3);
  std::printf("noise: bench.cpu_s %.3f  bench.minflt %ld  bench.nivcsw %ld  "
              "timed %.2f s over %zu iterations\n",
              cpu_seconds(), ru.ru_minflt, ru.ru_nivcsw, timed,
              plain.size() + traced.size());

  Report rep;
  if (a.trace == 1) {
    per_layer(plain, traced, ru, &rep);
  } else {
    end_to_end(plain, v, &rep);
  }
  rep.print_lines();
  std::printf("%s\n", rep.json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gdedup::perfbench

namespace {

// A livelock in the simulated cluster spins inside one Scheduler::step and
// never returns to the harness, so a wall-clock alarm ends such a run with
// a failure well before the benchmark's 180 s limit.
constexpr unsigned kWatchdogSeconds = 170;

void on_watchdog(int) {
  static const char kMsg[] =
      "perfbench: run exceeded its wall-clock limit; aborting (a livelock "
      "in the simulated cluster?)\n";
  const ssize_t n = write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)n;
  _exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGALRM, on_watchdog);
  alarm(kWatchdogSeconds);
  // Line-buffered, so the iterations done before an abort stay visible.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return gdedup::perfbench::run(argc, argv);
}
