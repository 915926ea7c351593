// Deterministic worker-pool offload (sim/exec_pool.h).
//
// The contract under test: thread count changes wall-clock only.  Every
// virtual-time observable — the determinism digest of the e2e scenario,
// event counts, fault-campaign reports — must be byte-identical for any
// GDEDUP_EXEC_THREADS, because jobs are pure and joins ride pre-existing
// scheduler callbacks.  Plus pool mechanics: serial deferral, join-steal,
// shutdown with in-flight jobs, and a randomized-duration stress that TSan
// chews on in scripts/check_sanitizers.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "rados/fault_campaign.h"
#include "sim/cpu.h"
#include "sim/exec_pool.h"
#include "sim_e2e_scenario.h"

namespace gdedup {
namespace {

// Burn host cycles without UB: unsigned wrap instead of signed overflow,
// volatile store so the loop survives optimization.
void spin(int iters) {
  unsigned acc = 0;
  for (int i = 0; i < iters; i++) acc += static_cast<unsigned>(i);
  volatile unsigned sink = acc;
  (void)sink;
}

TEST(ExecPool, SerialDefersToJoin) {
  // threads=1 must compile down to today's inline path: nothing runs at
  // submit; take() computes on the caller.
  ExecPool pool(1);
  EXPECT_FALSE(pool.parallel());
  bool ran = false;
  auto fut = kernel_async<int>(&pool, Kernel::kCrc, [&ran] {
    ran = true;
    return 41 + 1;
  });
  EXPECT_FALSE(ran);
  EXPECT_EQ(fut.take(), 42);
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.jobs_offloaded(), 0u);
  EXPECT_EQ(pool.kernel_stats(Kernel::kCrc).jobs, 1u);
}

TEST(ExecPool, NullPoolRunsInline) {
  // Fixtures without a cluster pass nullptr; same deferred semantics.
  auto fut = kernel_async<int>(nullptr, Kernel::kFingerprint, [] { return 7; });
  EXPECT_TRUE(fut.valid());
  EXPECT_EQ(fut.take(), 7);
}

TEST(ExecPool, ParallelResultsAndJoinOrderIndependence) {
  ExecPool pool(4);
  EXPECT_TRUE(pool.parallel());
  std::vector<KernelFuture<int>> futs;
  for (int i = 0; i < 256; i++) {
    futs.push_back(
        kernel_async<int>(&pool, Kernel::kEcEncode, [i] { return i * i; }));
  }
  // Join in reverse: results must not depend on join order.
  for (int i = 255; i >= 0; i--) EXPECT_EQ(futs[i].take(), i * i);
  EXPECT_EQ(pool.kernel_stats(Kernel::kEcEncode).jobs, 256u);
}

TEST(ExecPool, JoinBeforeDispatchOrdering) {
  // Completion order is dictated by virtual cost, not host duration: a
  // job with a long host runtime but short virtual cost must complete
  // (be joined) before a cheap-host / expensive-virtual one.  This is the
  // join-at-dispatch rule end to end on a raw Scheduler + CpuModel.
  Scheduler sched;
  CpuModel cpu(&sched, CpuConfig{});
  ExecPool pool(8);
  std::vector<int> completion_order;
  struct Spec {
    int id;
    SimTime vcost;
    int host_spin;  // iterations, inverted vs vcost on purpose
  };
  const Spec specs[] = {{0, usec(300), 1000}, {1, usec(100), 2000000},
                        {2, usec(200), 1}};
  std::vector<KernelFuture<int>> futs(3);
  for (const Spec& s : specs) {
    futs[s.id] = kernel_async<int>(&pool, Kernel::kCompress, [s] {
      spin(s.host_spin);
      return s.id;
    });
    cpu.execute(s.vcost, [&completion_order, &futs, id = s.id] {
      completion_order.push_back(futs[id].take());
    });
  }
  sched.run();
  ASSERT_EQ(completion_order.size(), 3u);
  // Virtual costs order them 1 (100us), 2 (200us), 0 (300us).
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
  EXPECT_EQ(completion_order[2], 0);
}

TEST(ExecPool, ShutdownWithInFlightJobs) {
  // Destroying a parallel pool with queued + running jobs must drain:
  // every job has executed by the time the destructor returns.
  std::atomic<int> ran{0};
  {
    ExecPool pool(2);
    for (int i = 0; i < 64; i++) {
      // Dropped unjoined: the queued job outlives its future.
      kernel_async<int>(&pool, Kernel::kCrc, [&ran] {
        spin(50000);
        ran.fetch_add(1, std::memory_order_relaxed);
        return 0;
      });
    }
    // No joins: the destructor owns the drain.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ExecPool, StressRandomizedDurations) {
  // TSan fodder: many producers' worth of jobs with wildly varying
  // runtimes, joined at randomized points, twice over pool lifetimes.
  for (int round = 0; round < 2; round++) {
    ExecPool pool(4);
    std::vector<KernelFuture<uint64_t>> futs;
    uint64_t rng = 0x9E3779B97F4A7C15ull + round;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    std::vector<uint64_t> expect;
    for (int i = 0; i < 500; i++) {
      const int iters = static_cast<int>(next() % 20000);
      const uint64_t seed = next();
      expect.push_back(seed ^ static_cast<uint64_t>(iters));
      futs.push_back(kernel_async<uint64_t>(
          &pool, Kernel::kFingerprint, [iters, seed] {
            spin(iters);
            return seed ^ static_cast<uint64_t>(iters);
          }));
      if (next() % 3 == 0 && !futs.empty()) {
        // Join a random prefix element early, out of submission order.
        const size_t idx = next() % futs.size();
        if (futs[idx].valid()) {
          EXPECT_EQ(futs[idx].take(), expect[idx]);
        }
      }
    }
    for (size_t i = 0; i < futs.size(); i++) {
      if (futs[i].valid()) {
        EXPECT_EQ(futs[i].take(), expect[i]);
      }
    }
  }
}

// --- Digest equivalence: the headline determinism guarantee ---

bench::SimE2eConfig equivalence_config(bool ec) {
  bench::SimE2eConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;
  cfg.ec = ec;
  return cfg;
}

TEST(ExecPoolDeterminism, DigestEquivalenceReplicated) {
  bench::SimE2eConfig cfg = equivalence_config(/*ec=*/false);
  cfg.exec_threads = 1;
  const bench::SimE2eResult serial = bench::run_sim_e2e(cfg);
  EXPECT_TRUE(serial.drained);
  EXPECT_EQ(serial.kernel_jobs_offloaded, 0u);
  for (int threads : {2, 8}) {
    cfg.exec_threads = threads;
    const bench::SimE2eResult mt = bench::run_sim_e2e(cfg);
    EXPECT_EQ(mt.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(mt.events, serial.events) << "threads=" << threads;
    EXPECT_EQ(mt.sim_duration, serial.sim_duration) << "threads=" << threads;
    EXPECT_EQ(mt.exec_threads_used, threads);
    EXPECT_GT(mt.kernel_jobs_offloaded, 0u) << "threads=" << threads;
  }
}

TEST(ExecPoolDeterminism, DigestEquivalenceEc) {
  bench::SimE2eConfig cfg = equivalence_config(/*ec=*/true);
  cfg.exec_threads = 1;
  const bench::SimE2eResult serial = bench::run_sim_e2e(cfg);
  for (int threads : {2, 8}) {
    cfg.exec_threads = threads;
    const bench::SimE2eResult mt = bench::run_sim_e2e(cfg);
    EXPECT_EQ(mt.digest, serial.digest) << "threads=" << threads;
    EXPECT_EQ(mt.events, serial.events) << "threads=" << threads;
    EXPECT_EQ(mt.sim_duration, serial.sim_duration) << "threads=" << threads;
  }
}

TEST(ExecPoolDeterminism, FaultCampaignSliceEquivalence) {
  // 50 crash schedules (the campaign's seed->variant matrix: replicated /
  // EC chunk pools, async deref, rate control) must produce byte-stable
  // reports regardless of thread count.  The campaign builds its own
  // Clusters, which read GDEDUP_EXEC_THREADS at construction.
  auto run_slice = [](const char* threads) {
    setenv("GDEDUP_EXEC_THREADS", threads, 1);
    std::vector<std::string> reports;
    for (uint64_t seed = 1; seed <= 50; seed++) {
      ScheduleResult r = run_fault_schedule(schedule_config_for_seed(seed));
      EXPECT_TRUE(r.clean()) << "seed " << seed << " threads=" << threads;
      reports.push_back(std::move(r.report));
    }
    unsetenv("GDEDUP_EXEC_THREADS");
    return reports;
  };
  const auto serial = run_slice("1");
  const auto mt = run_slice("4");
  ASSERT_EQ(serial.size(), mt.size());
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(serial[i], mt[i]) << "schedule seed " << (i + 1);
  }
}

}  // namespace
}  // namespace gdedup
