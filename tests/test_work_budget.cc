// Gated work budgets: heap allocations and scheduler events per client op
// on the block path.
//
// A tiny block workload (preload, duplicate-heavy 8 KiB overwrites, dedup
// drain, 8 KiB reads) on a 2x metadata pool tiered onto a 2x chunk pool,
// with every operator new and every executed event in the run counted.
// Both counts are pure functions of the code path (serial engine, no
// kernel workers), so the budgets are hard gates: a change that adds
// per-op copies or per-op events on the OSD op path or in the tier fails
// here, long before it shows as wall time.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "test_util.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line, so the compiler does not see (and warn about) a free() of
// operator new's memory at every inlined delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gdedup {
namespace {

// Allocations per client op when the budget was set: 39.1, down from
// 72.4 once object names became shared immutable ObjectNames, event and
// reply callables move-only with inline captures, and each message hop
// one heap record (120.2 before the OSD op path stopped copying
// transactions, reply callbacks and queued ops).  The budget leaves ~10%
// for unrelated growth; lower it when a change cuts the count.
constexpr double kAllocsPerOpBudget = 43.0;
// Scheduler events per client op when the budget was set: 12.37.  Same
// ~10% headroom.
constexpr double kEventsPerOpBudget = 13.6;

constexpr uint64_t kImageBytes = 4 << 20;
constexpr uint32_t kObjectBytes = 1 << 20;
constexpr uint64_t kPreloadIo = 128 << 10;
constexpr uint64_t kSmallIo = 8 << 10;
constexpr int kOverwrites = 256;
constexpr int kReads = 128;

// Issue `n` ops with `issue(i, done)` and step the engine until all have
// completed; returns the number that failed.
template <typename Issue>
int run_ops(Cluster& c, int n, Issue issue) {
  int pending = n;
  int failed = 0;
  for (int i = 0; i < n; i++) {
    issue(i, [&pending, &failed](bool ok) {
      if (!ok) failed++;
      pending--;
    });
  }
  while (pending > 0 && c.sched().step()) {
  }
  return pending > 0 ? n : failed;
}

TEST(WorkBudget, BlockPathAllocationsAndEventsPerOp) {
  ClusterConfig cc = testutil::small_cluster_config();
  cc.storage_nodes = 2;
  cc.osds_per_node = 2;
  cc.client_nodes = 1;
  cc.exec_threads = 1;
  cc.sim_shards = 1;
  cc.recipe_dedup = 0;
  testutil::DedupHarness h(testutil::test_tier_config(), cc);
  BlockDevice bd(h.client.get(), h.meta, "budget-img", kImageBytes,
                 kObjectBytes);

  // Content drawn from a small pool of 8 KiB blocks, so overwrites
  // deduplicate against each other and against the preload.
  std::vector<Buffer> blocks;
  for (int i = 0; i < 16; i++) {
    blocks.push_back(testutil::random_buffer(kSmallIo, 100 + i));
  }
  std::vector<Buffer> preload;
  for (uint64_t off = 0; off < kImageBytes; off += kPreloadIo) {
    Buffer b(kPreloadIo);
    for (uint64_t o = 0; o < kPreloadIo; o += kSmallIo) {
      b.write_at(o, blocks[((off + o) / kSmallIo) % blocks.size()]);
    }
    preload.push_back(std::move(b));
  }
  Rng rng(7);
  std::vector<uint64_t> write_at, read_at;
  std::vector<size_t> write_block;
  for (int i = 0; i < kOverwrites; i++) {
    write_at.push_back(rng.below(kImageBytes / kSmallIo) * kSmallIo);
    write_block.push_back(rng.below(blocks.size()));
  }
  for (int i = 0; i < kReads; i++) {
    read_at.push_back(rng.below(kImageBytes / kSmallIo) * kSmallIo);
  }

  auto write = [&bd](uint64_t off, const Buffer& data, auto done) {
    bd.write(off, data, [done](Status s) { done(s.is_ok()); });
  };
  const int preload_ops = static_cast<int>(preload.size());
  const uint64_t events0 = h.cluster->sched().events_executed();
  g_allocs.store(0);
  g_counting.store(true);
  int failed = run_ops(*h.cluster, preload_ops, [&](int i, auto done) {
    write(static_cast<uint64_t>(i) * kPreloadIo, preload[i], done);
  });
  failed += run_ops(*h.cluster, kOverwrites, [&](int i, auto done) {
    write(write_at[i], blocks[write_block[i]], done);
  });
  const bool drained = h.drain();
  failed += run_ops(*h.cluster, kReads, [&](int i, auto done) {
    bd.read(read_at[i], kSmallIo,
            [done](Result<Buffer> r) { done(r.is_ok()); });
  });
  g_counting.store(false);
  const uint64_t events = h.cluster->sched().events_executed() - events0;

  ASSERT_TRUE(drained);
  ASSERT_EQ(failed, 0);
  const int ops = preload_ops + kOverwrites + kReads;
  const double per_op = static_cast<double>(g_allocs.load()) / ops;
  const double events_per_op = static_cast<double>(events) / ops;
  std::printf("allocs_per_op %.2f (budget %.1f), events_per_op %.2f "
              "(budget %.1f), %d client ops\n",
              per_op, kAllocsPerOpBudget, events_per_op, kEventsPerOpBudget,
              ops);
  EXPECT_LE(per_op, kAllocsPerOpBudget);
  EXPECT_LE(events_per_op, kEventsPerOpBudget);
}

}  // namespace
}  // namespace gdedup
