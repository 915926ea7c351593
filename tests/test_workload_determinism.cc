// Cross-cutting determinism properties: the whole simulation is a pure
// function of its seeds — identical runs produce identical clusters, and
// op-stream generators are stable across instances (the property every
// bench's paper-vs-measured comparison quietly relies on).

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/fio_gen.h"
#include "workload/sfs_db.h"
#include "workload/vm_corpus.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

TEST(Determinism, IdenticalRunsProduceIdenticalClusters) {
  auto run = [] {
    DedupHarness h(test_tier_config());
    workload::FioConfig cfg;
    cfg.total_bytes = 4ull << 20;
    cfg.block_size = kChunk;
    cfg.dedupe_ratio = 0.5;
    workload::FioGenerator gen(cfg);
    for (uint64_t b = 0; b < gen.num_blocks(); b++) {
      EXPECT_TRUE(h.write("o" + std::to_string(b), 0, gen.block(b)).is_ok());
    }
    EXPECT_TRUE(h.drain());
    struct Snapshot {
      SimTime now;
      uint64_t physical;
      uint64_t chunks;
      uint64_t refs;
      uint64_t flushed;
    };
    return Snapshot{h.cluster->sched().now(),
                    h.cluster->total_physical_bytes(), h.chunk_object_count(),
                    h.total_chunk_refs(),
                    h.cluster->perf_sum(l_tier_chunks_flushed, h.meta)};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.now, b.now);  // virtual time itself is reproducible
  EXPECT_EQ(a.physical, b.physical);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.flushed, b.flushed);
}

TEST(Determinism, OpStreamsStableAcrossInstances) {
  auto a = workload::make_random_ops(1 << 20, 8192, 500, true, 0.3, 99);
  auto b = workload::make_random_ops(1 << 20, 8192, 500, true, 0.3, 99);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].content_seed, b[i].content_seed);
  }
  auto c = workload::make_random_ops(1 << 20, 8192, 500, true, 0.3, 100);
  bool differs = false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].offset != c[i].offset) differs = true;
  }
  EXPECT_TRUE(differs);  // different seed, different stream
}

TEST(Determinism, SfsDatasetStableButLoadSensitive) {
  workload::SfsDbConfig c1;
  c1.load = 3;
  c1.dataset_bytes = 8 << 20;
  workload::SfsDbGenerator g1(c1), g2(c1);
  for (uint64_t i = 0; i < g1.num_pages(); i += 17) {
    EXPECT_EQ(g1.dataset_page_seed(i), g2.dataset_page_seed(i));
  }
  workload::SfsDbConfig c2 = c1;
  c2.load = 10;
  workload::SfsDbGenerator g3(c2);
  size_t diff = 0;
  for (uint64_t i = 0; i < g1.num_pages(); i++) {
    if (g1.dataset_page_seed(i) != g3.dataset_page_seed(i)) diff++;
  }
  EXPECT_GT(diff, g1.num_pages() / 4);  // the profile really changes
}

TEST(Determinism, VmImageCorpusStable) {
  workload::VmImageConfig cfg;
  cfg.image_bytes = 4 << 20;
  workload::VmImageCorpus a(cfg), b(cfg);
  for (uint64_t blk = 0; blk < a.blocks_per_image(); blk += 13) {
    EXPECT_TRUE(a.image_block(2, blk).content_equals(b.image_block(2, blk)));
  }
}

TEST(Determinism, RecoveryIsReproducible) {
  auto run = [] {
    Cluster c;
    const PoolId pool = c.create_replicated_pool("p", 2);
    RadosClient client(&c, c.client_node(0));
    for (int i = 0; i < 20; i++) {
      EXPECT_TRUE(sync_write(c, client, pool, "o" + std::to_string(i), 0,
                             testutil::random_buffer(32 * 1024,
                                                     static_cast<uint64_t>(i)))
                      .is_ok());
    }
    c.fail_osd(5);
    c.revive_osd(5, true);
    uint64_t bytes = 0;
    const SimTime dur = c.recover(nullptr, &bytes);
    return std::make_pair(dur, bytes);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace gdedup
