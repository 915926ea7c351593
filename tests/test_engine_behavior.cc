// Background-engine behaviour under load: parallelism, budget accounting,
// rate-control integration with the live cluster, idempotent redo of the
// whole pipeline, and stop/start semantics.

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/content.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::random_buffer;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

TEST(Engine, StoppedEngineNeverFlushes) {
  auto cfg = test_tier_config();
  DedupHarness h(cfg);
  for (Osd* o : h.cluster->osds()) {
    h.cluster->tier_of(o->id(), h.meta)->stop();
  }
  ASSERT_TRUE(h.write("obj", 0, random_buffer(2 * kChunk, 1)).is_ok());
  h.cluster->sched().run_for(sec(5));
  EXPECT_EQ(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta), 0u);
  EXPECT_EQ(h.chunk_object_count(), 0u);

  // Restart: the backlog drains.
  for (Osd* o : h.cluster->osds()) {
    h.cluster->tier_of(o->id(), h.meta)->start();
  }
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 2u);
}

TEST(Engine, KickRunsImmediately) {
  auto cfg = test_tier_config();
  cfg.engine_tick = sec(3600);  // a tick would naturally be an hour away
  DedupHarness h(cfg);
  ASSERT_TRUE(h.write("obj", 0, random_buffer(kChunk, 2)).is_ok());
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  h.cluster->tier_of(primary, h.meta)->kick();
  h.cluster->sched().run_for(sec(1));
  EXPECT_EQ(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta), 1u);
}

TEST(Engine, RateControlThrottlesOnBusyOsd) {
  // Saturate one OSD with foreground ops; its tier must trickle while the
  // idle tiers stay unthrottled (per-OSD watermarks).
  auto cfg = test_tier_config();
  cfg.rate_control = true;
  cfg.low_watermark_iops = 100;
  cfg.high_watermark_iops = 1000;
  cfg.engine_tick = msec(20);
  DedupHarness h(cfg);

  // Build a backlog on one object (its primary is the busy OSD).
  ASSERT_TRUE(h.write("busy", 0, random_buffer(8 * kChunk, 3)).is_ok());
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "busy");

  // Foreground hammer: 2000 IOPS of 4KB reads against the same object for
  // two virtual seconds.
  size_t outstanding = 0;
  for (int i = 0; i < 4000; i++) {
    h.cluster->sched().at(i * kMillisecond / 2, [&, i] {
      outstanding++;
      h.client->read(h.meta, "busy", (static_cast<uint64_t>(i) % 64) * 4096,
                     4096, [&](Result<Buffer>) { outstanding--; });
    });
  }
  h.cluster->sched().run_for(sec(2));
  // Under ~2000 IOPS (above high watermark), at most fg/500 + slack dedup
  // ops may have run.
  EXPECT_LE(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta), 4000 / 500 + 4);

  // Load stops; the engine catches up.
  while (outstanding > 0) ASSERT_TRUE(h.cluster->sched().step());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta), 8u);
  (void)primary;
}

TEST(Engine, ParallelismShortensDrain) {
  // With parallelism 1 each tier flushes one object at a time; with 8 it
  // overlaps objects — a wide backlog drains measurably faster.
  auto run = [](int parallelism) {
    auto cfg = test_tier_config();
    cfg.engine_parallelism = parallelism;
    cfg.max_dedup_per_tick = 512;
    DedupHarness h(cfg);
    // ~4 dirty objects per OSD tier.
    for (int i = 0; i < 64; i++) {
      EXPECT_TRUE(
          h.write("o" + std::to_string(i), 0, random_buffer(4 * kChunk, 50 + i))
              .is_ok());
    }
    const SimTime t0 = h.cluster->sched().now();
    // Fine-grained drain polling (drain_dedup's 200ms poll would mask the
    // difference).
    auto busy = [&] {
      for (Osd* o : h.cluster->osds()) {
        if (h.cluster->tier_of(o->id(), h.meta)->dirty_backlog() > 0) {
          return true;
        }
      }
      return false;
    };
    while (busy()) h.cluster->sched().run_for(msec(1));
    return h.cluster->sched().now() - t0;
  };
  const SimTime serial = run(1);
  const SimTime parallel = run(8);
  EXPECT_LT(parallel, serial);
  // Both produced identical results; only the schedule differs.
}

TEST(Engine, RedoAfterFullVolatileLoss) {
  // Nuke every tier's volatile state *mid-flush storm*, rebuild, and
  // verify the persisted dirty bits drive the redo to a clean state.
  auto cfg = test_tier_config();
  cfg.engine_tick = msec(10);
  DedupHarness h(cfg);
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 12; i++) {
    Buffer d = workload::BlockContent::make(static_cast<uint64_t>(i % 5),
                                            3 * kChunk, 0.0);
    ASSERT_TRUE(h.write("r" + std::to_string(i), 0, d).is_ok());
    truth["r" + std::to_string(i)] = d;
  }
  // Let flushing start, then "restart" every OSD's tier.
  h.cluster->sched().run_for(msec(30));
  for (Osd* o : h.cluster->osds()) {
    DedupTier* t = h.cluster->tier_of(o->id(), h.meta);
    t->stop();
    t->rebuild_dirty_list();
    t->start();
  }
  ASSERT_TRUE(h.drain());
  for (const auto& [oid, d] : truth) {
    auto r = h.read(oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(d)) << oid;
  }
  EXPECT_TRUE(h.refcounts_consistent());
  // 5 distinct object contents, each splitting into 3 distinct chunks:
  // 15 unique chunk objects, no duplicates from the redo.
  EXPECT_EQ(h.chunk_object_count(), 15u);
}

TEST(Engine, DirtyBacklogVisibleInStats) {
  auto cfg = test_tier_config();
  cfg.engine_tick = sec(3600);
  DedupHarness h(cfg);
  ASSERT_TRUE(h.write("a", 0, random_buffer(kChunk, 1)).is_ok());
  ASSERT_TRUE(h.write("b", 0, random_buffer(kChunk, 2)).is_ok());
  size_t backlog = 0;
  for (Osd* o : h.cluster->osds()) {
    backlog += h.cluster->tier_of(o->id(), h.meta)->dirty_backlog();
  }
  EXPECT_EQ(backlog, 2u);
}

TEST(Engine, LruCacheCapacityEvictsColdest) {
  // Section 4.3: LRU cache management.  Cap the cached bytes; the coldest
  // objects lose their cached copies first, the recently-touched survive.
  auto cfg = test_tier_config();
  cfg.evict_after_flush = false;  // keep chunks cached after flushing
  // Per-OSD cap of one chunk: any tier that accumulates two cached
  // objects must shed its colder one.
  cfg.cache_capacity_bytes = kChunk;
  cfg.engine_tick = msec(20);
  DedupHarness h(cfg);

  // 24 objects x 1 chunk: several land on the same primary tier.
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 24; i++) {
    Buffer d = random_buffer(kChunk, 70 + static_cast<uint64_t>(i));
    ASSERT_TRUE(h.write("c" + std::to_string(i), 0, d).is_ok());
    truth["c" + std::to_string(i)] = d;
  }
  ASSERT_TRUE(h.drain());
  h.cluster->sched().run_for(sec(1));  // ticks enforce the cap

  EXPECT_GT(h.cluster->perf_sum(l_tier_capacity_evictions, h.meta), 0u);
  // Per-tier cap of one chunk: at most 16 cached chunks remain (x2
  // replicas) of the 24 written.
  const auto ms = h.cluster->pool_stats(h.meta);
  EXPECT_LE(ms.stored_data_bytes, 2u * 16 * kChunk);
  EXPECT_LT(ms.stored_data_bytes, 2u * 24 * kChunk);
  // Everything still reads back (evicted chunks redirect).
  for (const auto& [oid, d] : truth) {
    auto r = h.read(oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(d)) << oid;
  }
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(Engine, CacheCapUnlimitedByDefault) {
  auto cfg = test_tier_config();
  cfg.evict_after_flush = false;
  DedupHarness h(cfg);
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(h.write("u" + std::to_string(i), 0,
                        random_buffer(kChunk, 80 + static_cast<uint64_t>(i)))
                    .is_ok());
  }
  ASSERT_TRUE(h.drain());
  h.cluster->sched().run_for(sec(1));
  EXPECT_EQ(h.cluster->perf_sum(l_tier_capacity_evictions, h.meta), 0u);
  // All chunks still cached (flush kept them, no cap).
  const auto ms = h.cluster->pool_stats(h.meta);
  EXPECT_EQ(ms.stored_data_bytes, 2u * 6 * kChunk);
}

}  // namespace
}  // namespace gdedup
