// Failure recovery: replicated backfill, EC shard rebuild, dedup metadata
// surviving recovery intact, and the Table 3 effect (dedup shrinks the
// recovery volume).

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/fio_gen.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::random_buffer;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

TEST(Recovery, ReplicatedBackfillRestoresReplicas) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));

  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 20; i++) {
    const std::string oid = "o" + std::to_string(i);
    Buffer data = random_buffer(64 * 1024, static_cast<uint64_t>(i));
    ASSERT_TRUE(sync_write(c, client, pool, oid, 0, data).is_ok());
    truth[oid] = data;
  }

  // Fail one OSD, wipe it (disk replacement), re-add, backfill.
  c.fail_osd(3);
  c.revive_osd(3, /*wipe_store=*/true);
  uint64_t objects = 0, bytes = 0;
  const SimTime dur = c.recover(&objects, &bytes);
  EXPECT_GT(dur, 0);
  EXPECT_GT(objects, 0u);
  EXPECT_GT(bytes, 0u);

  // Every object again has a full acting set of holders with equal bytes.
  for (const auto& [oid, data] : truth) {
    auto acting = c.osdmap().acting(pool, oid);
    ASSERT_EQ(acting.size(), 2u);
    for (OsdId o : acting) {
      const ObjectStore* st = c.osd(o)->store_if_exists(pool);
      ASSERT_NE(st, nullptr);
      auto local = st->read({pool, oid}, 0, 0);
      ASSERT_TRUE(local.is_ok()) << oid << " on osd " << o;
      EXPECT_TRUE(local->content_equals(data));
    }
    auto r = sync_read(c, client, pool, oid, 0, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r->content_equals(data));
  }
}

TEST(Recovery, RecoveryPreservesXattrsAndOmap) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));
  ASSERT_TRUE(
      sync_write(c, client, pool, "obj", 0, random_buffer(4096, 1)).is_ok());
  bool done = false;
  client.setxattr(pool, "obj", "meta", Buffer::copy_of("v"), [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    done = true;
  });
  while (!done) ASSERT_TRUE(c.sched().step());

  auto acting = c.osdmap().acting(pool, "obj");
  c.fail_osd(acting[1]);
  c.revive_osd(acting[1], /*wipe_store=*/true);
  c.recover();
  auto raw = c.osd(acting[1])->local_getxattr(pool, "obj", "meta");
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ(raw->view(), "v");
}

TEST(Recovery, EcShardRebuild) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_ec_pool("ec", 2, 1);
  RadosClient client(&c, c.client_node(0));

  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 12; i++) {
    const std::string oid = "e" + std::to_string(i);
    Buffer data = random_buffer(96 * 1024, static_cast<uint64_t>(100 + i));
    ASSERT_TRUE(sync_write(c, client, pool, oid, 0, data).is_ok());
    truth[oid] = data;
  }

  c.fail_osd(5);
  c.revive_osd(5, /*wipe_store=*/true);
  uint64_t objects = 0;
  c.recover(&objects, nullptr);

  for (const auto& [oid, data] : truth) {
    auto acting = c.osdmap().acting(pool, oid);
    ASSERT_EQ(acting.size(), 3u);
    for (size_t i = 0; i < acting.size(); i++) {
      ASSERT_TRUE(c.osd(acting[i])->local_exists(pool, oid))
          << oid << " missing on shard " << i;
    }
    auto r = sync_read(c, client, pool, oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(data)) << oid;
  }
}

TEST(Recovery, EcReadWorksDuringDegradedWindow) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_ec_pool("ec", 2, 1);
  RadosClient client(&c, c.client_node(0));
  Buffer data = random_buffer(64 * 1024, 7);
  ASSERT_TRUE(sync_write(c, client, pool, "obj", 0, data).is_ok());
  auto acting_before = c.osdmap().acting(pool, "obj");
  c.fail_osd(acting_before[0]);  // lose the primary shard
  auto r = sync_read(c, client, pool, "obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST(Recovery, DedupStateSurvivesRecovery) {
  // Invariant 2 end-to-end: chunk maps, refcounts and chunk objects are
  // ordinary object state, so recovery restores dedup functionality with
  // zero special-casing.
  DedupHarness h(test_tier_config());
  Buffer shared = random_buffer(kChunk, 1);
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(h.write("o" + std::to_string(i), 0, shared).is_ok());
  }
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);

  h.cluster->fail_osd(2);
  h.cluster->revive_osd(2, /*wipe_store=*/true);
  h.cluster->recover();

  EXPECT_TRUE(h.refcounts_consistent());
  for (int i = 0; i < 8; i++) {
    auto r = h.read("o" + std::to_string(i), 0, 0);
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_TRUE(r->content_equals(shared)) << i;
  }
  // Writes after recovery continue to dedup against existing chunks.
  ASSERT_TRUE(h.write("new", 0, shared).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 9u);
}

TEST(Recovery, DedupShrinksRecoveryTime) {
  // Table 3's mechanism: with 50% duplicate content, the deduplicated
  // cluster recovers materially faster because fewer bytes move.
  const uint64_t kTotal = 16ull << 20;  // scaled volume
  auto build_and_measure = [&](bool dedup) {
    auto cfg = test_tier_config();
    cfg.max_dedup_per_tick = 1024;
    std::unique_ptr<DedupHarness> h;
    std::unique_ptr<Cluster> plain;
    PoolId pool = -1;
    RadosClient* client = nullptr;
    std::unique_ptr<RadosClient> plain_client;
    if (dedup) {
      h = std::make_unique<DedupHarness>(cfg);
      pool = h->meta;
      client = h->client.get();
    } else {
      plain = std::make_unique<Cluster>(testutil::small_cluster_config());
      pool = plain->create_replicated_pool("p", 2);
      plain_client =
          std::make_unique<RadosClient>(plain.get(), plain->client_node(0));
      client = plain_client.get();
    }
    Cluster& c = dedup ? *h->cluster : *plain;

    // 50%-duplicate content, 1MB objects.
    workload::FioConfig fcfg;
    fcfg.total_bytes = kTotal;
    fcfg.block_size = kChunk;
    fcfg.dedupe_ratio = 0.5;
    workload::FioGenerator gen(fcfg);
    const uint64_t blocks_per_obj = (1 << 20) / kChunk;
    for (uint64_t b = 0; b < gen.num_blocks(); b++) {
      const std::string oid = "img" + std::to_string(b / blocks_per_obj);
      EXPECT_TRUE(sync_write(c, *client, pool,
                             oid, (b % blocks_per_obj) * kChunk, gen.block(b))
                      .is_ok());
    }
    if (dedup) {
      EXPECT_TRUE(h->drain());
    }

    // Lose a whole host (4 OSDs): replicas never share a host, so data
    // survives, and a quarter of all replicas must be rebuilt.
    for (OsdId o : {0, 1, 2, 3}) {
      c.fail_osd(o);
      c.revive_osd(o, /*wipe_store=*/true);
    }
    uint64_t bytes = 0;
    const SimTime dur = c.recover(nullptr, &bytes);
    EXPECT_GT(bytes, 0u);
    return std::make_pair(dur, bytes);
  };

  const auto [t_plain, b_plain] = build_and_measure(false);
  const auto [t_dedup, b_dedup] = build_and_measure(true);
  EXPECT_LT(b_dedup, b_plain);
  EXPECT_LT(t_dedup, t_plain);
}

TEST(Recovery, NothingToRecoverIsFast) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));
  ASSERT_TRUE(
      sync_write(c, client, pool, "obj", 0, random_buffer(4096, 1)).is_ok());
  uint64_t objects = 99;
  c.recover(&objects, nullptr);
  EXPECT_EQ(objects, 0u);
}

TEST(Recovery, MultipleFailedOsds) {
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 30; i++) {
    const std::string oid = "m" + std::to_string(i);
    Buffer data = random_buffer(32 * 1024, static_cast<uint64_t>(i));
    ASSERT_TRUE(sync_write(c, client, pool, oid, 0, data).is_ok());
    truth[oid] = data;
  }
  // Fail two OSDs on the same host: replicas never share a host, so at
  // most one copy of each object is lost.
  c.fail_osd(0);
  c.fail_osd(1);
  c.revive_osd(0, true);
  c.revive_osd(1, true);
  c.recover();
  for (const auto& [oid, data] : truth) {
    auto r = sync_read(c, client, pool, oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(data));
  }
}

TEST(Recovery, DedupWithEcChunkPoolSurvivesRecovery) {
  // The Proposed-EC layout under failure: chunk shards rebuilt via
  // Reed-Solomon, chunk maps via replication, dedup still functional.
  DedupHarness h(test_tier_config(), testutil::small_cluster_config(),
                 RedundancyScheme::kErasure);
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 6; i++) {
    Buffer data = random_buffer(2 * kChunk + 500, 300 + static_cast<uint64_t>(i));
    ASSERT_TRUE(h.write("e" + std::to_string(i), 0, data).is_ok());
    truth["e" + std::to_string(i)] = data;
  }
  ASSERT_TRUE(h.drain());

  h.cluster->fail_osd(6);
  h.cluster->revive_osd(6, /*wipe_store=*/true);
  h.cluster->recover();

  for (const auto& [oid, data] : truth) {
    auto r = h.read(oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(data)) << oid;
  }
  // Dedup still collapses new duplicates post-recovery.
  ASSERT_TRUE(h.write("dup", 0, truth["e0"]).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(Recovery, RepeatedFailureCycles) {
  // Churn: fail/revive different OSDs in sequence; data survives every
  // cycle and recovery volume stays bounded.
  Cluster c(testutil::small_cluster_config());
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 24; i++) {
    Buffer d = random_buffer(16 * 1024, static_cast<uint64_t>(400 + i));
    ASSERT_TRUE(
        sync_write(c, client, pool, "c" + std::to_string(i), 0, d).is_ok());
    truth["c" + std::to_string(i)] = d;
  }
  for (OsdId victim : {2, 7, 11, 14, 2}) {
    c.fail_osd(victim);
    c.revive_osd(victim, /*wipe_store=*/true);
    c.recover();
    for (const auto& [oid, d] : truth) {
      auto r = sync_read(c, client, pool, oid, 0, 0);
      ASSERT_TRUE(r.is_ok()) << oid << " after osd " << victim;
      EXPECT_TRUE(r->content_equals(d));
    }
  }
}

TEST(Recovery, OverwritesDuringOutageFlushAfterReviveAndRecover) {
  // The crashed primary of o0 comes back without a wipe: its tier
  // rebuilds its dirty list from the copies it held before the crash,
  // then recovery installs the newer copies written during the outage.
  // Those overwrites must still reach the chunk pool, and no tier may keep
  // a backlog for them.
  ClusterConfig ccfg = testutil::small_cluster_config();
  ccfg.op_timeout = msec(200);
  DedupHarness h(test_tier_config(), ccfg);
  constexpr int kObjects = 32;
  std::vector<Buffer> truth;
  for (int i = 0; i < kObjects; i++) {
    Buffer d = random_buffer(64 * 1024, static_cast<uint64_t>(300 + i));
    ASSERT_TRUE(h.write("o" + std::to_string(i), 0, d).is_ok());
    truth.push_back(std::move(d));
  }
  ASSERT_TRUE(h.drain());
  const OsdId victim = h.cluster->osdmap().primary(h.meta, "o0");
  h.cluster->crash_osd(victim);
  for (int i = 0; i < kObjects; i++) {
    const Buffer d = random_buffer(16 * 1024, static_cast<uint64_t>(400 + i));
    ASSERT_TRUE(h.write("o" + std::to_string(i), 16 * 1024, d).is_ok());
    truth[static_cast<size_t>(i)].write_at(16 * 1024, d);
  }
  h.cluster->revive_osd(victim, /*wipe_store=*/false);
  h.cluster->recover();
  ASSERT_TRUE(h.drain());
  for (Osd* o : h.cluster->osds()) {
    EXPECT_EQ(h.cluster->tier_of(o->id(), h.meta)->dirty_backlog(), 0u)
        << "osd " << o->id();
  }
  for (int i = 0; i < kObjects; i++) {
    auto r = h.read("o" + std::to_string(i), 0, 0);
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_TRUE(r->content_equals(truth[static_cast<size_t>(i)])) << i;
  }
}

TEST(Recovery, DrainReturnsFalsePromptlyWhileDirtyOsdIsDown) {
  // A crashed OSD's tier is stopped, so its backlog cannot drain: once the
  // up tiers are done, drain_dedup must say so at once instead of running
  // to its deadline.
  DedupHarness h(test_tier_config());
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(h.write("d" + std::to_string(i), 0,
                        random_buffer(64 * 1024, static_cast<uint64_t>(i)))
                    .is_ok());
  }
  OsdId victim = -1;
  for (Osd* o : h.cluster->osds()) {
    if (h.cluster->tier_of(o->id(), h.meta)->dirty_backlog() > 0) {
      victim = o->id();
      break;
    }
  }
  ASSERT_GE(victim, 0);
  h.cluster->crash_osd(victim);
  const SimTime t0 = h.cluster->sched().now();
  EXPECT_FALSE(h.cluster->drain_dedup());
  EXPECT_LT(h.cluster->sched().now() - t0, sec(60));
  EXPECT_GT(h.cluster->tier_of(victim, h.meta)->dirty_backlog(), 0u);
}

}  // namespace
}  // namespace gdedup
