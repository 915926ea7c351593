// The dedup tier: write path (cached+dirty), background flush via double
// hashing, eviction, space accounting, read redirection, partial-write
// pre-reads, hot-object handling, promotion, inline mode, removes.

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/content.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::random_buffer;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

TEST(DedupTier, WriteReadBeforeFlush) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(3 * kChunk, 1);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST(DedupTier, WriteMarksCachedAndDirty) {
  DedupHarness h(test_tier_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(2 * kChunk, 2)).is_ok());
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  ChunkMap cm0 = testutil::load_map_at(*h.cluster, primary, h.meta, "obj");
  auto* cm = &cm0;
  ASSERT_EQ(cm->size(), 2u);
  for (const auto& [off, e] : cm->entries()) {
    EXPECT_TRUE(e.cached);
    EXPECT_TRUE(e.dirty);
    EXPECT_FALSE(e.flushed());
  }
  EXPECT_TRUE(h.cluster->tier_of(primary, h.meta)->is_dirty("obj"));
}

TEST(DedupTier, FlushMovesChunksToChunkPool) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(2 * kChunk, 3);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());

  // Chunk map now references fingerprint OIDs, clean and evicted.
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  ChunkMap cm0 = testutil::load_map_at(*h.cluster, primary, h.meta, "obj");
  auto* cm = &cm0;
  ASSERT_GT(cm->size(), 0u);
  for (const auto& [off, e] : cm->entries()) {
    EXPECT_TRUE(e.flushed());
    EXPECT_FALSE(e.dirty);
    EXPECT_FALSE(e.cached);
    EXPECT_EQ(e.chunk_id.str().substr(0, 7), "sha256:");
  }
  EXPECT_EQ(h.chunk_object_count(), 2u);
  // Metadata object's data part was evicted.
  const auto meta_stats = h.cluster->pool_stats(h.meta);
  EXPECT_EQ(meta_stats.stored_data_bytes, 0u);
  // Reads still return the data (redirected).
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, ChunkOidIsContentFingerprint) {
  // Double hashing invariant 1: the chunk object's OID equals the
  // fingerprint of its content, so placement is content-determined.
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 4);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  const Fingerprint expect =
      Fingerprint::compute(FingerprintAlgo::kSha256, data.span());
  const OsdId cp = h.cluster->osdmap().primary(h.chunks, expect.hex());
  EXPECT_TRUE(h.cluster->osd(cp)->local_exists(h.chunks, expect.hex()));
}

TEST(DedupTier, DuplicateContentStoredOnce) {
  DedupHarness h(test_tier_config());
  Buffer dup = random_buffer(kChunk, 5);
  // Ten objects, identical content.
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(h.write("obj" + std::to_string(i), 0, dup).is_ok());
  }
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 10u);
  const auto cs = h.cluster->pool_stats(h.chunks);
  // One chunk, replicated twice.
  EXPECT_EQ(cs.stored_data_bytes, 2u * kChunk);
  EXPECT_TRUE(h.refcounts_consistent());
  // All ten objects still read back.
  for (int i = 0; i < 10; i++) {
    auto r = h.read("obj" + std::to_string(i), 0, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r->content_equals(dup));
  }
}

TEST(DedupTier, DedupWithinOneObject) {
  DedupHarness h(test_tier_config());
  Buffer piece = random_buffer(kChunk, 6);
  Buffer data = Buffer::concat(piece, piece);  // two identical chunks
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 2u);
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST(DedupTier, SpaceSavingMatchesDuplication) {
  // 50% duplicate content -> chunk pool stores about half the logical data.
  DedupHarness h(test_tier_config());
  const int n = 32;
  Buffer shared = random_buffer(kChunk, 7);
  for (int i = 0; i < n; i++) {
    Buffer unique = random_buffer(kChunk, 100 + i);
    ASSERT_TRUE(h.write("o" + std::to_string(i), 0,
                        Buffer::concat(shared, unique))
                    .is_ok());
  }
  ASSERT_TRUE(h.drain());
  const auto cs = h.cluster->pool_stats(h.chunks);
  const uint64_t logical = static_cast<uint64_t>(n) * 2 * kChunk;
  // Unique bytes: n unique chunks + 1 shared chunk; x2 replication.
  EXPECT_EQ(cs.stored_data_bytes, (n + 1) * 2ull * kChunk);
  EXPECT_LT(cs.stored_data_bytes, logical * 2);
}

TEST(DedupTier, OverwriteDereferencesOldChunk) {
  DedupHarness h(test_tier_config());
  Buffer v1 = random_buffer(kChunk, 8);
  Buffer v2 = random_buffer(kChunk, 9);
  ASSERT_TRUE(h.write("obj", 0, v1).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  ASSERT_TRUE(h.write("obj", 0, v2).is_ok());
  ASSERT_TRUE(h.drain());
  // Old chunk reclaimed (refcount hit zero), new one present.
  EXPECT_EQ(h.chunk_object_count(), 1u);
  const Fingerprint f2 =
      Fingerprint::compute(FingerprintAlgo::kSha256, v2.span());
  const OsdId cp = h.cluster->osdmap().primary(h.chunks, f2.hex());
  EXPECT_TRUE(h.cluster->osd(cp)->local_exists(h.chunks, f2.hex()));
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(v2));
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, RewriteSameContentIsNoopFlush) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 10);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  const uint64_t flushed1 =
      h.cluster->perf_sum(l_tier_chunks_flushed, h.meta);
  const uint64_t noops1 = h.cluster->perf_sum(l_tier_noop_flushes, h.meta);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());  // identical rewrite
  ASSERT_TRUE(h.drain());
  // No new put.
  EXPECT_EQ(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta), flushed1);
  EXPECT_GT(h.cluster->perf_sum(l_tier_noop_flushes, h.meta), noops1);
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, NoopReflushAvoidsSha) {
  // Re-flushing unchanged content must not pay for rehashing: the first
  // flush left the chunk in the node's fingerprint index, so the second
  // flush's weak-hash probe verifies the bytes and skips the SHA.
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 10);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  const uint64_t computed1 = h.cluster->perf_sum(l_tier_sha_computed, h.meta);
  const uint64_t avoided1 = h.cluster->perf_sum(l_tier_sha_avoided, h.meta);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_GT(h.cluster->perf_sum(l_tier_sha_avoided, h.meta), avoided1);
  EXPECT_EQ(h.cluster->perf_sum(l_tier_sha_computed, h.meta), computed1);
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, PartialWriteAfterEvictionMergesInBackground) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 11);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());  // chunk flushed + evicted

  // 16KB write into the evicted 32KB chunk: no foreground pre-read (the
  // entry goes to Figure 8's cached=false/dirty=true state); the missing
  // half is merged from the chunk pool by the background flush.
  Buffer patch = random_buffer(16 * 1024, 12);
  const uint64_t prereads = h.cluster->perf_sum(l_tier_prereads, h.meta);
  const uint64_t merges = h.cluster->perf_sum(l_tier_flush_merges, h.meta);
  ASSERT_TRUE(h.write("obj", 0, patch).is_ok());
  // The foreground stayed clean.
  EXPECT_EQ(h.cluster->perf_sum(l_tier_prereads, h.meta), prereads);

  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  {
    ChunkMap cm = testutil::load_map_at(*h.cluster, primary, h.meta, "obj");
    ASSERT_NE(cm.find(0), nullptr);
    EXPECT_TRUE(cm.find(0)->dirty);
    EXPECT_FALSE(cm.find(0)->cached);  // only the new 16KB is local
  }

  // Reads in the partial-dirty state must overlay local bytes on the old
  // chunk content.
  Buffer expect = data;
  expect.write_at(0, patch);
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(expect));

  ASSERT_TRUE(h.drain());
  EXPECT_GT(h.cluster->perf_sum(l_tier_flush_merges, h.meta), merges);
  r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(expect));
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, FullChunkOverwriteSkipsPreread) {
  DedupHarness h(test_tier_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(kChunk, 13)).is_ok());
  ASSERT_TRUE(h.drain());
  const uint64_t prereads = h.cluster->perf_sum(l_tier_prereads, h.meta);
  ASSERT_TRUE(h.write("obj", 0, random_buffer(kChunk, 14)).is_ok());
  EXPECT_EQ(h.cluster->perf_sum(l_tier_prereads, h.meta), prereads);
}

TEST(DedupTier, ReadRedirectionCountsChunks) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(4 * kChunk, 15);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  const uint64_t cached =
      h.cluster->perf_sum(l_tier_cached_read_chunks, h.meta);
  ASSERT_TRUE(h.read("obj", 0, 0).is_ok());
  EXPECT_EQ(h.cluster->perf_sum(l_tier_cached_read_chunks, h.meta) - cached,
            4u);
  const uint64_t remote =
      h.cluster->perf_sum(l_tier_redirected_read_chunks, h.meta);
  ASSERT_TRUE(h.drain());
  ASSERT_TRUE(h.read("obj", 0, 0).is_ok());
  EXPECT_EQ(
      h.cluster->perf_sum(l_tier_redirected_read_chunks, h.meta) - remote,
      4u);
}

TEST(DedupTier, RedirectedReadIsSlowerThanCached) {
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 16);
  ASSERT_TRUE(h.write("hot", 0, data).is_ok());
  ASSERT_TRUE(h.write("cold", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  // Re-cache "hot" by writing it again (cached+dirty), leave "cold" evicted.
  ASSERT_TRUE(h.write("hot", 0, data).is_ok());

  SimTime t0 = h.cluster->sched().now();
  ASSERT_TRUE(h.read("hot", 0, 8192).is_ok());
  const SimTime cached_lat = h.cluster->sched().now() - t0;
  t0 = h.cluster->sched().now();
  ASSERT_TRUE(h.read("cold", 0, 8192).is_ok());
  const SimTime remote_lat = h.cluster->sched().now() - t0;
  EXPECT_GT(remote_lat, cached_lat);  // the Figure 10 redirection penalty
}

TEST(DedupTier, ReadYourWritesAcrossAllStates) {
  // Invariant 5: reads return the latest write in every dedup state.
  DedupHarness h(test_tier_config());
  Buffer v1 = random_buffer(2 * kChunk, 17);
  ASSERT_TRUE(h.write("obj", 0, v1).is_ok());
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(v1));  // cached dirty
  ASSERT_TRUE(h.drain());
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(v1));  // flushed evicted
  Buffer v2 = random_buffer(2 * kChunk, 18);
  ASSERT_TRUE(h.write("obj", 0, v2).is_ok());
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(v2));  // dirty again
  ASSERT_TRUE(h.drain());
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(v2));
}

TEST(DedupTier, HotObjectNotDeduplicated) {
  auto cfg = test_tier_config();
  cfg.hitcount_threshold = 2;  // easy to heat
  cfg.hitset_period = sec(10);
  cfg.hitset_count = 4;
  DedupHarness h(cfg);
  Buffer data = random_buffer(kChunk, 19);
  // Two writes make the object hot.
  ASSERT_TRUE(h.write("hot", 0, data).is_ok());
  ASSERT_TRUE(h.write("hot", 0, data).is_ok());
  // Run the engine for a while: object must stay cached and dirty.
  h.cluster->sched().run_for(sec(2));
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "hot");
  ChunkMap cm0 = testutil::load_map_at(*h.cluster, primary, h.meta, "hot");
  auto* cm = &cm0;
  ASSERT_GT(cm->size(), 0u);
  EXPECT_TRUE(cm->find(0)->dirty);
  EXPECT_TRUE(cm->find(0)->cached);
  EXPECT_GT(h.cluster->perf_sum(l_tier_hot_skips, h.meta), 0u);
}

TEST(DedupTier, HotObjectFlushedAfterCooling) {
  auto cfg = test_tier_config();
  cfg.hitcount_threshold = 2;
  cfg.hitset_period = msec(500);
  cfg.hitset_count = 2;
  DedupHarness h(cfg);
  Buffer data = random_buffer(kChunk, 20);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());  // hot now
  // After the hitset history ages out, the engine flushes it.
  h.cluster->sched().run_for(sec(5));
  ASSERT_TRUE(h.drain());
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  ChunkMap cm0 = testutil::load_map_at(*h.cluster, primary, h.meta, "obj");
  auto* cm = &cm0;
  ASSERT_NE(cm->find(0), nullptr);
  EXPECT_FALSE(cm->find(0)->dirty);
  EXPECT_TRUE(cm->find(0)->flushed());
}

TEST(DedupTier, PromoteOnHotRead) {
  auto cfg = test_tier_config();
  cfg.hitcount_threshold = 2;
  cfg.hitset_period = sec(10);
  cfg.promote_on_read = true;
  DedupHarness h(cfg);
  Buffer data = random_buffer(2 * kChunk, 21);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());  // evicted
  // Repeated reads heat the object; promotion caches it again.
  for (int i = 0; i < 3; i++) ASSERT_TRUE(h.read("obj", 0, 0).is_ok());
  h.cluster->sched().run_for(sec(2));
  EXPECT_GT(h.cluster->perf_sum(l_tier_promotions, h.meta), 0u);
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  ChunkMap cm0 = testutil::load_map_at(*h.cluster, primary, h.meta, "obj");
  auto* cm = &cm0;
  ASSERT_NE(cm->find(0), nullptr);
  EXPECT_TRUE(cm->find(0)->cached);
  // Promoted data serves locally and correctly.
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(data));
}

TEST(DedupTier, RemoveReleasesChunks) {
  DedupHarness h(test_tier_config());
  Buffer shared = random_buffer(kChunk, 22);
  ASSERT_TRUE(h.write("a", 0, shared).is_ok());
  ASSERT_TRUE(h.write("b", 0, shared).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.total_chunk_refs(), 2u);
  ASSERT_TRUE(sync_remove(*h.cluster, *h.client, h.meta, "a").is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.total_chunk_refs(), 1u);
  EXPECT_EQ(h.chunk_object_count(), 1u);  // still referenced by b
  ASSERT_TRUE(sync_remove(*h.cluster, *h.client, h.meta, "b").is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 0u);  // reclaimed
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, WriteFullShrinkReleasesTailChunks) {
  DedupHarness h(test_tier_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(4 * kChunk, 23)).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 4u);
  // Shrink to one chunk via write_full.
  Buffer small = random_buffer(kChunk, 24);
  ASSERT_TRUE(
      sync_write_full(*h.cluster, *h.client, h.meta, "obj", small).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(small));
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, EcChunkPool) {
  // Proposed-EC: chunk pool erasure-coded, metadata pool replicated.
  DedupHarness h(test_tier_config(), testutil::small_cluster_config(),
                 RedundancyScheme::kErasure);
  Buffer data = random_buffer(2 * kChunk, 25);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
  // EC 2+1 amplification: 1.5x instead of replication's 2x.
  const auto cs = h.cluster->pool_stats(h.chunks);
  EXPECT_EQ(cs.stored_data_bytes, 2 * kChunk * 3 / 2);
}

TEST(DedupTier, UnalignedAndSpanningWrites) {
  DedupHarness h(test_tier_config());
  // Write a region straddling three chunks at odd offsets.
  Buffer a = random_buffer(kChunk + 5000, 26);
  ASSERT_TRUE(h.write("obj", 10000, a).is_ok());
  Buffer expect(10000 + a.size());
  expect.write_at(10000, a);
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(expect));
  ASSERT_TRUE(h.drain());
  r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(expect));
  // Sub-chunk read at an odd offset.
  auto rr = h.read("obj", 12345, 777);
  ASSERT_TRUE(rr.is_ok());
  EXPECT_TRUE(rr->content_equals(expect.slice(12345, 777)));
}

TEST(DedupTier, InlineModeFlushesOnWritePath) {
  auto cfg = test_tier_config();
  cfg.mode = DedupMode::kInline;
  DedupHarness h(cfg);
  Buffer data = random_buffer(2 * kChunk, 27);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  // No background work needed: chunks are already in the chunk pool.
  EXPECT_EQ(h.chunk_object_count(), 2u);
  const OsdId primary = h.cluster->osdmap().primary(h.meta, "obj");
  EXPECT_FALSE(h.cluster->tier_of(primary, h.meta)->is_dirty("obj"));
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST(DedupTier, InlinePartialWritePaysRmw) {
  auto cfg = test_tier_config();
  cfg.mode = DedupMode::kInline;
  DedupHarness h(cfg);
  ASSERT_TRUE(h.write("obj", 0, random_buffer(kChunk, 28)).is_ok());

  // The Figure 5(a) pathology: 16KB write into a 32KB chunk.
  const uint64_t prereads = h.cluster->perf_sum(l_tier_prereads, h.meta);
  const SimTime t0 = h.cluster->sched().now();
  Buffer patch = random_buffer(16 * 1024, 29);
  ASSERT_TRUE(h.write("obj", 16 * 1024, patch).is_ok());
  const SimTime inline_lat = h.cluster->sched().now() - t0;
  EXPECT_EQ(h.cluster->perf_sum(l_tier_prereads, h.meta), prereads + 1);

  // Same pattern under post-processing: far cheaper foreground latency.
  auto pp = test_tier_config();
  DedupHarness h2(pp);
  ASSERT_TRUE(h2.write("obj", 0, random_buffer(kChunk, 28)).is_ok());
  ASSERT_TRUE(h2.drain());
  const SimTime t1 = h2.cluster->sched().now();
  ASSERT_TRUE(h2.write("obj", 16 * 1024, patch).is_ok());
  const SimTime pp_lat = h2.cluster->sched().now() - t1;
  // Post-processing still pre-reads (chunk was evicted) but skips the
  // foreground fingerprint + chunk-pool round trips.
  EXPECT_LT(pp_lat, inline_lat);

  // Correctness both ways.
  Buffer expect = random_buffer(kChunk, 28);
  expect.write_at(16 * 1024, patch);
  EXPECT_TRUE(h.read("obj", 0, 0)->content_equals(expect));
  EXPECT_TRUE(h2.read("obj", 0, 0)->content_equals(expect));
}

TEST(DedupTier, MidFlushWriteStaysDirty) {
  // A client write racing the background flush must leave the object
  // dirty (racy flush) and never lose the newer bytes.
  auto cfg = test_tier_config();
  cfg.engine_tick = msec(10);
  DedupHarness h(cfg);
  Buffer v1 = random_buffer(kChunk, 30);
  ASSERT_TRUE(h.write("obj", 0, v1).is_ok());

  // Start the flush, then immediately issue an overlapping write and let
  // both complete.
  Buffer v2 = random_buffer(kChunk, 31);
  bool wdone = false;
  h.cluster->sched().run_for(msec(12));  // engine picked up the object
  h.client->write(h.meta, "obj", 0, v2, [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    wdone = true;
  });
  while (!wdone) ASSERT_TRUE(h.cluster->sched().step());
  ASSERT_TRUE(h.drain());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(v2));
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(DedupTier, ManyObjectsManyChunksStress) {
  auto cfg = test_tier_config();
  cfg.max_dedup_per_tick = 512;
  DedupHarness h(cfg);
  Rng rng(32);
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 24; i++) {
    const std::string oid = "s" + std::to_string(i);
    // Each object is 1-4 chunks drawn from a pool of 8 distinct contents:
    // heavy cross-object duplication by construction.
    Buffer data;
    const uint64_t nchunks = 1 + rng.below(4);
    for (uint64_t j = 0; j < nchunks; j++) {
      data = Buffer::concat(
          data, workload::BlockContent::make(rng.below(8), kChunk, 0.0));
    }
    ASSERT_TRUE(h.write(oid, 0, data).is_ok());
    truth[oid] = data;
  }
  ASSERT_TRUE(h.drain());
  for (const auto& [oid, data] : truth) {
    auto r = h.read(oid, 0, 0);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(data)) << oid;
  }
  EXPECT_TRUE(h.refcounts_consistent());
  // Only 8 distinct chunk contents were used, so cross-object dedup is
  // heavy: at most 8 chunk objects despite dozens of logical chunks.
  EXPECT_LE(h.chunk_object_count(), 8u);
  EXPECT_GT(h.cluster->perf_sum(l_tier_chunks_flushed, h.meta),
            h.chunk_object_count());
}

}  // namespace
}  // namespace gdedup
