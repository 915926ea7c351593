// Recipe-chunk metadata dedup (dedup/recipe.h, the packed entry codec in
// dedup/chunk_map.h, the compactor in dedup/tier.cc).
//
// What must hold: the varint + packed-entry codecs round-trip every field
// the legacy fixed-150-byte codec carries (dirty_gen/inline_rec are
// volatile and encoded by neither) and the packed form never collides
// with the legacy discriminator size; recipe chunk payloads are
// deterministic and defensive against corruption; in recipe mode the
// background compactor folds cold windows into content-addressed recipe
// chunks that deduplicate across objects, inline overlays win over recipe
// content, shrinks and removes release recipe chunks through the ordinary
// ref/GC machinery; and the recipe-mode determinism digest is
// shard/thread-count invariant (it is a *different* digest from default
// mode — recipe chunks are real chunk-pool traffic).

#include "dedup/recipe.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "dedup/scrub.h"
#include "sim_e2e_scenario.h"
#include "test_util.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::load_map_at;
using testutil::random_buffer;
using testutil::small_cluster_config;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

// --- Varint codec (common/encoding.h) ---

TEST(Varint, RoundTripEdges) {
  struct Case {
    uint64_t v;
    size_t bytes;
  };
  const Case cases[] = {
      {0, 1},           {1, 1},
      {127, 1},         {128, 2},  // first continuation boundary
      {16383, 2},       {16384, 3},
      {1ull << 32, 5},  {~0ull, 10},  // 64 bits need ceil(64/7) bytes
  };
  for (const Case& c : cases) {
    Encoder e;
    e.put_varint(c.v);
    EXPECT_EQ(e.size(), c.bytes) << c.v;
    Buffer b = e.finish();
    Decoder d(b);
    uint64_t got = 1;
    ASSERT_TRUE(d.get_varint(&got).is_ok()) << c.v;
    EXPECT_EQ(got, c.v);
    EXPECT_TRUE(d.at_end());
  }
}

TEST(Varint, ShortBufferIsCorruption) {
  Encoder e;
  e.put_varint(128);  // two bytes
  Buffer whole = e.finish();
  Buffer cut = whole.slice(0, 1);  // continuation bit set, no successor
  Decoder d(cut);
  uint64_t got = 0;
  EXPECT_FALSE(d.get_varint(&got).is_ok());
}

TEST(Varint, UnterminatedIsOverflowNotLoop) {
  // Ten continuation bytes exceed the 64-bit cap: the decoder must fail
  // rather than keep shifting (garbage can't spin it).
  std::vector<uint8_t> raw(10, 0x80);
  Buffer b = Buffer::copy_of(raw.data(), raw.size());
  Decoder d(b);
  uint64_t got = 0;
  EXPECT_FALSE(d.get_varint(&got).is_ok());
}

// --- Packed entry codec vs the legacy fixed form ---

void expect_same_entry(const ChunkMapEntry& a, const ChunkMapEntry& b,
                       const std::string& at) {
  EXPECT_EQ(a.offset, b.offset) << at;
  EXPECT_EQ(a.length, b.length) << at;
  EXPECT_EQ(a.chunk_id, b.chunk_id) << at;
  EXPECT_EQ(a.cached, b.cached) << at;
  EXPECT_EQ(a.dirty, b.dirty) << at;
  EXPECT_EQ(a.chunk_off, b.chunk_off) << at;
  EXPECT_EQ(a.container, b.container) << at;
}

std::string fp_id(FingerprintAlgo algo, uint64_t seed) {
  Buffer b = random_buffer(64, seed);
  return Fingerprint::compute(algo, b.span()).hex();
}

TEST(PackedEntry, MatchesLegacyAcrossFieldCombos) {
  // Sweep every flag combination against every chunk-id shape; the packed
  // decode must agree with the legacy decode field for field.
  const std::string ids[] = {
      std::string(),                              // unflushed
      fp_id(FingerprintAlgo::kSha256, 1),         // binary fp, 32B digest
      fp_id(FingerprintAlgo::kSha1, 2),           // binary fp, 20B digest
      std::string("not-a-fingerprint-oid"),       // raw string fallback
  };
  int combos = 0;
  for (const std::string& id : ids) {
    for (int cached = 0; cached < 2; cached++) {
      for (int dirty = 0; dirty < 2; dirty++) {
        for (int container = 0; container < 2; container++) {
          for (uint64_t coff : {uint64_t{0}, uint64_t{3} * kChunk}) {
            ChunkMapEntry e;
            e.offset = 5ull * kChunk;
            e.length = kChunk;
            e.chunk_id = id;
            e.cached = cached != 0;
            e.dirty = dirty != 0;
            e.container = container != 0;
            e.chunk_off = coff;
            // Volatile fields must not leak into either encoding.
            e.dirty_gen = 7;
            e.inline_rec = true;

            const std::string at =
                "id=" + (id.empty() ? "<none>" : id.substr(0, 12)) +
                " c=" + std::to_string(cached) + " d=" +
                std::to_string(dirty) + " ct=" + std::to_string(container) +
                " off=" + std::to_string(coff);
            Buffer legacy = ChunkMap::encode_entry(e);
            Buffer packed = ChunkMap::encode_entry_packed(e);
            ASSERT_EQ(legacy.size(), ChunkMap::kEntryEncodedBytes) << at;
            EXPECT_NE(packed.size(), ChunkMap::kEntryEncodedBytes) << at;
            EXPECT_LT(packed.size(), legacy.size()) << at;

            auto from_legacy = ChunkMap::decode_entry(legacy);
            auto from_packed = ChunkMap::decode_entry_packed(packed);
            ASSERT_TRUE(from_legacy.is_ok()) << at;
            ASSERT_TRUE(from_packed.is_ok()) << at;
            expect_same_entry(from_packed.value(), from_legacy.value(), at);

            // Auto dispatch: size alone picks the right codec.
            auto auto_legacy = ChunkMap::decode_entry_auto(legacy);
            auto auto_packed = ChunkMap::decode_entry_auto(packed);
            ASSERT_TRUE(auto_legacy.is_ok() && auto_packed.is_ok()) << at;
            expect_same_entry(auto_legacy.value(), from_legacy.value(), at);
            expect_same_entry(auto_packed.value(), from_legacy.value(), at);
            combos++;
          }
        }
      }
    }
  }
  EXPECT_EQ(combos, 4 * 2 * 2 * 2 * 2);
}

TEST(PackedEntry, DirtyUnflushedEntryIsTiny) {
  // The id-less dirty record the batched write path persists: flags +
  // offset + length varints.  This is the footprint the ≥4x metadata
  // reduction gate leans on.
  ChunkMapEntry e;
  e.offset = 5ull * kChunk;  // 3-byte varint
  e.length = kChunk;         // 3-byte varint
  e.dirty = true;
  e.cached = true;
  EXPECT_LE(ChunkMap::encode_entry_packed(e).size(), 8u);
}

TEST(PackedEntry, NeverEmitsTheLegacyDiscriminatorSize) {
  // decode_entry_auto dispatches on size == kEntryEncodedBytes, so the
  // packed encoder pads by one byte if it would land there.  Sweep raw-id
  // lengths across the boundary and make sure the pad both fires and
  // round-trips.
  bool saw_pad = false;
  for (size_t idlen = 100; idlen <= 200; idlen++) {
    ChunkMapEntry e;
    e.offset = 17ull * kChunk;
    e.length = kChunk;
    e.chunk_id = std::string(idlen, 'x');  // raw kind: not fp-parseable
    e.cached = true;
    Buffer packed = ChunkMap::encode_entry_packed(e);
    ASSERT_NE(packed.size(), ChunkMap::kEntryEncodedBytes) << idlen;
    if (packed.size() == ChunkMap::kEntryEncodedBytes + 1) saw_pad = true;
    auto back = ChunkMap::decode_entry_auto(packed);
    ASSERT_TRUE(back.is_ok()) << idlen;
    expect_same_entry(back.value(), e, "idlen=" + std::to_string(idlen));
  }
  EXPECT_TRUE(saw_pad);  // the sweep crossed the pad boundary
}

TEST(PackedEntry, TruncationIsCorruptionNotUb) {
  ChunkMapEntry e;
  e.offset = 3ull * kChunk;
  e.length = kChunk;
  e.chunk_id = fp_id(FingerprintAlgo::kSha256, 9);
  Buffer whole = ChunkMap::encode_entry_packed(e);
  EXPECT_FALSE(ChunkMap::decode_entry_packed(Buffer()).is_ok());
  for (size_t cut = 1; cut + 1 < whole.size(); cut += 3) {
    EXPECT_FALSE(ChunkMap::decode_entry_packed(whole.slice(0, cut)).is_ok())
        << cut;
  }
}

TEST(PackedEntry, FuzzRoundTrip10k) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 10000; i++) {
    ChunkMapEntry e;
    e.offset = rng.below(1ull << 40);
    e.length = static_cast<uint32_t>(rng.between(1, 1u << 22));
    switch (rng.below(4)) {
      case 0:
        break;  // unflushed
      case 1:
        e.chunk_id = fp_id(FingerprintAlgo::kSha256, rng.next());
        break;
      case 2:
        e.chunk_id = fp_id(FingerprintAlgo::kSha1, rng.next());
        break;
      case 3:
        e.chunk_id =
            "raw-" + std::to_string(rng.next());  // non-fp object id
        break;
    }
    e.cached = rng.below(2) != 0;
    e.dirty = rng.below(2) != 0;
    e.container = rng.below(2) != 0;
    e.chunk_off = rng.below(2) != 0 ? rng.below(1ull << 30) : 0;
    Buffer packed = ChunkMap::encode_entry_packed(e);
    ASSERT_NE(packed.size(), ChunkMap::kEntryEncodedBytes) << i;
    auto back = ChunkMap::decode_entry_auto(packed);
    ASSERT_TRUE(back.is_ok()) << i;
    expect_same_entry(back.value(), e, "fuzz " + std::to_string(i));
  }
}

// --- Recipe record codec ---

TEST(RecipeRecord, RoundTrip) {
  RecipeRecord r;
  r.base = 13ull * 4 * kChunk;
  r.count = 4;
  r.chunk_pool = 3;
  r.chunk_id = fp_id(FingerprintAlgo::kSha256, 21);
  auto back = RecipeRecord::decode(r.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->base, r.base);
  EXPECT_EQ(back->count, r.count);
  EXPECT_EQ(back->chunk_pool, r.chunk_pool);
  EXPECT_EQ(back->chunk_id, r.chunk_id);

  r.chunk_id = "not-a-fingerprint";  // raw-id fallback survives too
  back = RecipeRecord::decode(r.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->chunk_id, r.chunk_id);
}

TEST(RecipeRecord, TruncationIsCorruption) {
  RecipeRecord r;
  r.base = 4ull * kChunk;
  r.count = 4;
  r.chunk_pool = 1;
  r.chunk_id = fp_id(FingerprintAlgo::kSha256, 22);
  Buffer whole = r.encode();
  EXPECT_FALSE(RecipeRecord::decode(Buffer()).is_ok());
  for (size_t cut = 1; cut + 1 < whole.size(); cut += 2) {
    EXPECT_FALSE(RecipeRecord::decode(whole.slice(0, cut)).is_ok()) << cut;
  }
}

// --- Recipe chunk payload codec ---

std::vector<ChunkMapEntry> window_entries(int n, uint64_t seed) {
  std::vector<ChunkMapEntry> v;
  for (int i = 0; i < n; i++) {
    ChunkMapEntry e;
    e.offset = static_cast<uint64_t>(i) * kChunk;
    e.length = kChunk;
    e.chunk_id = fp_id(FingerprintAlgo::kSha256, seed + i);
    v.push_back(e);
  }
  return v;
}

TEST(RecipeChunk, EmptyWindowRoundTrips) {
  Buffer b = encode_recipe_chunk({});
  auto back = decode_recipe_chunk(b);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back->empty());
}

TEST(RecipeChunk, SingleEntryRoundTrips) {
  auto v = window_entries(1, 100);
  auto back = decode_recipe_chunk(encode_recipe_chunk(v));
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->size(), 1u);
  expect_same_entry(back->at(0), v[0], "single");
}

TEST(RecipeChunk, ContainerSlotsSurvive) {
  // Slots the selective-rewrite pass coalesced into a container carry a
  // nonzero chunk_off; recipes must preserve that or restores from a
  // recipe-materialized map would read the wrong container region.
  auto v = window_entries(4, 200);
  v[2].container = true;
  v[2].chunk_id = "container-obj-7";
  v[2].chunk_off = 3ull * kChunk;
  auto back = decode_recipe_chunk(encode_recipe_chunk(v));
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back->size(), 4u);
  for (size_t i = 0; i < v.size(); i++) {
    expect_same_entry(back->at(i), v[i], "slot " + std::to_string(i));
  }
}

TEST(RecipeChunk, DeterministicBytes) {
  // Content addressing only dedups if equal windows encode to equal
  // bytes.  Encode twice, and from a re-decoded copy.
  auto v = window_entries(4, 300);
  Buffer a = encode_recipe_chunk(v);
  Buffer b = encode_recipe_chunk(v);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(memcmp(a.data(), b.data(), a.size()), 0);
  auto back = decode_recipe_chunk(a);
  ASSERT_TRUE(back.is_ok());
  Buffer c = encode_recipe_chunk(back.value());
  ASSERT_EQ(a.size(), c.size());
  EXPECT_EQ(memcmp(a.data(), c.data(), a.size()), 0);
}

TEST(RecipeChunk, RejectsCorruption) {
  auto v = window_entries(4, 400);
  Buffer good = encode_recipe_chunk(v);
  // Bad magic.
  Buffer bad = good;
  bad.mutable_data()[0] ^= 0xFF;
  EXPECT_FALSE(decode_recipe_chunk(bad).is_ok());
  // Truncations.
  EXPECT_FALSE(decode_recipe_chunk(Buffer()).is_ok());
  for (size_t cut = 1; cut + 1 < good.size(); cut += 7) {
    EXPECT_FALSE(decode_recipe_chunk(good.slice(0, cut)).is_ok()) << cut;
  }
}

// --- End-to-end recipe mode (compaction, overlay, shrink, GC, dedup) ---

DedupTierConfig recipe_tier_config() {
  DedupTierConfig t = test_tier_config();
  t.recipe_entries = 4;  // small windows so a few chunks compact
  return t;
}

ClusterConfig recipe_cluster_config() {
  ClusterConfig c = small_cluster_config();
  c.recipe_dedup = 1;
  return c;
}

OsdId meta_primary(DedupHarness& h, const std::string& oid) {
  return h.cluster->osdmap().primary(h.meta, oid);
}

TEST(RecipeMode, CompactionCreatesRecipesAndDropsInlineRecords) {
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  Buffer data = random_buffer(8 * kChunk, 1);  // two 4-entry windows
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());

  ChunkMap cm = load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj");
  ASSERT_EQ(cm.size(), 8u);
  EXPECT_EQ(cm.recipes().size(), 2u);
  EXPECT_FALSE(cm.unresolved());
  // Recipe members materialize without inline records — the compactor
  // dropped their "dedup.ck." shadows.
  size_t from_recipe = 0;
  for (const auto& [off, e] : cm.entries()) {
    if (!e.inline_rec) from_recipe++;
    EXPECT_TRUE(e.flushed()) << off;
    EXPECT_FALSE(e.dirty) << off;
  }
  EXPECT_EQ(from_recipe, 8u);

  auto r = h.read("obj", 0, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
  EXPECT_TRUE(h.refcounts_consistent());

  EXPECT_EQ(h.cluster->perf_sum(l_tier_recipe_chunks, h.meta), 2u);
  // Batched omap writes + packed/id-less records: actually-written
  // metadata bytes undercut the fixed-150B baseline.
  EXPECT_GT(h.cluster->perf_sum(l_tier_meta_bytes_baseline, h.meta),
            h.cluster->perf_sum(l_tier_meta_bytes_actual, h.meta));
}

TEST(RecipeMode, SingleSlotWindowStaysInline) {
  // A one-member window never compacts (eligibility needs >= 2 members):
  // a recipe over one entry would cost more metadata than it saves.
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(kChunk, 2)).is_ok());
  ASSERT_TRUE(h.drain());
  ChunkMap cm = load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj");
  ASSERT_EQ(cm.size(), 1u);
  EXPECT_TRUE(cm.recipes().empty());
  EXPECT_TRUE(cm.entries().begin()->second.inline_rec);
  EXPECT_EQ(h.cluster->perf_sum(l_tier_recipe_chunks, h.meta), 0u);
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(RecipeMode, InlineOverlayWinsOverRecipeContent) {
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  Buffer data = random_buffer(4 * kChunk, 3);
  ASSERT_TRUE(h.write("obj", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj")
                .recipes()
                .size(),
            1u);

  // Overwrite one member: the dirty inline record must shadow the stale
  // recipe copy both before and after the next flush cycle.
  Buffer patch = random_buffer(kChunk, 4);
  ASSERT_TRUE(h.write("obj", 2 * kChunk, patch).is_ok());
  Buffer want = data;
  memcpy(want.mutable_data() + 2 * kChunk, patch.data(), kChunk);
  auto mid = h.read("obj", 0, want.size());
  ASSERT_TRUE(mid.is_ok());
  EXPECT_TRUE(mid->content_equals(want));

  ASSERT_TRUE(h.drain());
  auto after = h.read("obj", 0, want.size());
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->content_equals(want));
  EXPECT_TRUE(h.refcounts_consistent());

  // GC finds nothing stale: overlays and recipes agree on liveness.
  Scrubber s(h.cluster.get(), h.meta, h.chunks);
  (void)s.collect_garbage();
  EXPECT_TRUE(s.collect_garbage().clean());
}

TEST(RecipeMode, WriteFullShrinkBreaksRecipes) {
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  Buffer big = random_buffer(8 * kChunk, 5);
  ASSERT_TRUE(h.write("obj", 0, big).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj")
                .recipes()
                .size(),
            2u);

  // Shrink to one chunk: every old recipe is invalid; its chunks must be
  // released (directly or via GC), and the survivor re-inlined.
  Buffer small = random_buffer(kChunk, 6);
  ASSERT_TRUE(
      sync_write_full(*h.cluster, *h.client, h.meta, "obj", small).is_ok());
  ASSERT_TRUE(h.drain());

  ChunkMap cm = load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj");
  ASSERT_EQ(cm.size(), 1u);
  EXPECT_TRUE(cm.recipes().empty());
  auto r = h.read("obj", 0, kChunk);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(small));
  EXPECT_TRUE(h.refcounts_consistent());

  Scrubber s(h.cluster.get(), h.meta, h.chunks);
  (void)s.collect_garbage();
  EXPECT_TRUE(s.collect_garbage().clean());
  // Only the survivor's data chunk remains in the chunk pool.
  EXPECT_EQ(h.chunk_object_count(), 1u);
}

TEST(RecipeMode, RemoveThenGcReclaimsRecipeChunks) {
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(8 * kChunk, 7)).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_GT(h.chunk_object_count(), 0u);

  ASSERT_TRUE(sync_remove(*h.cluster, *h.client, h.meta, "obj").is_ok());
  ASSERT_TRUE(h.drain());

  Scrubber s(h.cluster.get(), h.meta, h.chunks);
  (void)s.collect_garbage();  // drop refs of the removed holder
  (void)s.collect_garbage();  // reclaim now-unreferenced chunks
  EXPECT_EQ(h.chunk_object_count(), 0u);
  EXPECT_TRUE(s.collect_garbage().clean());
}

TEST(RecipeMode, IdenticalObjectsShareRecipeChunks) {
  // The point of the feature: the same content under two names (two
  // tenants uploading one image) produces identical windows, so the
  // second object's recipe puts dedup against the first's.
  DedupHarness h(recipe_tier_config(), recipe_cluster_config());
  Buffer data = random_buffer(8 * kChunk, 8);
  ASSERT_TRUE(h.write("tenant-a", 0, data).is_ok());
  ASSERT_TRUE(h.write("tenant-b", 0, data).is_ok());
  ASSERT_TRUE(h.drain());

  // Four recipe puts total (two windows per object).  At least one dedups
  // against its twin; the exact created/hit split depends on flush
  // interleaving (both flushes may probe before either put lands).
  EXPECT_EQ(h.cluster->perf_sum(l_tier_recipe_chunks, h.meta) +
                h.cluster->perf_sum(l_tier_recipe_hits, h.meta),
            4u);
  EXPECT_GE(h.cluster->perf_sum(l_tier_recipe_hits, h.meta), 1u);
  // Chunk pool holds 8 data chunks + 2 recipe chunks, each doubly held.
  EXPECT_EQ(h.chunk_object_count(), 10u);
  EXPECT_TRUE(h.refcounts_consistent());
  auto ra = h.read("tenant-a", 0, data.size());
  auto rb = h.read("tenant-b", 0, data.size());
  ASSERT_TRUE(ra.is_ok() && rb.is_ok());
  EXPECT_TRUE(ra->content_equals(data));
  EXPECT_TRUE(rb->content_equals(data));
}

TEST(RecipeMode, OffModeWritesNoRecipes) {
  // Knob off (forced, so the sanitizer script's env-on phase can't flip
  // it): legacy records only, baseline == actual, no recipe traffic —
  // the frozen default digests depend on this.
  ClusterConfig off = small_cluster_config();
  off.recipe_dedup = 0;
  DedupHarness h(recipe_tier_config(), off);
  ASSERT_TRUE(h.write("obj", 0, random_buffer(8 * kChunk, 9)).is_ok());
  ASSERT_TRUE(h.drain());
  ChunkMap cm = load_map_at(*h.cluster, meta_primary(h, "obj"), h.meta, "obj");
  EXPECT_EQ(cm.size(), 8u);
  EXPECT_TRUE(cm.recipes().empty());
  EXPECT_EQ(h.cluster->perf_sum(l_tier_recipe_chunks, h.meta), 0u);
  EXPECT_EQ(h.cluster->perf_sum(l_tier_recipe_hits, h.meta), 0u);
  EXPECT_EQ(h.cluster->perf_sum(l_tier_meta_bytes_baseline, h.meta),
            h.cluster->perf_sum(l_tier_meta_bytes_actual, h.meta));
}

// --- Determinism: recipe mode has its own shard/thread-stable digest ---

TEST(RecipeDeterminism, DigestInvariantAcrossShardsAndThreads) {
  bench::SimE2eConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;
  cfg.dedupe = 0.9;

  cfg.recipe_dedup = 0;
  cfg.exec_threads = 1;
  cfg.sim_shards = 1;
  const bench::SimE2eResult off = bench::run_sim_e2e(cfg);
  EXPECT_TRUE(off.drained);

  cfg.recipe_dedup = 1;
  std::string base_digest;
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      cfg.sim_shards = shards;
      cfg.exec_threads = threads;
      const bench::SimE2eResult on = bench::run_sim_e2e(cfg);
      const std::string at = "shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads);
      EXPECT_TRUE(on.drained) << at;
      if (base_digest.empty()) {
        base_digest = on.digest;
        // Recipe mode is NOT digest-neutral: it adds real chunk-pool
        // objects and traffic, so it owns a separate digest lineage.
        EXPECT_NE(on.digest, off.digest);
      } else {
        EXPECT_EQ(on.digest, base_digest) << at;
      }
    }
  }
}

}  // namespace
}  // namespace gdedup
