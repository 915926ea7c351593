// The two-tier fingerprint fast path (hash/weak_hash.h,
// dedup/fingerprint_index.h, the tier probe in dedup/tier.cc) and the
// chunk-refs metadata cache (osd/refs_cache.h).
//
// What must hold: the weak hash is a pure function of the byte stream
// (golden vectors + incremental-vs-oneshot); the index never returns a
// wrong fingerprint, even under forced weak-hash collisions — byte
// verification is the only authority; and the fast path is host-side
// only: the determinism digest is byte-identical with GDEDUP_FP_FASTPATH
// on or off, at any shard/thread count, across replicated, EC and
// crash-schedule workloads.

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "dedup/chunker.h"
#include "dedup/fingerprint_index.h"
#include "dedup/invariants.h"
#include "hash/weak_hash.h"
#include "osd/refs_cache.h"
#include "rados/fault_campaign.h"
#include "reference_impls.h"
#include "sim_e2e_scenario.h"
#include "test_util.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::random_buffer;
using testutil::small_cluster_config;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

// --- Weak hash: golden vectors + streaming equivalence ---

// The plain, word-by-word statement of the lane definition: what the
// buffered, unrolled implementation must equal.
using bench::ref::weak_hash_lanes;

TEST(WeakHash, GoldenVectors) {
  // Frozen outputs.  The hash is host-side only: it picks candidates for
  // byte verification and shards the in-memory index, nothing persists
  // it, and the FpFastpathDeterminism tests below show no simulated
  // outcome depends on it.  These vectors pin it against accidental
  // change.  Inputs under 64 bytes are word-serial FNV + splitmix64; the
  // 256-byte and 32 KiB vectors go through the lanes and equal the plain
  // definition.
  EXPECT_EQ(WeakHasher::oneshot({}), 0xf52a15e9a9b5e89bULL);

  const auto vec = [](const char* s) {
    return WeakHasher::oneshot(
        {reinterpret_cast<const uint8_t*>(s), strlen(s)});
  };
  EXPECT_EQ(vec("a"), 0x8097ca68b9cc797bULL);
  EXPECT_EQ(vec("abc"), 0xe5a156a71fa6f76bULL);
  EXPECT_EQ(vec("The quick brown fox jumps over the lazy dog"),
            0xb4a339c371ac5916ULL);

  Buffer zeros(kChunk);  // zero-filled
  EXPECT_EQ(WeakHasher::oneshot(zeros.span()), 0x4663520c642014b9ULL);
  EXPECT_EQ(weak_hash_lanes(zeros.span()), 0x4663520c642014b9ULL);

  Buffer seq(256);
  for (size_t i = 0; i < 256; i++) seq.mutable_data()[i] = uint8_t(i);
  EXPECT_EQ(WeakHasher::oneshot(seq.span()), 0x54809950b14a720fULL);
  EXPECT_EQ(weak_hash_lanes(seq.span()), 0x54809950b14a720fULL);
}

TEST(WeakHash, OneshotMatchesLaneReference) {
  // Every tail length, below, at and across the 64-byte stripe, then a
  // whole chunk.  Below one stripe the value is the pre-lane serial
  // hash's.
  Buffer data = random_buffer(300, 0x1a7e);
  for (size_t n = 0; n <= data.size(); n++) {
    const auto s = data.span().subspan(0, n);
    EXPECT_EQ(WeakHasher::oneshot(s), weak_hash_lanes(s)) << "length " << n;
    if (n < WeakHasher::kStripe) {  // below one stripe: the serial hash
      EXPECT_EQ(WeakHasher::oneshot(s), bench::ref::weak_hash_serial(s));
    }
  }
  Buffer chunk = random_buffer(kChunk, 0xc4c4);
  EXPECT_EQ(WeakHasher::oneshot(chunk.span()), weak_hash_lanes(chunk.span()));
}

TEST(WeakHash, IncrementalMatchesOneshot) {
  // digest() is defined over the byte stream only — split points must not
  // matter.  Exhaustive over every split of a 200-byte buffer (three
  // stripe boundaries, every tail length on both sides), then irregular
  // pieces over a longer one.
  Buffer data = random_buffer(200, 0xfeed);
  const uint64_t want = WeakHasher::oneshot(data.span());
  for (size_t cut = 0; cut <= data.size(); cut++) {
    WeakHasher h;
    h.update(data.span().subspan(0, cut));
    h.update(data.span().subspan(cut));
    EXPECT_EQ(h.digest(), want) << "split at " << cut;
    EXPECT_EQ(h.bytes_consumed(), data.size());
  }

  Buffer big = random_buffer(64 * 1024 + 13, 0xbeef);
  const uint64_t want_big = WeakHasher::oneshot(big.span());
  const size_t pieces[] = {1, 3, 7, 8, 9, 13, 63, 64, 65, 1000, 4096, 32768};
  WeakHasher h;
  size_t off = 0, pi = 0;
  while (off < big.size()) {
    const size_t n = std::min(pieces[pi++ % std::size(pieces)], big.size() - off);
    h.update(big.span().subspan(off, n));
    off += n;
  }
  EXPECT_EQ(h.digest(), want_big);
  // digest() must not consume: appending more bytes continues the stream.
  h.update(data.span());
  WeakHasher both;
  both.update(big.span());
  both.update(data.span());
  EXPECT_EQ(h.digest(), both.digest());
  // reset() starts a fresh stream.
  h.reset();
  h.update(data.span());
  EXPECT_EQ(h.digest(), want);

  // The raw-pointer alias is the same function.
  EXPECT_EQ(weak_hash64(big.data(), big.size()), want_big);
}

TEST(WeakHash, FusedChunkingMatchesSplitThenHash) {
  // split_with_weak() must produce exactly split()'s boundaries with each
  // chunk's weak hash equal to a standalone oneshot — for both chunkers.
  Buffer image = random_buffer(513 * 1024 + 777, 0xc0de);

  FixedChunker fixed(kChunk);
  const auto fc = fixed.split(image);
  const auto fw = fixed.split_with_weak(image);
  ASSERT_EQ(fc.size(), fw.size());
  for (size_t i = 0; i < fc.size(); i++) {
    EXPECT_EQ(fw[i].offset, fc[i].offset);
    ASSERT_TRUE(fw[i].data.content_equals(fc[i].data));
    EXPECT_EQ(fw[i].weak, WeakHasher::oneshot(fc[i].data.span()));
  }

  CdcChunker cdc(8 * 1024, 16 * 1024, 64 * 1024);
  const auto cc = cdc.split(image);
  const auto cw = cdc.split_with_weak(image);
  ASSERT_EQ(cc.size(), cw.size());
  for (size_t i = 0; i < cc.size(); i++) {
    EXPECT_EQ(cw[i].offset, cc[i].offset);
    ASSERT_TRUE(cw[i].data.content_equals(cc[i].data));
    EXPECT_EQ(cw[i].weak, WeakHasher::oneshot(cc[i].data.span()));
  }
}

// --- Fingerprint index: probe/insert, collisions, capacity ---

TEST(FingerprintIndex, ProbeInsertVerifiedHit) {
  FingerprintIndex idx;
  Buffer a = random_buffer(kChunk, 1);
  const uint64_t wa = WeakHasher::oneshot(a.span());
  const Fingerprint fa = Fingerprint::compute(FingerprintAlgo::kSha256,
                                              a.span());

  // Empty index: the bloom filter proves absence without a map lookup.
  auto pr = idx.probe(wa, a);
  EXPECT_FALSE(pr.hit());
  EXPECT_EQ(pr.outcome, FingerprintIndex::Outcome::kBloomNegative);
  EXPECT_EQ(idx.stats().bloom_negatives, 1u);
  EXPECT_EQ(idx.stats().misses, 1u);

  idx.insert(wa, a, fa);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.retained_bytes(), uint64_t(kChunk));

  pr = idx.probe(wa, a);
  ASSERT_TRUE(pr.hit());
  EXPECT_EQ(pr.outcome, FingerprintIndex::Outcome::kVerifiedHit);
  EXPECT_EQ(*pr.fp, fa);
  EXPECT_EQ(idx.stats().verified_hits, 1u);

  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.retained_bytes(), 0u);
  EXPECT_FALSE(idx.probe(wa, a).hit());
}

TEST(FingerprintIndex, CollisionNeverReturnsWrongFingerprint) {
  FingerprintIndex idx;
  Buffer a = random_buffer(kChunk, 2);
  Buffer b = random_buffer(kChunk, 3);  // different bytes, forced same key
  const uint64_t w = 0x42;
  const Fingerprint fa = Fingerprint::compute(FingerprintAlgo::kSha256,
                                              a.span());
  const Fingerprint fb = Fingerprint::compute(FingerprintAlgo::kSha256,
                                              b.span());

  idx.insert(w, a, fa);
  auto pr = idx.probe(w, b);
  EXPECT_FALSE(pr.hit());
  EXPECT_EQ(pr.outcome, FingerprintIndex::Outcome::kCollision);
  EXPECT_EQ(idx.stats().collisions, 1u);

  // The colliding chunk displaces the candidate in place (no growth).
  idx.insert(w, b, fb);
  EXPECT_EQ(idx.size(), 1u);
  pr = idx.probe(w, b);
  ASSERT_TRUE(pr.hit());
  EXPECT_EQ(*pr.fp, fb);
  pr = idx.probe(w, a);
  EXPECT_EQ(pr.outcome, FingerprintIndex::Outcome::kCollision);
}

TEST(FingerprintIndex, EntryCapEvictsLru) {
  FingerprintIndex::Config cfg;
  cfg.max_entries = 8;  // 2 per shard at 4 shards
  cfg.shards = 4;
  FingerprintIndex idx(cfg);
  for (uint64_t i = 0; i < 64; i++) {
    Buffer c = random_buffer(1024, 100 + i);
    idx.insert(i, c,
               Fingerprint::compute(FingerprintAlgo::kSha256, c.span()));
  }
  EXPECT_LE(idx.size(), 8u);
  EXPECT_GE(idx.stats().evictions, 56u);
  EXPECT_EQ(idx.retained_bytes(), idx.size() * 1024u);
}

TEST(FingerprintIndex, ByteCapEvictsColdest) {
  FingerprintIndex::Config cfg;
  cfg.max_entries = 1024;
  cfg.max_bytes = 2 * kChunk;  // room for two chunks
  cfg.shards = 1;
  FingerprintIndex idx(cfg);
  for (uint64_t i = 0; i < 5; i++) {
    Buffer c = random_buffer(kChunk, 200 + i);
    idx.insert(i, c,
               Fingerprint::compute(FingerprintAlgo::kSha256, c.span()));
  }
  EXPECT_LE(idx.retained_bytes(), uint64_t(2 * kChunk));
  EXPECT_LE(idx.size(), 2u);
  EXPECT_GE(idx.stats().evictions, 3u);
  // The hottest (most recent) entry survived.
  Buffer last = random_buffer(kChunk, 204);
  EXPECT_TRUE(idx.probe(4, last).hit());
}

TEST(FingerprintIndex, ReinsertChurnKeepsByteAccountingExact) {
  // Refreshing an existing key swaps the pinned content in place; the
  // shard's byte gauge must track the swap exactly (debit old, credit
  // new), or the byte cap drifts and either over-evicts or stops bounding
  // memory at all.  Churn one key through growing and shrinking payloads
  // and require retained_bytes to stay a ground-truth recount.
  FingerprintIndex::Config cfg;
  cfg.max_entries = 64;
  cfg.max_bytes = 1ull << 30;  // byte cap out of the way: pure accounting
  cfg.shards = 1;
  FingerprintIndex idx(cfg);
  const size_t sizes[] = {512, kChunk, 256, 4096, kChunk, 100};
  for (uint64_t round = 0; round < 32; round++) {
    const size_t n = sizes[round % (sizeof(sizes) / sizeof(sizes[0]))];
    Buffer c = random_buffer(n, 7000 + round);
    idx.insert(/*weak=*/1, c,
               Fingerprint::compute(FingerprintAlgo::kSha256, c.span()));
    EXPECT_EQ(idx.size(), 1u) << "round " << round;
    EXPECT_EQ(idx.retained_bytes(), n) << "round " << round;
  }
  EXPECT_EQ(idx.stats().evictions, 0u);
  // And under a tight cap, churned re-inserts still respect the bound.
  cfg.max_bytes = 2 * kChunk;
  FingerprintIndex tight(cfg);
  for (uint64_t round = 0; round < 32; round++) {
    Buffer c = random_buffer(kChunk, 8000 + round);
    tight.insert(round % 3, c,
                 Fingerprint::compute(FingerprintAlgo::kSha256, c.span()));
    EXPECT_LE(tight.retained_bytes(), uint64_t(2 * kChunk));
    EXPECT_EQ(tight.retained_bytes(), tight.size() * uint64_t(kChunk));
  }
}

TEST(FingerprintIndex, BloomRebuildsAfterChurn) {
  FingerprintIndex::Config cfg;
  cfg.max_entries = 4;
  cfg.shards = 1;
  FingerprintIndex idx(cfg);
  Buffer c = random_buffer(512, 7);
  const Fingerprint f = Fingerprint::compute(FingerprintAlgo::kSha256,
                                             c.span());
  for (uint64_t i = 0; i < 200; i++) idx.insert(i, c, f);
  EXPECT_GE(idx.stats().bloom_rebuilds, 1u);
  // After the rebuild, long-evicted keys answer through the bloom again
  // (no guarantee for any single key — a rebuilt filter only restores the
  // *rate* — so just require the negative path to be live at all).
  for (uint64_t i = 1000; i < 1200; i++) (void)idx.probe(i, c);
  EXPECT_GT(idx.stats().bloom_negatives, 0u);
}

// --- Refs cache: identity validation (osd/refs_cache.h) ---

TEST(RefsCache, HitsOnExactBufferIdentityOnly) {
  RefsCache cache(8);
  const ObjectKey key{1, "sha256:feed"};
  Buffer enc = random_buffer(64, 1);
  cache.put(key, enc, {{1, "obj", 0}, {1, "obj", kChunk}});

  const std::vector<ChunkRef>* hit = cache.find(key, enc);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);

  // Byte-identical content in a *different* buffer is a different
  // identity (fresh generation): the stale entry is dropped eagerly.
  Buffer twin = random_buffer(64, 1);
  ASSERT_TRUE(twin.content_equals(enc));
  EXPECT_EQ(cache.find(key, twin), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RefsCache, GenerationZeroNeverValidates) {
  // Generation 0 marks a Buffer that never went through
  // next_generation() — e.g. default-constructed.  Such identities are
  // not unique (two empty Buffers share (nullptr, 0, 0)), so an entry
  // bound to one could survive a delete+recreate of the chunk object.
  // Both ends refuse: put() drops gen-0 bindings, find() rejects gen-0
  // probes against a live entry.
  RefsCache cache(8);
  const ObjectKey key{1, "sha256:beef"};

  Buffer untracked;  // no storage, generation 0
  cache.put(key, untracked, {{1, "obj", 0}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key, untracked), nullptr);

  Buffer real = random_buffer(32, 2);
  cache.put(key, real, {{1, "obj", 0}});
  EXPECT_EQ(cache.size(), 1u);
  Buffer empty_probe;
  EXPECT_EQ(cache.find(key, empty_probe), nullptr);
}

TEST(RefsCache, DeleteRecreateNeverReusesStaleRefs) {
  // End to end through the OSD: flush a deduped object, remove it (chunk
  // derefs to zero -> chunk object deleted -> cache entry dropped), then
  // recreate the same content.  The recreated chunk must carry exactly
  // the fresh ref — a stale cached vector would resurrect the old one.
  DedupHarness h(test_tier_config());
  Buffer piece = random_buffer(kChunk, 77);
  ASSERT_TRUE(h.write("obj", 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.chunk_object_count(), 1u);
  ASSERT_EQ(h.total_chunk_refs(), 1u);

  ASSERT_TRUE(sync_remove(*h.cluster, *h.client, h.meta, "obj").is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 0u);

  ASSERT_TRUE(h.write("obj2", 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 1u);
  EXPECT_TRUE(h.refcounts_consistent());
  auto r = h.read("obj2", 0, kChunk);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(piece));
}

TEST(RefsCache, InPlaceEditRebindsToNewBytes) {
  // The put path edits the cached list in place and rebinds the entry to
  // the appended bytes.  The new bytes hit; the old stored bytes (what the
  // store still holds if the write never lands) miss.
  RefsCache cache(8);
  const ObjectKey key{1, "sha256:cafe"};
  const std::vector<ChunkRef> first = {{1, "a", 0}};
  const Buffer stored = encode_refs(first);
  std::vector<ChunkRef>* refs = cache.put(key, stored, std::vector(first));
  ASSERT_NE(refs, nullptr);
  refs->push_back({1, "b", kChunk});
  const Buffer appended = append_refs(stored, *refs, first.size());
  ASSERT_TRUE(appended.content_equals(encode_refs(*refs)));
  cache.rebind(key, appended);

  const std::vector<ChunkRef>* hit = cache.find(key, appended);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ(cache.find(key, stored), nullptr);
  EXPECT_EQ(cache.size(), 0u);

  // A refused binding leaves the caller's list intact.
  std::vector<ChunkRef> mine = first;
  EXPECT_EQ(cache.put(key, Buffer(), std::move(mine)), nullptr);
  EXPECT_EQ(mine.size(), 1u);
}

// --- The tier fast path end to end (DedupHarness) ---

ClusterConfig fastpath_cluster_config(int fp_fastpath) {
  ClusterConfig ccfg = small_cluster_config();
  ccfg.fp_fastpath = fp_fastpath;  // explicit: don't inherit the env
  return ccfg;
}

TEST(RefsCache, PutAfterCrashedRefWriteDecodesAndConserves) {
  // A chunk-pool OSD dies at kBeforeChunkRefWrite, so that put's refs
  // update never lands; the flush re-routes to the surviving holder.
  // After the restart, recovery installs the survivor's refs xattr, so the
  // next put on the chunk must miss the cache, decode the stored bytes,
  // and leave refcount conservation clean.
  ClusterConfig ccfg = fastpath_cluster_config(1);
  ccfg.op_timeout = msec(200);  // the crashed put must not hang its flush
  DedupHarness h(test_tier_config(), ccfg);
  const Buffer piece = random_buffer(kChunk, 91);
  const std::string cid =
      Fingerprint::compute(FingerprintAlgo::kSha256, piece.span()).hex();
  ASSERT_TRUE(h.write("a", 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  const OsdId p = h.cluster->osdmap().primary(h.chunks, cid);
  Osd* po = h.cluster->osd(p);
  // Holders whose metadata primary is the victim would lose their tier
  // with it; pick ones served elsewhere.
  std::vector<std::string> holders;
  for (int i = 0; holders.size() < 2; i++) {
    const std::string oid = "h" + std::to_string(i);
    if (h.cluster->osdmap().primary(h.meta, oid) != p) holders.push_back(oid);
  }

  int fired = 0;
  po->set_failure_hook([&](OsdFailurePoint pt, const ObjectKey& k) {
    if (pt != OsdFailurePoint::kBeforeChunkRefWrite || k.oid != cid ||
        fired > 0) {
      return false;
    }
    fired++;
    return true;
  });
  ASSERT_TRUE(h.write(holders[0], 0, piece).is_ok());
  (void)h.drain();  // the flush re-routes once the victim is marked down
  ASSERT_EQ(fired, 1);
  po->set_failure_hook(nullptr);
  h.cluster->revive_osd(p, /*wipe_store=*/false);
  h.cluster->recover();
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.cluster->osdmap().primary(h.chunks, cid), p);

  const uint64_t decodes = po->perf().get(l_osd_refs_decodes);
  const uint64_t hits = po->perf().get(l_osd_refs_cache_hits);
  ASSERT_TRUE(h.write(holders[1], 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(po->perf().get(l_osd_refs_decodes), decodes + 1);
  EXPECT_EQ(po->perf().get(l_osd_refs_cache_hits), hits);

  const InvariantReport rep =
      InvariantChecker(h.cluster.get(), h.meta, h.chunks).check_metadata();
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_TRUE(h.refcounts_consistent());
  EXPECT_EQ(h.total_chunk_refs(), 3u);
  for (const std::string& oid : {std::string("a"), holders[0], holders[1]}) {
    auto r = h.read(oid, 0, kChunk);
    ASSERT_TRUE(r.is_ok()) << oid;
    EXPECT_TRUE(r->content_equals(piece)) << oid;
  }
}

TEST(FpFastpathTier, WeakHitAvoidsSha) {
  DedupHarness h(test_tier_config(), fastpath_cluster_config(1));
  Buffer piece = random_buffer(kChunk, 42);

  // First flush of this content: full SHA, index learns it.
  ASSERT_TRUE(h.write("obj", 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  const DedupTierStats s0 = h.cluster->tier_stats(h.meta);
  EXPECT_GE(s0.sha_computed, 1u);
  EXPECT_EQ(s0.sha_avoided, 0u);

  // Same bytes in a *fresh* buffer at the next chunk slot of the same
  // object (same primary, same node index; new identity defeats the COW
  // memo).  The weak probe must find the candidate and skip the SHA.
  Buffer again = random_buffer(kChunk, 42);
  ASSERT_TRUE(h.write("obj", kChunk, again).is_ok());
  ASSERT_TRUE(h.drain());
  const DedupTierStats s1 = h.cluster->tier_stats(h.meta);
  EXPECT_GE(s1.weak_hash_hits, s0.weak_hash_hits + 1);
  EXPECT_GE(s1.sha_avoided, 1u);
  EXPECT_EQ(s1.sha_computed, s0.sha_computed);  // no new SHA needed

  // The avoided SHA changed nothing observable: one chunk object, two
  // refs, correct read-back.
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 2u);
  EXPECT_TRUE(h.refcounts_consistent());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(Buffer::concat(piece, again)));
}

TEST(FpFastpathTier, ForcedCollisionFallsBackToSha) {
  // Collision injection: a constant weak hash forces every chunk onto one
  // index key, so distinct contents must survive on byte verification
  // alone — the index may never dedup two different chunks.
  DedupHarness h(test_tier_config(), fastpath_cluster_config(1));
  for (Osd* o : h.cluster->osds()) {
    if (DedupTier* t = h.cluster->tier_of(o->id(), h.meta)) {
      t->set_weak_hash_hook([](const Buffer&) { return uint64_t{42}; });
    }
  }

  Buffer a = random_buffer(kChunk, 50);
  Buffer b = random_buffer(kChunk, 51);  // different content, same weak
  ASSERT_TRUE(h.write("obj", 0, a).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_TRUE(h.write("obj", kChunk, b).is_ok());
  ASSERT_TRUE(h.drain());

  const DedupTierStats s = h.cluster->tier_stats(h.meta);
  EXPECT_GE(s.weak_collisions, 1u);
  EXPECT_EQ(s.sha_avoided, 0u);  // verification rejected every candidate
  EXPECT_GE(s.sha_computed, 2u);

  // Two distinct chunk objects despite the identical weak hash.
  EXPECT_EQ(h.chunk_object_count(), 2u);
  EXPECT_EQ(h.total_chunk_refs(), 2u);
  EXPECT_TRUE(h.refcounts_consistent());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(Buffer::concat(a, b)));

  // A re-appearance of content `a` probes the (now `b`-holding) slot,
  // collides again, recomputes the SHA — and still dedups against the
  // existing chunk object through the normal OID path.
  Buffer a2 = random_buffer(kChunk, 50);
  ASSERT_TRUE(h.write("obj2", 0, a2).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 2u);
  EXPECT_EQ(h.total_chunk_refs(), 3u);
  EXPECT_TRUE(h.refcounts_consistent());
}

TEST(FpFastpathTier, OffModeNeverProbes) {
  DedupHarness h(test_tier_config(), fastpath_cluster_config(0));
  Buffer piece = random_buffer(kChunk, 60);
  ASSERT_TRUE(h.write("obj", 0, piece).is_ok());
  ASSERT_TRUE(h.drain());
  Buffer again = random_buffer(kChunk, 60);
  ASSERT_TRUE(h.write("obj", kChunk, again).is_ok());
  ASSERT_TRUE(h.drain());

  const DedupTierStats s = h.cluster->tier_stats(h.meta);
  EXPECT_EQ(s.weak_hash_hits, 0u);
  EXPECT_EQ(s.weak_hash_misses, 0u);
  EXPECT_EQ(s.weak_collisions, 0u);
  EXPECT_EQ(s.bloom_negative_hits, 0u);
  EXPECT_EQ(s.sha_avoided, 0u);
  EXPECT_GE(s.sha_computed, 2u);
  // Deduplication itself is unaffected — it rides the chunk OID.
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 2u);
}

// --- Digest invariance: the fast path is host-side only ---

bench::SimE2eConfig invariance_config(bool ec) {
  bench::SimE2eConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;
  cfg.dedupe = 0.9;  // dedup-heavy so the fast path actually fires
  cfg.ec = ec;
  return cfg;
}

void check_digest_invariance(bool ec) {
  bench::SimE2eConfig cfg = invariance_config(ec);
  cfg.fp_fastpath = 0;
  cfg.exec_threads = 1;
  cfg.sim_shards = 1;
  const bench::SimE2eResult off = bench::run_sim_e2e(cfg);
  EXPECT_TRUE(off.drained);
  EXPECT_FALSE(off.fp_fastpath_used);
  EXPECT_EQ(off.sha_avoided, 0u);
  EXPECT_EQ(off.weak_hash_hits, 0u);

  cfg.fp_fastpath = 1;
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      cfg.sim_shards = shards;
      cfg.exec_threads = threads;
      const bench::SimE2eResult on = bench::run_sim_e2e(cfg);
      const std::string at = "ec=" + std::to_string(ec) +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads);
      EXPECT_EQ(on.digest, off.digest) << at;
      EXPECT_EQ(on.events, off.events) << at;
      EXPECT_EQ(on.sim_duration, off.sim_duration) << at;
      EXPECT_TRUE(on.fp_fastpath_used) << at;
      // Host-side accounting: the fast path only ever removes SHA work.
      EXPECT_LE(on.sha_computed, off.sha_computed) << at;
      EXPECT_GT(on.sha_computed + on.sha_avoided, 0u) << at;
      EXPECT_EQ(on.sha_computed + on.sha_avoided,
                off.sha_computed + off.sha_avoided)
          << at;
    }
  }
}

TEST(FpFastpathDeterminism, DigestInvariantReplicated) {
  check_digest_invariance(/*ec=*/false);
}

TEST(FpFastpathDeterminism, DigestInvariantEc) {
  check_digest_invariance(/*ec=*/true);
}

TEST(FpFastpathDeterminism, FaultCampaignSliceEquivalence) {
  // Crash schedules under the campaign's seed->variant matrix must
  // produce byte-stable reports with the fast path on or off: redo
  // convergence, refcounts and reports never depend on which fingerprints
  // came from the index.  The campaign builds its own Clusters, which
  // read GDEDUP_FP_FASTPATH at construction.
  auto run_slice = [](const char* fastpath) {
    setenv("GDEDUP_FP_FASTPATH", fastpath, 1);
    std::vector<std::string> reports;
    for (uint64_t seed = 1; seed <= 16; seed++) {
      ScheduleResult r = run_fault_schedule(schedule_config_for_seed(seed));
      EXPECT_TRUE(r.clean()) << "seed " << seed << " fastpath=" << fastpath;
      reports.push_back(std::move(r.report));
    }
    unsetenv("GDEDUP_FP_FASTPATH");
    return reports;
  };
  const auto off = run_slice("0");
  const auto on = run_slice("1");
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); i++) {
    EXPECT_EQ(off[i], on[i]) << "schedule seed " << (i + 1);
  }
}

}  // namespace
}  // namespace gdedup
