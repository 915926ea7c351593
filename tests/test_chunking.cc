// Fixed and content-defined chunkers; chunk map encode/decode with the
// paper's 150-byte entry footprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/encoding.h"
#include "common/random.h"
#include "dedup/chunk_map.h"
#include "dedup/chunker.h"
#include "hash/rabin.h"
#include "hash/weak_hash.h"

namespace gdedup {
namespace {

// ----------------------------------------------------------- FixedChunker

TEST(FixedChunker, ExactMultiple) {
  FixedChunker c(4);
  auto chunks = c.split(Buffer::copy_of("abcdefgh"));
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].data.view(), "abcd");
  EXPECT_EQ(chunks[1].offset, 4u);
  EXPECT_EQ(chunks[1].data.view(), "efgh");
}

TEST(FixedChunker, ShortTail) {
  FixedChunker c(4);
  auto chunks = c.split(Buffer::copy_of("abcdef"));
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[1].data.view(), "ef");
}

TEST(FixedChunker, EmptyInput) {
  FixedChunker c(4);
  EXPECT_TRUE(c.split(Buffer()).empty());
}

TEST(FixedChunker, GridArithmetic) {
  FixedChunker c(32768);
  EXPECT_EQ(c.chunk_start(0), 0u);
  EXPECT_EQ(c.chunk_start(32767), 0u);
  EXPECT_EQ(c.chunk_start(32768), 32768u);
  EXPECT_EQ(c.chunk_index(65536), 2u);
}

TEST(FixedChunker, CoveringRanges) {
  FixedChunker c(10);
  EXPECT_EQ(c.covering(0, 10), (std::vector<uint64_t>{0}));
  EXPECT_EQ(c.covering(5, 10), (std::vector<uint64_t>{0, 10}));
  EXPECT_EQ(c.covering(10, 1), (std::vector<uint64_t>{10}));
  EXPECT_EQ(c.covering(9, 2), (std::vector<uint64_t>{0, 10}));
  EXPECT_TRUE(c.covering(0, 0).empty());
  EXPECT_EQ(c.covering(25, 30), (std::vector<uint64_t>{20, 30, 40, 50}));
}

TEST(FixedChunker, StableGridAcrossWrites) {
  // The property the write path depends on: the same offset always maps to
  // the same chunk slot.
  FixedChunker c(32 * 1024);
  for (uint64_t off : {0ull, 16ull * 1024, 48ull * 1024, 1000000ull}) {
    EXPECT_EQ(c.chunk_start(off), c.covering(off, 1)[0]);
  }
}

// ------------------------------------------------------------- CdcChunker

Buffer random_data(size_t n, uint64_t seed) {
  Buffer b(n);
  Rng rng(seed);
  rng.fill(b.mutable_data(), n);
  return b;
}

TEST(CdcChunker, ReassemblesExactly) {
  CdcChunker c(2048, 8192, 32768);
  Buffer data = random_data(300000, 5);
  auto chunks = c.split(data);
  Buffer joined;
  uint64_t expect_off = 0;
  for (const auto& ch : chunks) {
    EXPECT_EQ(ch.offset, expect_off);
    joined = Buffer::concat(joined, ch.data);
    expect_off += ch.data.size();
  }
  EXPECT_TRUE(joined.content_equals(data));
}

TEST(CdcChunker, RespectsSizeBounds) {
  CdcChunker c(2048, 8192, 32768);
  Buffer data = random_data(500000, 6);
  auto chunks = c.split(data);
  for (size_t i = 0; i + 1 < chunks.size(); i++) {  // last may be short
    EXPECT_GE(chunks[i].data.size(), 2048u);
    EXPECT_LE(chunks[i].data.size(), 32768u);
  }
}

TEST(CdcChunker, AverageNearTarget) {
  CdcChunker c(2048, 8192, 65536);
  Buffer data = random_data(4 << 20, 7);
  auto chunks = c.split(data);
  const double avg = static_cast<double>(data.size()) / chunks.size();
  EXPECT_GT(avg, 4096);
  EXPECT_LT(avg, 20000);
}

TEST(CdcChunker, ShiftResistance) {
  // The CDC selling point: inserting bytes near the front only disturbs
  // nearby boundaries; most chunks stay identical.
  CdcChunker c(2048, 8192, 32768);
  Buffer data = random_data(400000, 8);
  Buffer shifted = Buffer::concat(Buffer::copy_of("INSERTED"), data);

  auto a = c.split(data);
  auto b = c.split(shifted);
  std::set<std::string> set_a;
  for (const auto& ch : a) set_a.insert(ch.data.to_string());
  size_t shared = 0;
  for (const auto& ch : b) {
    if (set_a.count(ch.data.to_string())) shared++;
  }
  EXPECT_GT(shared, a.size() * 7 / 10);
}

TEST(CdcChunker, FixedChunkerLacksShiftResistance) {
  // Contrast case documenting why CDC exists (and what fixed chunking
  // gives up): a one-byte shift destroys fixed-grid chunk identity.
  FixedChunker c(8192);
  Buffer data = random_data(400000, 9);
  Buffer shifted = Buffer::concat(Buffer::copy_of("X"), data);
  auto a = c.split(data);
  auto b = c.split(shifted);
  std::set<std::string> set_a;
  for (const auto& ch : a) set_a.insert(ch.data.to_string());
  size_t shared = 0;
  for (const auto& ch : b) {
    if (set_a.count(ch.data.to_string())) shared++;
  }
  EXPECT_EQ(shared, 0u);
}

// The optimized split() must be bit-identical to the straightforward
// byte-at-a-time scan it replaced; split_reference() is kept precisely so
// this can be asserted on every interesting input shape.
void expect_same_chunks(const CdcChunker& c, const Buffer& data) {
  const auto fast = c.split(data);
  const auto ref = c.split_reference(data);
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < fast.size(); i++) {
    EXPECT_EQ(fast[i].offset, ref[i].offset) << "chunk " << i;
    ASSERT_EQ(fast[i].data.size(), ref[i].data.size()) << "chunk " << i;
    EXPECT_TRUE(fast[i].data.content_equals(ref[i].data)) << "chunk " << i;
  }
}

TEST(CdcChunker, FastPathMatchesReferenceRandom) {
  CdcChunker c(8192, 32768, 131072);
  expect_same_chunks(c, random_data(1 << 20, 21));
  // Odd length exercises the stride-2 scan's scalar tail.
  expect_same_chunks(c, random_data((1 << 20) + 1, 22));
}

TEST(CdcChunker, FastPathMatchesReferenceAcrossConfigs) {
  // Dense cutting (min == window size, tiny average) hits boundaries at
  // exactly min_size and at every loop-parity position; the wide config
  // leaves long boundary-free stretches.
  CdcChunker dense(48, 64, 4096);
  CdcChunker mid(2048, 8192, 32768);
  CdcChunker wide(65536, 262144, 1048576);
  for (uint64_t seed = 30; seed < 34; seed++) {
    for (size_t extra = 0; extra < 3; extra++) {
      Buffer data = random_data(200000 + extra, seed);
      expect_same_chunks(dense, data);
      expect_same_chunks(mid, data);
      expect_same_chunks(wide, data);
    }
  }
}

TEST(CdcChunker, FastPathMatchesReferenceAllZeros) {
  // Zeros never satisfy the boundary mask: every cut is a forced max-size
  // cut, plus a short tail.
  CdcChunker c(2048, 8192, 32768);
  Buffer zeros(100000);
  expect_same_chunks(c, zeros);
  auto chunks = c.split(zeros);
  ASSERT_EQ(chunks.size(), 100000 / 32768 + 1);
  for (size_t i = 0; i + 1 < chunks.size(); i++) {
    EXPECT_EQ(chunks[i].data.size(), 32768u);
  }
  // Exact max-size multiple: no tail chunk.
  Buffer exact(3 * 32768);
  expect_same_chunks(c, exact);
  EXPECT_EQ(c.split(exact).size(), 3u);
}

TEST(CdcChunker, FastPathMatchesReferenceAllBoundaryInput) {
  // Adversarial opposite of all-zeros: a tiled 48-byte block chosen so the
  // rolling hash satisfies the boundary mask at every min_size candidate
  // (min == window == tile period), making every chunk cut immediately at
  // the warm-up check without entering the steady-state scan.
  constexpr uint32_t kWin = RabinRolling::kWindow;
  CdcChunker c(kWin, 64, 4096);
  Rng rng(55);
  Buffer tile(kWin);
  for (int tries = 0; tries < 100000; tries++) {
    rng.fill(tile.mutable_data(), tile.size());
    RabinRolling rh;
    uint64_t h = 0;
    for (uint8_t x : tile.span()) h = rh.roll(x);
    if ((h & 63u) == 63u) break;
  }
  Buffer data(kWin * 100 + 17);  // +17: ragged tail on top of the tiling
  uint8_t* p = data.mutable_data();
  for (size_t i = 0; i < data.size(); i++) p[i] = tile.data()[i % kWin];
  expect_same_chunks(c, data);
  auto chunks = c.split(data);
  ASSERT_EQ(chunks.size(), 101u);
  for (size_t i = 0; i + 1 < chunks.size(); i++) {
    EXPECT_EQ(chunks[i].data.size(), kWin);
  }
}

TEST(CdcChunker, FastPathMatchesReferenceShortInputs) {
  CdcChunker c(2048, 8192, 32768);
  expect_same_chunks(c, Buffer());           // empty
  expect_same_chunks(c, random_data(1, 40));  // below the rolling window
  expect_same_chunks(c, random_data(47, 41));
  expect_same_chunks(c, random_data(2047, 42));  // sub-min_size tail only
  EXPECT_EQ(c.split(random_data(2047, 42)).size(), 1u);
  expect_same_chunks(c, random_data(2048, 43));  // exactly min_size
  expect_same_chunks(c, random_data(2049, 44));
}

// ----------------------------------------------------- split_with_weak

// The fused pass must agree with split() on boundaries and with the
// standalone hasher on every chunk — including the edges where the fusion
// bookkeeping is easiest to get wrong: empty input, input below the
// minimum chunk size, and a final chunk cut exactly at the size bound.

template <typename Chunker>
void expect_weak_matches_split(const Chunker& c, const Buffer& data) {
  const auto plain = c.split(data);
  const auto fused = c.split_with_weak(data);
  ASSERT_EQ(fused.size(), plain.size());
  for (size_t i = 0; i < fused.size(); i++) {
    EXPECT_EQ(fused[i].offset, plain[i].offset) << "chunk " << i;
    EXPECT_TRUE(fused[i].data.content_equals(plain[i].data)) << "chunk " << i;
    EXPECT_EQ(fused[i].weak, WeakHasher::oneshot(fused[i].data.span()))
        << "chunk " << i;
  }
}

TEST(SplitWithWeak, EmptyInput) {
  EXPECT_TRUE(FixedChunker(4096).split_with_weak(Buffer()).empty());
  EXPECT_TRUE(
      CdcChunker(2048, 8192, 32768).split_with_weak(Buffer()).empty());
}

TEST(SplitWithWeak, InputBelowMinChunkIsOneHashedChunk) {
  // Shorter than one grid slot / shorter than min_size: exactly one chunk
  // carrying the whole input, weak-hashed over exactly those bytes.
  const Buffer tiny = random_data(100, 50);
  for (const auto& w : {FixedChunker(4096).split_with_weak(tiny)}) {
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0].offset, 0u);
    EXPECT_TRUE(w[0].data.content_equals(tiny));
    EXPECT_EQ(w[0].weak, WeakHasher::oneshot(tiny.span()));
  }
  const auto w = CdcChunker(2048, 8192, 32768).split_with_weak(tiny);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_TRUE(w[0].data.content_equals(tiny));
  EXPECT_EQ(w[0].weak, WeakHasher::oneshot(tiny.span()));
}

TEST(SplitWithWeak, FinalChunkExactlyAtBound) {
  // Fixed grid: input an exact multiple of the chunk size — the final
  // chunk is full-length, and no empty trailing chunk appears.
  FixedChunker fc(4096);
  const Buffer exact = random_data(3 * 4096, 51);
  const auto w = fc.split_with_weak(exact);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.back().offset, 2u * 4096);
  EXPECT_EQ(w.back().data.size(), 4096u);
  expect_weak_matches_split(fc, exact);

  // CDC: input of exactly max_size with no earlier cut point (all-zero
  // bytes never satisfy the boundary predicate) forces the single chunk
  // to be cut at max_size exactly.
  CdcChunker cc(2048, 8192, 32768);
  const Buffer zeros(32768);
  const auto z = cc.split_with_weak(zeros);
  ASSERT_GE(z.size(), 1u);
  uint64_t covered = 0;
  for (const auto& ch : z) covered += ch.data.size();
  EXPECT_EQ(covered, zeros.size());
  EXPECT_EQ(z.back().offset + z.back().data.size(), 32768u);
  expect_weak_matches_split(cc, zeros);
}

TEST(SplitWithWeak, MatchesOneshotAcrossShapes) {
  FixedChunker fc(4096);
  CdcChunker cc(2048, 8192, 32768);
  for (uint64_t seed = 60; seed < 64; seed++) {
    for (size_t n : {size_t(1), size_t(2047), size_t(2048), size_t(4096),
                     size_t(100000), size_t(300000)}) {
      const Buffer data = random_data(n, seed);
      expect_weak_matches_split(fc, data);
      expect_weak_matches_split(cc, data);
    }
  }
}

// --------------------------------------------------------------- ChunkMap

TEST(ChunkMap, ObtainCreatesAndUpdates) {
  ChunkMap cm;
  ChunkMapEntry& e = cm.obtain(0, 100);
  e.dirty = true;
  EXPECT_EQ(cm.size(), 1u);
  ChunkMapEntry& e2 = cm.obtain(0, 150);
  EXPECT_EQ(&e, &e2);
  EXPECT_EQ(e2.length, 150u);
  EXPECT_TRUE(e2.dirty);
}

TEST(ChunkMap, FindMissing) {
  ChunkMap cm;
  EXPECT_EQ(cm.find(42), nullptr);
}

TEST(ChunkMap, AnyDirtyAndLogicalEnd) {
  ChunkMap cm;
  cm.obtain(0, 32768);
  cm.obtain(32768, 1000);
  EXPECT_FALSE(cm.any_dirty());
  cm.find(32768)->dirty = true;
  EXPECT_TRUE(cm.any_dirty());
  EXPECT_EQ(cm.logical_end(), 33768u);
}

TEST(ChunkMap, LogicalEndMatchesFullScanOnRandomMaps) {
  // logical_end() reads only the last entry; on any map of non-overlapping
  // offset-keyed slots that must equal the max(offset + length) scan.
  Rng rng(31);
  for (int trial = 0; trial < 500; trial++) {
    ChunkMap cm;
    const uint32_t cs = static_cast<uint32_t>(rng.between(1, 64)) * 512;
    const uint64_t slots = rng.below(40);
    for (uint64_t i = 0; i < slots; i++) {
      const uint64_t off = rng.below(256) * cs;
      cm.obtain(off, static_cast<uint32_t>(rng.between(1, cs)));
    }
    for (uint64_t i = rng.below(4); i > 0 && !cm.empty(); i--) {
      cm.erase(std::next(cm.entries().begin(),
                         static_cast<long>(rng.below(cm.size())))->first);
    }
    uint64_t scan = 0;
    for (const auto& [off, e] : cm.entries()) {
      scan = std::max(scan, e.offset + e.length);
    }
    EXPECT_EQ(cm.logical_end(), scan) << "trial " << trial;
  }
  EXPECT_EQ(ChunkMap().logical_end(), 0u);
}

TEST(ChunkMap, EncodeDecodeRoundTrip) {
  ChunkMap cm;
  ChunkMapEntry& a = cm.obtain(0, 32768);
  a.chunk_id = "sha256:0011223344";
  a.cached = true;
  a.dirty = false;
  ChunkMapEntry& b = cm.obtain(32768, 16384);
  b.cached = true;
  b.dirty = true;

  auto decoded = ChunkMap::decode(cm.encode());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded->size(), 2u);
  const ChunkMapEntry* da = decoded->find(0);
  ASSERT_NE(da, nullptr);
  EXPECT_EQ(da->chunk_id, "sha256:0011223344");
  EXPECT_TRUE(da->cached);
  EXPECT_FALSE(da->dirty);
  const ChunkMapEntry* db = decoded->find(32768);
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->dirty);
  EXPECT_EQ(db->length, 16384u);
}

TEST(ChunkMap, EncodedSizeIsPaperFootprint) {
  ChunkMap cm;
  ChunkMapEntry& e = cm.obtain(0, 32768);
  e.chunk_id = "sha256:";
  e.chunk_id.append(64, 'a');
  // 4-byte count + one length-prefixed 150-byte entry.
  EXPECT_EQ(cm.encode().size(), 4u + 4u + ChunkMap::kEntryEncodedBytes);
  cm.obtain(32768, 32768);
  EXPECT_EQ(cm.encode().size(), 4u + 2 * (4u + ChunkMap::kEntryEncodedBytes));
}

TEST(ChunkMap, DecodeRejectsGarbage) {
  EXPECT_FALSE(ChunkMap::decode(Buffer::copy_of("zz")).is_ok());
  Encoder e;
  e.put_u32(3);  // claims 3 entries, provides none
  EXPECT_FALSE(ChunkMap::decode(e.finish()).is_ok());
}

TEST(ChunkMap, EraseEntry) {
  ChunkMap cm;
  cm.obtain(0, 10);
  cm.obtain(10, 10);
  EXPECT_TRUE(cm.erase(0));
  EXPECT_FALSE(cm.erase(0));
  EXPECT_EQ(cm.size(), 1u);
}

}  // namespace
}  // namespace gdedup
