// ExtentMap sparse semantics, Transaction atomicity, ObjectStore state,
// physical accounting with and without at-rest compression.

#include "osd/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace gdedup {
namespace {

// -------------------------------------------------------------- ExtentMap

TEST(ExtentMap, WriteAndReadBack) {
  ExtentMap em;
  em.write(100, Buffer::copy_of("hello"));
  EXPECT_EQ(em.read(100, 5).view(), "hello");
  EXPECT_EQ(em.stored_bytes(), 5u);
  EXPECT_EQ(em.end_offset(), 105u);
}

TEST(ExtentMap, HolesReadAsZeros) {
  ExtentMap em;
  em.write(10, Buffer::copy_of("xy"));
  Buffer r = em.read(8, 6);
  EXPECT_EQ(r[0], 0);
  EXPECT_EQ(r[1], 0);
  EXPECT_EQ(r[2], 'x');
  EXPECT_EQ(r[3], 'y');
  EXPECT_EQ(r[4], 0);
}

TEST(ExtentMap, OverwriteSplitsExtents) {
  ExtentMap em;
  em.write(0, Buffer::copy_of("aaaaaaaaaa"));  // [0,10)
  em.write(3, Buffer::copy_of("BBB"));         // [3,6)
  EXPECT_EQ(em.read(0, 10).view(), "aaaBBBaaaa");
  EXPECT_EQ(em.stored_bytes(), 10u);
}

TEST(ExtentMap, PunchHoleMiddle) {
  ExtentMap em;
  em.write(0, Buffer::copy_of("0123456789"));
  em.punch_hole(3, 4);
  EXPECT_EQ(em.stored_bytes(), 6u);
  Buffer r = em.read(0, 10);
  EXPECT_EQ(r.slice(0, 3).view(), "012");
  EXPECT_EQ(r[4], 0);
  EXPECT_EQ(r.slice(7, 3).view(), "789");
  EXPECT_FALSE(em.fully_present(0, 10));
  EXPECT_TRUE(em.fully_present(0, 3));
  EXPECT_TRUE(em.fully_present(7, 3));
}

TEST(ExtentMap, PunchHoleAcrossExtents) {
  ExtentMap em;
  em.write(0, Buffer::copy_of("aaaa"));
  em.write(10, Buffer::copy_of("bbbb"));
  em.punch_hole(2, 10);  // tail of first, head of second
  EXPECT_EQ(em.read(0, 2).view(), "aa");
  EXPECT_EQ(em.read(12, 2).view(), "bb");
  EXPECT_EQ(em.stored_bytes(), 4u);
}

TEST(ExtentMap, TruncateDropsTail) {
  ExtentMap em;
  em.write(0, Buffer::copy_of("0123456789"));
  em.truncate(4);
  EXPECT_EQ(em.stored_bytes(), 4u);
  EXPECT_EQ(em.end_offset(), 4u);
}

TEST(ExtentMap, FullyPresentEmptyRange) {
  ExtentMap em;
  EXPECT_TRUE(em.fully_present(5, 0));
  EXPECT_FALSE(em.fully_present(0, 1));
}

TEST(ExtentMap, RandomizedAgainstFlatModel) {
  // Property: extent map behaves like a flat byte array + presence bitmap.
  Rng rng(17);
  constexpr size_t kSpan = 2048;
  std::vector<uint8_t> flat(kSpan, 0);
  std::vector<bool> present(kSpan, false);
  ExtentMap em;
  for (int iter = 0; iter < 2000; iter++) {
    const uint64_t off = rng.below(kSpan - 1);
    const uint64_t len = 1 + rng.below(std::min<uint64_t>(64, kSpan - off));
    if (rng.chance(0.6)) {
      Buffer b(len);
      rng.fill(b.mutable_data(), len);
      for (uint64_t i = 0; i < len; i++) {
        flat[off + i] = b[i];
        present[off + i] = true;
      }
      em.write(off, std::move(b));
    } else {
      em.punch_hole(off, len);
      for (uint64_t i = 0; i < len; i++) {
        flat[off + i] = 0;
        present[off + i] = false;
      }
    }
    // Spot-check a random window.
    const uint64_t roff = rng.below(kSpan - 1);
    const uint64_t rlen = 1 + rng.below(std::min<uint64_t>(128, kSpan - roff));
    Buffer got = em.read(roff, rlen);
    for (uint64_t i = 0; i < rlen; i++) {
      const uint8_t want = present[roff + i] ? flat[roff + i] : 0;
      ASSERT_EQ(got[i], want) << "iter=" << iter << " at " << roff + i;
    }
  }
  uint64_t expect_bytes = 0;
  for (bool p : present) expect_bytes += p ? 1 : 0;
  EXPECT_EQ(em.stored_bytes(), expect_bytes);
}

// ------------------------------------------------------------ ObjectStore

ObjectKey key(const std::string& oid) { return {0, oid}; }

TEST(ObjectStore, WriteCreatesObject) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer::copy_of("data"));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_TRUE(st.exists(key("a")));
  EXPECT_EQ(st.size(key("a")).value(), 4u);
  EXPECT_EQ(st.read(key("a"), 0, 0)->view(), "data");
}

TEST(ObjectStore, ReadClampsToLogicalSize) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer::copy_of("12345678"));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_EQ(st.read(key("a"), 6, 100)->view(), "78");
  EXPECT_EQ(st.read(key("a"), 100, 10)->size(), 0u);
}

TEST(ObjectStore, WriteFullReplaces) {
  ObjectStore st;
  Transaction t1;
  t1.write(key("a"), 0, Buffer::copy_of("long old content"));
  ASSERT_TRUE(st.apply(t1).is_ok());
  Transaction t2;
  t2.write_full(key("a"), Buffer::copy_of("new"));
  ASSERT_TRUE(st.apply(t2).is_ok());
  EXPECT_EQ(st.size(key("a")).value(), 3u);
  EXPECT_EQ(st.read(key("a"), 0, 0)->view(), "new");
}

TEST(ObjectStore, XattrAndOmap) {
  ObjectStore st;
  Transaction t;
  t.create(key("a"));
  t.setxattr(key("a"), "attr", Buffer::copy_of("v1"));
  t.omap_set(key("a"), "k", Buffer::copy_of("v2"));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_EQ(st.getxattr(key("a"), "attr")->view(), "v1");
  EXPECT_EQ(st.omap_get(key("a"), "k")->view(), "v2");
  EXPECT_FALSE(st.getxattr(key("a"), "missing").is_ok());

  Transaction t2;
  t2.rmxattr(key("a"), "attr");
  t2.omap_rm(key("a"), "k");
  ASSERT_TRUE(st.apply(t2).is_ok());
  EXPECT_FALSE(st.getxattr(key("a"), "attr").is_ok());
  EXPECT_FALSE(st.omap_get(key("a"), "k").is_ok());
}

TEST(ObjectStore, RemoveMissingFailsWholeTxn) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer::copy_of("x"));
  t.remove(key("ghost"));
  const Status s = st.apply(t);
  EXPECT_FALSE(s.is_ok());
  // Atomicity: nothing applied.
  EXPECT_FALSE(st.exists(key("a")));
}

TEST(ObjectStore, CreateThenRemoveInOneTxn) {
  ObjectStore st;
  Transaction t;
  t.write(key("tmp"), 0, Buffer::copy_of("x"));
  t.remove(key("tmp"));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_FALSE(st.exists(key("tmp")));
}

TEST(ObjectStore, CreateWriteRemoveRecreateInOneTxn) {
  // One transaction revives an object it removed: validation must track
  // liveness op by op, the recreated object keeps only post-remove state,
  // and its version bumps once.
  ObjectStore st;
  Transaction t;
  t.create(key("obj"));
  t.write(key("obj"), 0, Buffer::copy_of("old"));
  t.setxattr(key("obj"), "a", Buffer::copy_of("1"));
  t.remove(key("obj"));
  t.write(key("obj"), 0, Buffer::copy_of("new!"));
  t.omap_set(key("obj"), "k", Buffer::copy_of("v"));
  t.write(key("other"), 0, Buffer::copy_of("x"));
  ASSERT_TRUE(st.apply(t).is_ok());
  ASSERT_TRUE(st.exists(key("obj")));
  EXPECT_EQ(st.read(key("obj"), 0, 0)->view(), "new!");
  EXPECT_FALSE(st.getxattr(key("obj"), "a").is_ok());
  EXPECT_EQ(st.omap_get(key("obj"), "k")->view(), "v");
  EXPECT_EQ(st.version(key("obj")).value(), 1u);
  EXPECT_EQ(st.version(key("other")).value(), 1u);

  // Removed twice in one txn: the second remove references a missing
  // object, so the whole txn fails and nothing applies.
  Transaction bad;
  bad.write(key("obj"), 0, Buffer::copy_of("zz"));
  bad.remove(key("obj"));
  bad.remove(key("obj"));
  EXPECT_FALSE(st.apply(bad).is_ok());
  EXPECT_EQ(st.read(key("obj"), 0, 0)->view(), "new!");
  EXPECT_EQ(st.version(key("obj")).value(), 1u);

  // Remove as the last op leaves it gone; no version survives.
  Transaction gone;
  gone.setxattr(key("obj"), "b", Buffer::copy_of("2"));
  gone.remove(key("obj"));
  ASSERT_TRUE(st.apply(gone).is_ok());
  EXPECT_FALSE(st.exists(key("obj")));
}

TEST(ObjectStore, VersionBumpsOncePerTxn) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer::copy_of("x"));
  t.setxattr(key("a"), "m", Buffer::copy_of("y"));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_EQ(st.version(key("a")).value(), 1u);
  Transaction t2;
  t2.write(key("a"), 1, Buffer::copy_of("z"));
  ASSERT_TRUE(st.apply(t2).is_ok());
  EXPECT_EQ(st.version(key("a")).value(), 2u);
}

TEST(ObjectStore, PunchHoleReducesStoredBytes) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer(1000, 7));
  ASSERT_TRUE(st.apply(t).is_ok());
  const auto before = st.stats();
  Transaction t2;
  t2.punch_hole(key("a"), 0, 600);
  ASSERT_TRUE(st.apply(t2).is_ok());
  const auto after = st.stats();
  EXPECT_EQ(before.stored_data_bytes - after.stored_data_bytes, 600u);
  // Logical size unchanged by the hole.
  EXPECT_EQ(st.size(key("a")).value(), 1000u);
}

TEST(ObjectStore, StatsAccounting) {
  ObjectStore st;
  Transaction t;
  t.write(key("a"), 0, Buffer(100, 1));
  t.setxattr(key("a"), "xa", Buffer(20, 2));
  t.omap_set(key("a"), "om", Buffer(30, 3));
  ASSERT_TRUE(st.apply(t).is_ok());
  const auto s = st.stats();
  EXPECT_EQ(s.objects, 1u);
  EXPECT_EQ(s.logical_bytes, 100u);
  EXPECT_EQ(s.stored_data_bytes, 100u);
  EXPECT_EQ(s.xattr_bytes, 22u);  // "xa" + 20
  EXPECT_EQ(s.omap_bytes, 32u);   // "om" + 30
  EXPECT_EQ(s.physical_bytes, 100u + 22 + 32 + kPerObjectBaseBytes);
}

TEST(ObjectStore, PerPoolStats) {
  ObjectStore st;
  Transaction t;
  t.write({1, "a"}, 0, Buffer(10, 1));
  t.write({2, "b"}, 0, Buffer(20, 1));
  ASSERT_TRUE(st.apply(t).is_ok());
  EXPECT_EQ(st.stats(1).logical_bytes, 10u);
  EXPECT_EQ(st.stats(2).logical_bytes, 20u);
  EXPECT_EQ(st.list(1).size(), 1u);
  EXPECT_EQ(st.list_all().size(), 2u);
}

TEST(ObjectStore, ListingIsSortedWhateverTheInsertOrder) {
  // The index is hashed, but listings keep (pool, oid) order: recovery,
  // invariant walks and restart rescans visit objects in that order.
  ObjectStore st;
  std::vector<ObjectKey> keys;
  for (PoolId pool : {3, 1}) {
    for (int i = 0; i < 300; i++) {
      keys.push_back({pool, "obj-" + std::to_string(i * 7919 % 1000)});
    }
  }
  Rng rng(5);
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  for (const auto& k : keys) {
    Transaction t;
    t.create(k);
    ASSERT_TRUE(st.apply(t).is_ok());
  }
  std::vector<ObjectKey> want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(st.list_all(), want);
  for (PoolId pool : {1, 3}) {
    std::vector<ObjectKey> pool_want;
    for (const auto& k : want) {
      if (k.pool == pool) pool_want.push_back(k);
    }
    EXPECT_EQ(st.list(pool), pool_want) << "pool " << pool;
  }
  EXPECT_TRUE(st.list(2).empty());
}

TEST(ObjectStore, FoundStateSurvivesRehash) {
  ObjectStore st;
  Transaction t;
  t.write(key("anchor"), 0, Buffer::copy_of("still here"));
  ASSERT_TRUE(st.apply(t).is_ok());
  const ObjectState* anchor = st.find(key("anchor"));
  ASSERT_NE(anchor, nullptr);
  for (int i = 0; i < 5000; i++) {
    Transaction more;
    more.create(key("filler-" + std::to_string(i)));
    ASSERT_TRUE(st.apply(more).is_ok());
  }
  EXPECT_EQ(st.find(key("anchor")), anchor);
  EXPECT_EQ(anchor->logical_size, 10u);
  EXPECT_EQ(anchor->data.read(0, 10).view(), "still here");
}

TEST(ObjectStore, FindByNameBuiltSeparately) {
  ObjectStore st;
  for (int i = 0; i < 200; i += 2) {
    Transaction t;
    t.create({i % 3, "chunk-" + std::to_string(i)});
    ASSERT_TRUE(st.apply(t).is_ok());
  }
  int hits = 0;
  for (int i = 0; i < 200; i++) {
    for (PoolId pool = 0; pool < 3; pool++) {
      const ObjectKey k{pool, "chunk-" + std::to_string(i)};
      const ObjectState* want = st.find(k);
      // Equal bytes in a separate allocation: same hash, same node.
      const ObjectKey other{pool, std::string(k.oid.str())};
      EXPECT_FALSE(other.oid.shares_storage_with(k.oid));
      EXPECT_EQ(st.find(other), want) << pool << "/" << k.oid;
      EXPECT_EQ(ObjectKeyHash{}(other), ObjectKeyHash{}(k));
      hits += want != nullptr;
    }
  }
  EXPECT_EQ(hits, 100);
}

TEST(ObjectStore, CompressionAtRestShrinksPhysical) {
  ObjectStore plain(false);
  ObjectStore comp(true);
  Buffer zeros(64 * 1024);  // maximally compressible
  for (ObjectStore* st : {&plain, &comp}) {
    Transaction t;
    t.write(key("a"), 0, zeros);
    ASSERT_TRUE(st->apply(t).is_ok());
  }
  EXPECT_EQ(plain.stats().stored_data_bytes, 64u * 1024);
  EXPECT_LT(comp.stats().stored_data_bytes, 2048u);
  // Logical view identical.
  EXPECT_TRUE(comp.read(key("a"), 0, 0)->content_equals(
      *plain.read(key("a"), 0, 0)));
}

TEST(ObjectStore, SnapshotInstallRoundTrip) {
  ObjectStore a, b;
  Transaction t;
  t.write(key("a"), 0, Buffer::copy_of("payload"));
  t.setxattr(key("a"), "m", Buffer::copy_of("meta"));
  ASSERT_TRUE(a.apply(t).is_ok());
  auto snap = a.snapshot(key("a"));
  ASSERT_TRUE(snap.is_ok());
  b.install(key("a"), snap.value());
  EXPECT_EQ(b.read(key("a"), 0, 0)->view(), "payload");
  EXPECT_EQ(b.getxattr(key("a"), "m")->view(), "meta");
  EXPECT_EQ(b.version(key("a")).value(), a.version(key("a")).value());
}

TEST(ObjectStore, ApplyToStateMirrorsApply) {
  // Property: applying a transaction to a detached state equals applying
  // it to the store (the EC write path depends on this equivalence).
  ObjectStore st;
  Transaction setup;
  setup.write(key("a"), 0, Buffer::copy_of("0123456789"));
  ASSERT_TRUE(st.apply(setup).is_ok());

  Transaction t;
  t.write(key("a"), 4, Buffer::copy_of("XY"));
  t.setxattr(key("a"), "n", Buffer::copy_of("v"));
  t.truncate(key("a"), 8);

  ObjectState img = st.snapshot(key("a")).value();
  bool exists = true;
  ASSERT_TRUE(ObjectStore::apply_to_state(t, key("a"), &img, &exists).is_ok());
  ASSERT_TRUE(st.apply(t).is_ok());

  EXPECT_TRUE(exists);
  EXPECT_EQ(img.logical_size, st.size(key("a")).value());
  EXPECT_TRUE(img.data.read(0, img.logical_size)
                  .content_equals(*st.read(key("a"), 0, 0)));
  EXPECT_EQ(img.xattrs.at("n").view(), "v");
}

TEST(Transaction, ByteSizeCountsPayload) {
  Transaction t;
  EXPECT_EQ(t.byte_size(), 0u);
  t.write(key("abc"), 0, Buffer(100));
  const uint64_t sz = t.byte_size();
  EXPECT_GE(sz, 100u);
  t.setxattr(key("abc"), "name", Buffer(50));
  EXPECT_GT(t.byte_size(), sz + 50);
}

}  // namespace
}  // namespace gdedup
