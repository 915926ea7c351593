// Buffer: copy-on-write semantics, slicing, resize, write_at.

#include "common/buffer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "common/random.h"

namespace gdedup {
namespace {

TEST(Buffer, EmptyDefault) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(Buffer, ZeroFilledConstruction) {
  Buffer b(16);
  ASSERT_EQ(b.size(), 16u);
  for (size_t i = 0; i < 16; i++) EXPECT_EQ(b[i], 0);
}

TEST(Buffer, FillConstruction) {
  Buffer b(8, 0xAB);
  for (size_t i = 0; i < 8; i++) EXPECT_EQ(b[i], 0xAB);
}

TEST(Buffer, CopyOfString) {
  Buffer b = Buffer::copy_of("hello");
  EXPECT_EQ(b.view(), "hello");
}

TEST(Buffer, CopySharesStorage) {
  Buffer a = Buffer::copy_of("shared bytes");
  Buffer b = a;
  EXPECT_TRUE(a.shares_storage_with(b));
}

TEST(Buffer, MutationDetaches) {
  Buffer a = Buffer::copy_of("shared bytes");
  Buffer b = a;
  b.mutable_data()[0] = 'X';
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a.view(), "shared bytes");
  EXPECT_EQ(b.view(), "Xhared bytes");
}

TEST(Buffer, SliceIsZeroCopy) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s = a.slice(2, 4);
  EXPECT_EQ(s.view(), "2345");
  EXPECT_TRUE(s.shares_storage_with(a));
}

TEST(Buffer, SliceClampsToBounds) {
  Buffer a = Buffer::copy_of("abc");
  EXPECT_EQ(a.slice(1, 100).view(), "bc");
  EXPECT_EQ(a.slice(5, 2).size(), 0u);
}

TEST(Buffer, SliceThenMutateDetachesCorrectWindow) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s = a.slice(3, 3);
  s.mutable_data()[0] = 'X';
  EXPECT_EQ(s.view(), "X45");
  EXPECT_EQ(a.view(), "0123456789");
  // The copy holds exactly the window: growing it appends zeros, not the
  // parent's following bytes.
  s.resize(5);
  EXPECT_EQ(s.view(), std::string_view("X45\0\0", 5));
}

// A partial slice whose parent has died still copies its window on first
// write, so it does not keep the parent's whole allocation alive; a slice
// covering the parent's whole window takes the storage over in place.
TEST(Buffer, SliceOfDeadParentDetachesOnWrite) {
  Buffer part, whole;
  {
    Buffer parent = Buffer::copy_of("0123456789");
    part = parent.slice(0, 4);
    whole = parent.slice(0, 10);
  }
  const void* shared_id = part.storage_id();
  part.mutable_data()[0] = 'X';
  EXPECT_NE(part.storage_id(), shared_id);
  EXPECT_EQ(part.view(), "X123");
  EXPECT_FALSE(whole.storage_shared());
  const void* whole_id = whole.storage_id();
  whole.mutable_data()[9] = 'Y';
  EXPECT_EQ(whole.storage_id(), whole_id);
  EXPECT_EQ(whole.view(), "012345678Y");
}

TEST(Buffer, Concat) {
  Buffer c = Buffer::concat(Buffer::copy_of("foo"), Buffer::copy_of("bar"));
  EXPECT_EQ(c.view(), "foobar");
  EXPECT_EQ(Buffer::concat(Buffer(), Buffer()).size(), 0u);
}

TEST(Buffer, WriteAtGrows) {
  Buffer b = Buffer::copy_of("abc");
  b.write_at(5, Buffer::copy_of("XY"));
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 'a');
  EXPECT_EQ(b[3], 0);  // gap zero-filled
  EXPECT_EQ(b[5], 'X');
}

TEST(Buffer, WriteAtOverlap) {
  Buffer b = Buffer::copy_of("abcdef");
  b.write_at(2, Buffer::copy_of("XY"));
  EXPECT_EQ(b.view(), "abXYef");
}

TEST(Buffer, ResizeShrinkAndGrow) {
  Buffer b = Buffer::copy_of("abcdef");
  b.resize(3);
  EXPECT_EQ(b.view(), "abc");
  b.resize(5);  // in place: the stale "de" must read as zeros
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[3], 0);
  EXPECT_EQ(b[4], 0);
  b.resize(1000);  // past the allocation
  EXPECT_EQ(b.view().substr(0, 3), "abc");
  for (size_t i = 3; i < 1000; i++) ASSERT_EQ(b[i], 0) << i;
  Buffer shared = b;  // a shared grow copies and leaves the sharer alone
  b.resize(2000);
  EXPECT_EQ(shared.size(), 1000u);
  EXPECT_EQ(b.view().substr(0, 3), "abc");
  for (size_t i = 3; i < 2000; i++) ASSERT_EQ(b[i], 0) << i;
}

TEST(Buffer, ResizeDetachesSharer) {
  Buffer a = Buffer::copy_of("abcdef");
  Buffer b = a;
  b.resize(2);
  EXPECT_EQ(a.view(), "abcdef");
  EXPECT_EQ(b.view(), "ab");
}

TEST(Buffer, ContentEquals) {
  Buffer a = Buffer::copy_of("same");
  Buffer b = Buffer::copy_of("same");
  Buffer c = Buffer::copy_of("diff");
  EXPECT_TRUE(a.content_equals(b));
  EXPECT_FALSE(a.content_equals(c));
  EXPECT_TRUE(Buffer().content_equals(Buffer()));
}

TEST(Buffer, SliceOfSlice) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s1 = a.slice(2, 6);  // "234567"
  Buffer s2 = s1.slice(1, 3);  // "345"
  EXPECT_EQ(s2.view(), "345");
}

TEST(Buffer, MutableDataOnEmpty) {
  Buffer b;
  b.mutable_data();  // must not crash; empty buffers stay empty
  EXPECT_EQ(b.size(), 0u);
  b.write_at(0, Buffer::copy_of("x"));
  EXPECT_EQ(b.view(), "x");
}

// Generation semantics backing the fingerprint memoization cache: equal
// (storage_id, generation) must imply identical bytes for the storage's
// whole lifetime.

TEST(Buffer, GenerationsAreUniquePerAllocation) {
  Buffer a = Buffer::copy_of("aaaa");
  Buffer b = Buffer::copy_of("aaaa");
  EXPECT_NE(a.generation(), 0u);
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_NE(a.storage_id(), nullptr);
  EXPECT_NE(a.storage_id(), b.storage_id());
}

TEST(Buffer, CopyAndSliceInheritGeneration) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer copy = a;
  Buffer s = a.slice(2, 6);
  EXPECT_EQ(copy.generation(), a.generation());
  EXPECT_EQ(copy.storage_id(), a.storage_id());
  EXPECT_EQ(s.generation(), a.generation());
  EXPECT_EQ(s.storage_id(), a.storage_id());
}

TEST(Buffer, SoleOwnerMutationBumpsGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  const uint64_t g0 = a.generation();
  const void* id0 = a.storage_id();
  a.mutable_data()[0] = 'x';
  EXPECT_EQ(a.storage_id(), id0);  // no sharer: storage reused in place
  EXPECT_NE(a.generation(), g0);
}

TEST(Buffer, SharedMutationDetachesWithFreshGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  Buffer b = a;
  const uint64_t ga = a.generation();
  b.mutable_data()[0] = 'x';
  // The sharer detached onto new storage; a's identity is untouched, so a
  // cached fingerprint for (a.storage_id, ga) remains valid.
  EXPECT_NE(b.storage_id(), a.storage_id());
  EXPECT_NE(b.generation(), ga);
  EXPECT_EQ(a.generation(), ga);
  EXPECT_EQ(a.view(), "abcd");
}

TEST(Buffer, ResizeBumpsGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  const uint64_t g0 = a.generation();
  a.resize(8);
  EXPECT_NE(a.generation(), g0);
}

TEST(Buffer, ForOverwriteIsFreshAndSolelyOwned) {
  const Buffer old = Buffer::copy_of("older");
  Buffer b = Buffer::for_overwrite(4096);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_NE(b.data(), nullptr);
  EXPECT_GT(b.generation(), old.generation());
  EXPECT_FALSE(b.storage_shared());
  // Sole owner: writing goes in place, no copy, no other sharer affected.
  const uint8_t* before = b.data();
  std::memset(b.mutable_data(), 7, b.size());
  EXPECT_EQ(b.data(), before);
  EXPECT_EQ(b[4095], 7);
  EXPECT_EQ(Buffer::for_overwrite(0).size(), 0u);
}

TEST(Buffer, StorageSharedThroughCopySliceDetach) {
  Buffer a = Buffer::copy_of("shared window");
  EXPECT_FALSE(a.storage_shared());
  {
    Buffer copy = a;
    EXPECT_TRUE(a.storage_shared());
    EXPECT_TRUE(copy.storage_shared());
  }
  EXPECT_FALSE(a.storage_shared());
  Buffer s = a.slice(0, 6);
  EXPECT_TRUE(a.storage_shared());
  EXPECT_TRUE(s.storage_shared());
  s.mutable_data();  // detaches from a
  EXPECT_FALSE(a.storage_shared());
  EXPECT_FALSE(s.storage_shared());
  EXPECT_EQ(s.view(), "shared");
}

TEST(Buffer, LargeRandomRoundTrip) {
  Rng rng(99);
  Buffer b(1 << 16);
  rng.fill(b.mutable_data(), b.size());
  Buffer copy = b;
  Buffer slice = b.slice(1000, 5000);
  EXPECT_TRUE(copy.content_equals(b));
  EXPECT_EQ(slice.size(), 5000u);
  EXPECT_EQ(std::memcmp(slice.data(), b.data() + 1000, 5000), 0);
}

}  // namespace
}  // namespace gdedup
