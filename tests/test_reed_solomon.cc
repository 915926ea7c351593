// GF(256) field axioms and Reed-Solomon erasure properties.

#include "ec/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "ec/galois.h"

namespace gdedup {
namespace {

// ------------------------------------------------------------------ field

TEST(Galois, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int i = 0; i < 2000; i++) {
    const uint8_t a = static_cast<uint8_t>(rng.below(256));
    const uint8_t b = static_cast<uint8_t>(rng.below(256));
    const uint8_t c = static_cast<uint8_t>(rng.below(256));
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
    EXPECT_EQ(gf256::mul(a, gf256::mul(b, c)), gf256::mul(gf256::mul(a, b), c));
  }
}

TEST(Galois, DistributesOverXor) {
  Rng rng(2);
  for (int i = 0; i < 2000; i++) {
    const uint8_t a = static_cast<uint8_t>(rng.below(256));
    const uint8_t b = static_cast<uint8_t>(rng.below(256));
    const uint8_t c = static_cast<uint8_t>(rng.below(256));
    EXPECT_EQ(gf256::mul(a, static_cast<uint8_t>(b ^ c)),
              gf256::mul(a, b) ^ gf256::mul(a, c));
  }
}

TEST(Galois, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; a++) {
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(Galois, InverseIsExact) {
  for (int a = 1; a < 256; a++) {
    const uint8_t inv = gf256::inv(static_cast<uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Galois, DivisionInvertsMultiplication) {
  Rng rng(3);
  for (int i = 0; i < 2000; i++) {
    const uint8_t a = static_cast<uint8_t>(rng.below(256));
    const uint8_t b = static_cast<uint8_t>(rng.below(255) + 1);
    EXPECT_EQ(gf256::div(gf256::mul(a, b), b), a);
  }
}

TEST(Galois, BulkKernelsMatchScalarMul) {
  // mul_acc / mul_row against gf256::mul for every constant, at lengths
  // around the 32-byte vector block, with source and destination each
  // misaligned from the allocation.
  const size_t lens[] = {0, 1, 31, 32, 33, 63, 64, 65, 1000, 16384};
  const size_t shifts[] = {0, 1, 7};
  Rng rng(18);
  std::vector<uint8_t> src_mem(16384 + 8), dst_mem(16384 + 8);
  std::vector<uint8_t> base(16384), acc(16384), row(16384);
  for (int ci = 0; ci < 256; ci++) {
    const uint8_t c = static_cast<uint8_t>(ci);
    for (size_t n : lens) {
      for (size_t sa : shifts) {
        for (size_t da : shifts) {
          uint8_t* src = src_mem.data() + sa;
          uint8_t* dst = dst_mem.data() + da;
          rng.fill(src, n);
          rng.fill(base.data(), n);
          for (size_t i = 0; i < n; i++) {
            const uint8_t p = gf256::mul(c, src[i]);
            acc[i] = base[i] ^ p;
            row[i] = p;
          }
          std::copy_n(base.data(), n, dst);
          gf256::mul_acc(dst, src, n, c);
          ASSERT_TRUE(std::equal(dst, dst + n, acc.data()))
              << "mul_acc c=" << ci << " n=" << n << " src+" << sa
              << " dst+" << da;
          std::copy_n(base.data(), n, dst);
          gf256::mul_row(dst, src, n, c);
          ASSERT_TRUE(std::equal(dst, dst + n, row.data()))
              << "mul_row c=" << ci << " n=" << n << " src+" << sa
              << " dst+" << da;
        }
      }
    }
  }
}

// ---------------------------------------------------------- Reed-Solomon

Buffer random_buffer(size_t n, uint64_t seed) {
  Buffer b(n);
  Rng rng(seed);
  rng.fill(b.mutable_data(), n);
  return b;
}

TEST(ReedSolomon, EncodeShapesAndPadding) {
  ReedSolomon rs(3, 2);
  Buffer data = random_buffer(1000, 1);  // 1000 / 3 -> 334-byte shards
  auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 5u);
  for (const auto& s : shards) EXPECT_EQ(s.size(), rs.shard_len(1000));
  // Data shards are the input split in order, then zero padding (2 bytes
  // here; stored shard bytes, so they must be deterministic).
  Buffer joined = Buffer::concat(Buffer::concat(shards[0], shards[1]), shards[2]);
  EXPECT_EQ(joined.view().substr(0, 1000), data.view());
  EXPECT_EQ(joined[1000], 0);
  EXPECT_EQ(joined[1001], 0);

  // A data shard past the end of the input is all padding.
  ReedSolomon rs4(4, 1);
  auto small = rs4.encode(Buffer::copy_of("abc"));
  ASSERT_EQ(small[3].size(), 1u);
  EXPECT_EQ(small[3][0], 0);
}

TEST(ReedSolomon, DecodeWithoutLoss) {
  ReedSolomon rs(2, 1);
  Buffer data = random_buffer(10000, 2);
  auto shards = rs.encode(data);
  std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
  auto out = rs.decode(opt, data.size());
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out->content_equals(data));
}

TEST(ReedSolomon, TooManyLossesFails) {
  ReedSolomon rs(2, 1);
  Buffer data = random_buffer(4096, 3);
  auto shards = rs.encode(data);
  std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
  opt[0].reset();
  opt[2].reset();
  EXPECT_FALSE(rs.reconstruct(opt).is_ok());
}

TEST(ReedSolomon, RejectsUnequalShards) {
  ReedSolomon rs(2, 1);
  std::vector<std::optional<Buffer>> opt(3);
  opt[0] = Buffer(10);
  opt[1] = Buffer(11);
  EXPECT_FALSE(rs.reconstruct(opt).is_ok());
}

// Exhaustive erasure property over (k, m) configurations: losing ANY
// subset of <= m shards reconstructs every shard bit-exactly.
class RsErasureSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RsErasureSweep, AnyErasurePatternRecovers) {
  const auto [k, m, data_len] = GetParam();
  ReedSolomon rs(k, m);
  Buffer data = random_buffer(static_cast<size_t>(data_len),
                              static_cast<uint64_t>(k * 1000 + m * 10 + data_len));
  auto shards = rs.encode(data);
  const int total = k + m;

  // All subsets of shards of size <= m to erase.
  for (uint32_t mask = 1; mask < (1u << total); mask++) {
    if (__builtin_popcount(mask) > m) continue;
    std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
    for (int i = 0; i < total; i++) {
      if (mask & (1u << i)) opt[static_cast<size_t>(i)].reset();
    }
    ASSERT_TRUE(rs.reconstruct(opt).is_ok()) << "mask=" << mask;
    for (int i = 0; i < total; i++) {
      ASSERT_TRUE(opt[static_cast<size_t>(i)].has_value());
      EXPECT_TRUE(opt[static_cast<size_t>(i)]->content_equals(
          shards[static_cast<size_t>(i)]))
          << "mask=" << mask << " shard=" << i;
    }
    auto out = rs.decode(opt, data.size());
    ASSERT_TRUE(out.is_ok());
    EXPECT_TRUE(out->content_equals(data)) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RsErasureSweep,
    ::testing::Values(std::make_tuple(2, 1, 3000),   // paper's EC profile
                      std::make_tuple(2, 2, 1024),
                      std::make_tuple(3, 2, 5000),
                      std::make_tuple(4, 2, 4096),
                      std::make_tuple(6, 3, 2000),
                      std::make_tuple(1, 1, 100),
                      std::make_tuple(5, 1, 777)));

TEST(ReedSolomon, ZeroLengthData) {
  ReedSolomon rs(2, 1);
  auto shards = rs.encode(Buffer());
  std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
  auto out = rs.decode(opt, 0);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out->size(), 0u);
}

TEST(ReedSolomon, ParityOnlyRebuild) {
  ReedSolomon rs(2, 2);
  Buffer data = random_buffer(2048, 9);
  auto shards = rs.encode(data);
  std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
  opt[2].reset();
  opt[3].reset();  // both parities gone, data intact
  ASSERT_TRUE(rs.reconstruct(opt).is_ok());
  EXPECT_TRUE(opt[2]->content_equals(shards[2]));
  EXPECT_TRUE(opt[3]->content_equals(shards[3]));
}

}  // namespace
}  // namespace gdedup
