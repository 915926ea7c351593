#include "ec/galois.h"

#include <cassert>

// Bulk kernels: a split-nibble AVX2 loop (the GF-Complete "split table"
// method) behind a once-resolved runtime check, like the SHA-NI dispatch
// in hash/sha256.cc.  For a constant c, c*x = c*(x & 0xf) ^ c*(x & 0xf0),
// so two 16-entry tables turn 32 products into two byte shuffles and an
// XOR.  The scalar log/exp loop covers the tail and hosts without AVX2;
// both compute the same field products, and the kernel tests compare
// every c against gf256::mul.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GDEDUP_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace gdedup::gf256 {

namespace {

struct Tables {
  std::array<uint8_t, 512> exp;  // doubled to skip the mod-255 in mul
  std::array<int, 256> log;
};

const Tables& tables() {
  static const Tables t = [] {
    Tables t{};
    constexpr uint16_t kPoly = 0x11d;
    uint16_t x = 1;
    for (int i = 0; i < 255; i++) {
      t.exp[i] = static_cast<uint8_t>(x);
      t.log[x] = i;
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    for (int i = 255; i < 512; i++) t.exp[i] = t.exp[i - 255];
    t.log[0] = -1;
    return t;
  }();
  return t;
}

}  // namespace

uint8_t mul(uint8_t a, uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + t.log[b]];
}

uint8_t div(uint8_t a, uint8_t b) {
  assert(b != 0);
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] - t.log[b] + 255];
}

uint8_t inv(uint8_t a) {
  assert(a != 0);
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

uint8_t exp(int power) {
  const auto& t = tables();
  power %= 255;
  if (power < 0) power += 255;
  return t.exp[power];
}

uint8_t add(uint8_t a, uint8_t b) { return a ^ b; }

namespace {

void mul_acc_scalar(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const auto& t = tables();
  const int lc = t.log[c];
  for (size_t i = 0; i < n; i++) {
    if (src[i] != 0) dst[i] ^= t.exp[t.log[src[i]] + lc];
  }
}

void mul_row_scalar(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  const auto& t = tables();
  const int lc = t.log[c];
  for (size_t i = 0; i < n; i++) {
    dst[i] = src[i] == 0 ? 0 : t.exp[t.log[src[i]] + lc];
  }
}

#if GDEDUP_HAVE_AVX2

// Each kernel handles the whole 32-byte blocks and returns how many bytes
// it covered; the caller finishes the tail with the scalar loop.

struct NibbleTables {
  __m256i lo, hi, mask;
};

__attribute__((target("avx2"))) NibbleTables nibble_tables(uint8_t c) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  for (int x = 0; x < 16; x++) {
    lo[x] = mul(c, static_cast<uint8_t>(x));
    hi[x] = mul(c, static_cast<uint8_t>(x << 4));
  }
  return {_mm256_broadcastsi128_si256(
              _mm_load_si128(reinterpret_cast<const __m128i*>(lo))),
          _mm256_broadcastsi128_si256(
              _mm_load_si128(reinterpret_cast<const __m128i*>(hi))),
          _mm256_set1_epi8(0x0f)};
}

__attribute__((target("avx2"))) inline __m256i mul32(const NibbleTables& t,
                                                    const uint8_t* src) {
  const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  const __m256i l = _mm256_and_si256(s, t.mask);
  const __m256i h = _mm256_and_si256(_mm256_srli_epi64(s, 4), t.mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(t.lo, l),
                          _mm256_shuffle_epi8(t.hi, h));
}

__attribute__((target("avx2"))) size_t mul_acc_avx2(uint8_t* dst,
                                                   const uint8_t* src,
                                                   size_t n, uint8_t c) {
  const NibbleTables t = nibble_tables(c);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(
        d, _mm256_xor_si256(_mm256_loadu_si256(d), mul32(t, src + i)));
  }
  return i;
}

__attribute__((target("avx2"))) size_t mul_row_avx2(uint8_t* dst,
                                                   const uint8_t* src,
                                                   size_t n, uint8_t c) {
  const NibbleTables t = nibble_tables(c);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), mul32(t, src + i));
  }
  return i;
}

bool have_avx2() {
  static const bool yes = __builtin_cpu_supports("avx2");
  return yes;
}

#endif  // GDEDUP_HAVE_AVX2

}  // namespace

void mul_acc(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < n; i++) dst[i] ^= src[i];
    return;
  }
  size_t done = 0;
#if GDEDUP_HAVE_AVX2
  if (have_avx2()) done = mul_acc_avx2(dst, src, n, c);
#endif
  mul_acc_scalar(dst + done, src + done, n - done, c);
}

void mul_row(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c) {
  if (c == 0) {
    for (size_t i = 0; i < n; i++) dst[i] = 0;
    return;
  }
  if (c == 1) {
    for (size_t i = 0; i < n; i++) dst[i] = src[i];
    return;
  }
  size_t done = 0;
#if GDEDUP_HAVE_AVX2
  if (have_avx2()) done = mul_row_avx2(dst, src, n, c);
#endif
  mul_row_scalar(dst + done, src + done, n - done, c);
}

}  // namespace gdedup::gf256
