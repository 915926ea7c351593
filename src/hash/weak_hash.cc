#include "hash/weak_hash.h"

#include <algorithm>
#include <cstring>

namespace gdedup {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr size_t kLanes = WeakHasher::kLanes;
constexpr size_t kStripe = WeakHasher::kStripe;

inline uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian hosts only (the whole sim assumes LE wire)
}

inline uint64_t mix_word(uint64_t h, uint64_t w) {
  return (h ^ w) * kFnvPrime;
}

// Word i of each 64-byte stripe feeds lane i.  The lanes are independent
// multiply chains, so the core overlaps them instead of waiting out one
// chain's latency per word.  Works on a local copy: stores through a
// caller's array could alias the uint8_t input and pin the lanes in memory.
inline void mix_stripes(uint64_t* lanes, const uint8_t* p, size_t nstripes) {
  uint64_t l[kLanes];
  std::memcpy(l, lanes, sizeof(l));
  for (; nstripes > 0; nstripes--, p += kStripe) {
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; i++) {
      l[i] = mix_word(l[i], load_le64(p + 8 * i));
    }
  }
  std::memcpy(lanes, l, sizeof(l));
}

inline uint64_t fold_lanes(uint64_t h, const uint64_t* lanes) {
  for (size_t i = 0; i < kLanes; i++) h = mix_word(h, lanes[i]);
  return h;
}

// The sub-stripe tail, word by word; the last partial word is zero-padded
// (the length fold in finalize() keeps streams that differ only by
// trailing zero-padding distinct).
inline uint64_t mix_tail(uint64_t h, const uint8_t* p, size_t n) {
  for (; n >= 8; n -= 8, p += 8) h = mix_word(h, load_le64(p));
  if (n > 0) {
    uint8_t w[8] = {};
    std::memcpy(w, p, n);
    h = mix_word(h, load_le64(w));
  }
  return h;
}

// splitmix64 finalizer: FNV over words leaves the low bits weakly mixed
// for short inputs; the index shards and the Bloom filter key off the low
// bits, so avalanche them.
inline uint64_t finalize(uint64_t h, uint64_t len) {
  h ^= len;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

void WeakHasher::update(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  total_len_ += n;

  // Finish a partial stripe carried from the previous update().
  if (tail_len_ > 0) {
    const size_t take = std::min(n, kStripe - tail_len_);
    std::memcpy(tail_ + tail_len_, p, take);
    tail_len_ += take;
    p += take;
    n -= take;
    if (tail_len_ < kStripe) return;
    mix_stripes(lanes_, tail_, 1);
    tail_len_ = 0;
  }

  mix_stripes(lanes_, p, n / kStripe);
  p += n - n % kStripe;
  n %= kStripe;
  if (n > 0) {
    std::memcpy(tail_, p, n);
    tail_len_ = n;
  }
}

uint64_t WeakHasher::digest() const {
  // Every full stripe is mixed as soon as it is complete, so the lanes
  // hold data exactly when at least one stripe has been seen.
  uint64_t h = kOffsetBasis;
  if (total_len_ >= kStripe) h = fold_lanes(h, lanes_);
  return finalize(mix_tail(h, tail_, tail_len_), total_len_);
}

void WeakHasher::reset() { *this = WeakHasher(); }

uint64_t WeakHasher::oneshot(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t h = kOffsetBasis;
  if (n >= kStripe) {
    uint64_t lanes[kLanes];
    std::fill_n(lanes, kLanes, kOffsetBasis);
    mix_stripes(lanes, p, n / kStripe);
    h = fold_lanes(h, lanes);
    p += n - n % kStripe;
    n %= kStripe;
  }
  return finalize(mix_tail(h, p, n), data.size());
}

uint64_t weak_hash64(const void* data, size_t len) {
  return WeakHasher::oneshot({static_cast<const uint8_t*>(data), len});
}

}  // namespace gdedup
