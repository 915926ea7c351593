#pragma once

// Weak (non-cryptographic) chunk hash — the candidate filter of the
// two-tier fingerprint fast path.
//
// The write pipeline fingerprints every dirty chunk with full SHA even
// though, on dedup-heavy workloads, most chunks repeat content the node
// has hashed before.  A cheap 64-bit weak hash is enough to *find* the
// candidate: the fingerprint index keeps the candidate's real bytes, and
// a memcmp against them decides.  Weak-hash collisions are therefore
// harmless — a collision fails byte verification and falls back to the
// full SHA — so this hash optimizes for speed, not distribution-theoretic
// guarantees.  It runs on every chunk, hit or miss, so it must cost about
// what reading the bytes costs.
//
// Definition (step(h, w) = (h ^ w) * FNV-64 prime, little-endian words,
// h and every lane start at the FNV-64 offset basis):
//   1. each full 64-byte stripe feeds its word i into lane i (8 lanes);
//   2. if at least one stripe was hashed, the lanes fold into h in lane
//      order with the same step;
//   3. the tail (< 64 bytes) mixes into h word by word, the last partial
//      word zero-padded;
//   4. a splitmix64 finalizer over h ^ length, so short tails still
//      spread over the index shards.
// Inputs shorter than 64 bytes are plain word-serial FNV.  The 8 lanes
// are independent multiply chains, which is what makes the hash run at
// memory speed instead of at one multiply latency per word.
//
// Contract: the value is host-side only.  It picks candidates for byte
// verification and shards the in-memory index; nothing persists it and no
// simulated outcome depends on it (the fast-path on/off test shows every
// determinism digest is identical).
//
// Streaming: WeakHasher::update() may be fed arbitrary spans; digest() is
// defined over the byte stream only, never over the split points — the
// incremental-vs-oneshot equivalence test pins that down.

#include <cstdint>
#include <span>

namespace gdedup {

class WeakHasher {
 public:
  void update(std::span<const uint8_t> data);
  // Final value over all bytes fed so far; does not consume (more
  // update() calls continue the same stream).
  uint64_t digest() const;
  void reset();

  uint64_t bytes_consumed() const { return total_len_; }

  static uint64_t oneshot(std::span<const uint8_t> data);

  static constexpr size_t kLanes = 8;
  static constexpr size_t kStripe = kLanes * 8;

 private:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;

  uint64_t lanes_[kLanes] = {kOffsetBasis, kOffsetBasis, kOffsetBasis,
                             kOffsetBasis, kOffsetBasis, kOffsetBasis,
                             kOffsetBasis, kOffsetBasis};
  uint64_t total_len_ = 0;
  uint8_t tail_[kStripe] = {};
  size_t tail_len_ = 0;
};

// Convenience alias for call sites that hold a raw pointer.
uint64_t weak_hash64(const void* data, size_t len);

}  // namespace gdedup
