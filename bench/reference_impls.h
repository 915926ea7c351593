#pragma once

// Frozen copies of the seed (pre-fast-path) content-pipeline
// implementations.  The pipeline bench hashes with both the live and these
// reference implementations so the reported speedups are measured against a
// fixed baseline inside one binary, not against numbers remembered from an
// older commit.  Do not optimize these.

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/buffer.h"

namespace gdedup::bench::ref {

inline uint32_t rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
inline uint32_t rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

// ------------------------------------------------------------------ SHA-1

class Sha1 {
 public:
  using Digest = std::array<uint8_t, 20>;

  Sha1() { reset(); }

  void reset() {
    state_[0] = 0x67452301;
    state_[1] = 0xEFCDAB89;
    state_[2] = 0x98BADCFE;
    state_[3] = 0x10325476;
    state_[4] = 0xC3D2E1F0;
    total_len_ = 0;
    buf_len_ = 0;
  }

  void update(std::span<const uint8_t> data) {
    total_len_ += data.size();
    const uint8_t* p = data.data();
    size_t n = data.size();
    if (buf_len_ > 0) {
      const size_t take = std::min(n, sizeof(buf_) - buf_len_);
      std::memcpy(buf_ + buf_len_, p, take);
      buf_len_ += take;
      p += take;
      n -= take;
      if (buf_len_ == sizeof(buf_)) {
        process_block(buf_);
        buf_len_ = 0;
      }
    }
    while (n >= 64) {
      process_block(p);
      p += 64;
      n -= 64;
    }
    if (n > 0) {
      std::memcpy(buf_, p, n);
      buf_len_ = n;
    }
  }

  Digest finish() {
    const uint64_t bit_len = total_len_ * 8;
    const uint8_t pad = 0x80;
    update({&pad, 1});
    const uint8_t zero = 0;
    while (buf_len_ != 56) update({&zero, 1});
    uint8_t len_be[8];
    for (int i = 0; i < 8; i++) {
      len_be[i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
    }
    update({len_be, 8});

    Digest d;
    for (int i = 0; i < 5; i++) {
      d[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
      d[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
      d[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
      d[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return d;
  }

  static Digest of(std::span<const uint8_t> data) {
    Sha1 h;
    h.update(data);
    return h.finish();
  }

 private:
  void process_block(const uint8_t* block) {
    uint32_t w[80];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; i++) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
             e = state_[4];
    for (int i = 0; i < 80; i++) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
  }

  uint32_t state_[5];
  uint64_t total_len_;
  uint8_t buf_[64];
  size_t buf_len_;
};

// ---------------------------------------------------------------- SHA-256

class Sha256 {
 public:
  using Digest = std::array<uint8_t, 32>;

  Sha256() { reset(); }

  void reset() {
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
    total_len_ = 0;
    buf_len_ = 0;
  }

  void update(std::span<const uint8_t> data) {
    total_len_ += data.size();
    const uint8_t* p = data.data();
    size_t n = data.size();
    if (buf_len_ > 0) {
      const size_t take = std::min(n, sizeof(buf_) - buf_len_);
      std::memcpy(buf_ + buf_len_, p, take);
      buf_len_ += take;
      p += take;
      n -= take;
      if (buf_len_ == sizeof(buf_)) {
        process_block(buf_);
        buf_len_ = 0;
      }
    }
    while (n >= 64) {
      process_block(p);
      p += 64;
      n -= 64;
    }
    if (n > 0) {
      std::memcpy(buf_, p, n);
      buf_len_ = n;
    }
  }

  Digest finish() {
    const uint64_t bit_len = total_len_ * 8;
    const uint8_t pad = 0x80;
    update({&pad, 1});
    const uint8_t zero = 0;
    while (buf_len_ != 56) update({&zero, 1});
    uint8_t len_be[8];
    for (int i = 0; i < 8; i++) {
      len_be[i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
    }
    update({len_be, 8});

    Digest d;
    for (int i = 0; i < 8; i++) {
      d[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
      d[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
      d[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
      d[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return d;
  }

  static Digest of(std::span<const uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

 private:
  void process_block(const uint8_t* block) {
    static constexpr uint32_t kK[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; i++) {
      const uint32_t s0 =
          rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
             e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; i++) {
      const uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const uint32_t ch = (e & f) ^ ((~e) & g);
      const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  uint32_t state_[8];
  uint64_t total_len_;
  uint8_t buf_[64];
  size_t buf_len_;
};

// -------------------------------------------------- CRC32C (slicing-by-4)

inline uint32_t crc32c_slice4(std::span<const uint8_t> data,
                              uint32_t seed = 0) {
  struct Tables {
    uint32_t t[4][256];
    Tables() {
      constexpr uint32_t kPoly = 0x82f63b78;
      for (uint32_t i = 0; i < 256; i++) {
        uint32_t crc = i;
        for (int k = 0; k < 8; k++) {
          crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        }
        t[0][i] = crc;
      }
      for (uint32_t i = 0; i < 256; i++) {
        t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
        t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
        t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
      }
    }
  };
  static const Tables tb;
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xff] ^ tb.t[2][(crc >> 8) & 0xff] ^
          tb.t[1][(crc >> 16) & 0xff] ^ tb.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

// ------------------------------------------------------------- weak hash
//
// weak_hash_serial is the pre-lane weak hash (one FNV multiply chain over
// 8-byte words + splitmix64), kept as the speed baseline.  It equals the
// live hash only below 64 bytes.  weak_hash_lanes is the live hash's
// definition (hash/weak_hash.h) written out plainly, word by word with no
// buffering: the value the live hash must reproduce.

inline uint64_t weak_word(std::span<const uint8_t> d, size_t at) {
  uint64_t w = 0;  // little-endian, zero-padded past the end
  for (size_t b = 0; b < 8 && at + b < d.size(); b++) {
    w |= uint64_t{d[at + b]} << (8 * b);
  }
  return w;
}

inline uint64_t weak_step(uint64_t h, uint64_t w) {
  return (h ^ w) * 0x100000001b3ULL;
}

inline uint64_t weak_finalize(uint64_t h, uint64_t len) {
  h ^= len;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

constexpr uint64_t kWeakBasis = 0xcbf29ce484222325ULL;

inline uint64_t weak_hash_serial(std::span<const uint8_t> data) {
  uint64_t h = kWeakBasis;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = weak_step(h, w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint8_t w[8] = {};
    std::memcpy(w, p, n);
    uint64_t v;
    std::memcpy(&v, w, 8);
    h = weak_step(h, v);
  }
  return weak_finalize(h, data.size());
}

inline uint64_t weak_hash_lanes(std::span<const uint8_t> d) {
  const size_t stripes = d.size() / 64;
  uint64_t h = kWeakBasis;
  if (stripes > 0) {
    uint64_t lane[8];
    for (uint64_t& l : lane) l = kWeakBasis;
    for (size_t s = 0; s < stripes; s++) {
      for (size_t i = 0; i < 8; i++) {
        lane[i] = weak_step(lane[i], weak_word(d, s * 64 + i * 8));
      }
    }
    for (uint64_t l : lane) h = weak_step(h, l);
  }
  for (size_t at = stripes * 64; at < d.size(); at += 8) {
    h = weak_step(h, weak_word(d, at));
  }
  return weak_finalize(h, d.size());
}

// ------------------------------------------------- GF(256) multiply-add
//
// The seed's bulk kernel: one log/exp table lookup (and a zero branch)
// per byte, field 0x11d.

inline void gf256_mul_acc(uint8_t* dst, const uint8_t* src, size_t n,
                          uint8_t c) {
  struct Tables {
    uint8_t exp[512];
    int log[256];
    Tables() {
      uint16_t x = 1;
      for (int i = 0; i < 255; i++) {
        exp[i] = static_cast<uint8_t>(x);
        log[x] = i;
        x <<= 1;
        if (x & 0x100) x ^= 0x11d;
      }
      for (int i = 255; i < 512; i++) exp[i] = exp[i - 255];
      log[0] = -1;
    }
  };
  static const Tables t;
  if (c == 0) return;
  if (c == 1) {
    for (size_t i = 0; i < n; i++) dst[i] ^= src[i];
    return;
  }
  const int lc = t.log[c];
  for (size_t i = 0; i < n; i++) {
    if (src[i] != 0) dst[i] ^= t.exp[t.log[src[i]] + lc];
  }
}

// ------------------------------------- Rabin rolling hash + CDC chunking
//
// The seed rolled byte-at-a-time through an out-of-line roll() with a `%`
// ring index and a static-init-guarded table lookup per byte; noinline
// preserves the call cost now that the live roll() is inlined.

class RabinRolling {
 public:
  static constexpr size_t kWindow = 48;

  RabinRolling() { reset(); }

  void reset() {
    hash_ = 0;
    count_ = 0;
    pos_ = 0;
    window_.fill(0);
  }

  __attribute__((noinline)) uint64_t roll(uint8_t in) {
    hash_ = hash_ * kMul + in;
    if (count_ >= kWindow) {
      hash_ -= out_table()[window_[pos_]];
    } else {
      count_++;
    }
    window_[pos_] = in;
    pos_ = (pos_ + 1) % kWindow;
    return hash_;
  }

  uint64_t value() const { return hash_; }
  bool window_full() const { return count_ >= kWindow; }

 private:
  static constexpr uint64_t kMul = 0x9b97714def8a0d8dULL;

  static const std::array<uint64_t, 256>& out_table() {
    static const std::array<uint64_t, 256> table = [] {
      std::array<uint64_t, 256> t{};
      uint64_t mw = 1;
      for (size_t i = 0; i < kWindow; i++) mw *= kMul;
      for (uint64_t b = 0; b < 256; b++) t[b] = b * mw;
      return t;
    }();
    return table;
  }

  uint64_t hash_;
  size_t count_;
  size_t pos_;
  std::array<uint8_t, kWindow> window_;
};

// Seed CDC split, reproduced byte-for-byte including the Buffer slice per
// chunk (the fast path pays that cost too, so the reference must).
struct CdcChunk {
  uint64_t offset = 0;
  Buffer data;
};

inline std::vector<CdcChunk> cdc_split(const Buffer& object_data,
                                       uint32_t min_size, uint32_t avg_size,
                                       uint32_t max_size) {
  std::vector<CdcChunk> out;
  const uint64_t mask = avg_size - 1;
  const uint8_t* p = object_data.data();
  const size_t n = object_data.size();
  size_t start = 0;
  RabinRolling rh;
  size_t i = 0;
  while (i < n) {
    rh.roll(p[i]);
    const size_t len = i + 1 - start;
    const bool boundary =
        (len >= min_size && rh.window_full() && (rh.value() & mask) == mask) ||
        len >= max_size;
    if (boundary) {
      out.push_back({start, object_data.slice(start, len)});
      start = i + 1;
      rh.reset();
    }
    i++;
  }
  if (start < n) out.push_back({start, object_data.slice(start, n - start)});
  return out;
}

}  // namespace gdedup::bench::ref
