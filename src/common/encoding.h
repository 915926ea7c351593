#pragma once

// Little-endian wire/xattr encoding.
//
// Dedup metadata (chunk maps, reference sets) is persisted inside object
// xattrs, so it needs a stable byte encoding that survives replication,
// erasure coding and recovery — this is that encoding.  Decoding is
// defensive: short or garbled input yields Status, never UB.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace gdedup {

class Encoder {
 public:
  void put_u8(uint8_t v) { bytes_.push_back(v); }
  void put_u16(uint16_t v) { put_raw(&v, 2); }
  void put_u32(uint32_t v) { put_raw(&v, 4); }
  void put_u64(uint64_t v) { put_raw(&v, 8); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s) {
    put_u32(static_cast<uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }
  void put_bytes(const Buffer& b) {
    put_u32(static_cast<uint32_t>(b.size()));
    put_raw(b.data(), b.size());
  }

  // ULEB128: 7 value bits per byte, high bit = continuation.  Small values
  // (offsets, lengths, counts) shrink to 1–3 bytes; the packed chunk-map
  // entry codec is built on this.
  void put_varint(uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(v));
  }

  void reserve(size_t n) { bytes_.reserve(n); }
  Buffer finish() const { return Buffer::copy_of(bytes_.data(), bytes_.size()); }
  // The bytes zero-padded, or truncated, to exactly `n`.
  Buffer finish_padded(size_t n) const {
    Buffer b = Buffer::for_overwrite(n);
    const size_t m = std::min(n, bytes_.size());
    std::memcpy(b.mutable_data(), bytes_.data(), m);
    std::memset(b.mutable_data() + m, 0, n - m);
    return b;
  }
  size_t size() const { return bytes_.size(); }

 private:
  void put_raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }
  std::vector<uint8_t> bytes_;
};

class Decoder {
 public:
  explicit Decoder(const Buffer& b) : buf_(b) {}

  Status get_u8(uint8_t* out) { return get_raw(out, 1); }
  Status get_u16(uint16_t* out) { return get_raw(out, 2); }
  Status get_u32(uint32_t* out) { return get_raw(out, 4); }
  Status get_u64(uint64_t* out) { return get_raw(out, 8); }
  Status get_bool(bool* out) {
    uint8_t v = 0;
    auto s = get_u8(&v);
    if (s.is_ok()) *out = (v != 0);
    return s;
  }
  Status get_string(std::string* out) {
    uint32_t n = 0;
    if (auto s = get_u32(&n); !s.is_ok()) return s;
    if (pos_ + n > buf_.size()) return Status::corruption("short string");
    out->assign(reinterpret_cast<const char*>(buf_.data()) + pos_, n);
    pos_ += n;
    return Status::ok();
  }
  Status get_bytes(Buffer* out) {
    uint32_t n = 0;
    if (auto s = get_u32(&n); !s.is_ok()) return s;
    if (pos_ + n > buf_.size()) return Status::corruption("short bytes");
    *out = buf_.slice(pos_, n);
    pos_ += n;
    return Status::ok();
  }

  // ULEB128 decode; caps at 10 bytes (ceil(64/7)) so garbage can't loop.
  Status get_varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= buf_.size()) return Status::corruption("short varint");
      const uint8_t b = buf_.data()[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *out = v;
        return Status::ok();
      }
    }
    return Status::corruption("varint overflow");
  }

  bool at_end() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  Status get_raw(void* out, size_t n) {
    if (pos_ + n > buf_.size()) return Status::corruption("short read");
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return Status::ok();
  }

  const Buffer& buf_;
  size_t pos_ = 0;
};

}  // namespace gdedup
