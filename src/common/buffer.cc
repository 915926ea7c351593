#include "common/buffer.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace gdedup {

uint64_t Buffer::next_generation() {
  // Global monotonic counter.  Exec-pool workers construct Buffers (EC
  // shards, decode outputs), so this must be thread-safe; relaxed order
  // suffices because only *uniqueness* matters — generations are compared
  // for equality in cache keys, never ordered or digested.  Starts at 1 so
  // gen 0 means "no storage yet".
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

std::shared_ptr<uint8_t[]> allocate(size_t n) {
  auto p = std::make_shared_for_overwrite<uint8_t[]>(n);
#ifdef __SANITIZE_ADDRESS__
  std::memset(p.get(), 0xA5, n);
#endif
  return p;
}

}  // namespace

Buffer Buffer::for_overwrite(size_t len) {
  Buffer b;
  b.store_ = allocate(len);
  b.cap_ = b.len_ = len;
  b.gen_ = next_generation();
  return b;
}

void Buffer::detach() {
  if (sole_owner()) return;
  auto fresh = allocate(len_);
  if (len_ > 0) std::memcpy(fresh.get(), data(), len_);
  store_ = std::move(fresh);
  cap_ = len_;
  off_ = 0;
}

uint8_t* Buffer::mutable_data() {
  detach();
  gen_ = next_generation();  // caller may write through the pointer
  return store_.get() + off_;
}

Buffer Buffer::slice(size_t off, size_t len) const {
  Buffer b;
  if (off >= len_) return b;
  b.store_ = store_;
  b.off_ = off_ + off;
  b.len_ = std::min(len, len_ - off);
  b.cap_ = off == 0 && b.len_ == len_ ? cap_ : 0;
  b.gen_ = gen_;  // same bytes until someone detaches
  return b;
}

Buffer Buffer::concat(const Buffer& a, const Buffer& b) {
  Buffer out = for_overwrite(a.size() + b.size());
  uint8_t* p = out.mutable_data();
  if (a.size() > 0) std::memcpy(p, a.data(), a.size());
  if (b.size() > 0) std::memcpy(p + a.size(), b.data(), b.size());
  return out;
}

void Buffer::write_at(size_t off, const Buffer& src) {
  const size_t need = off + src.size();
  if (need > len_) resize(need);
  if (src.size() > 0) {
    std::memcpy(mutable_data() + off, src.data(), src.size());
  }
}

void Buffer::resize(size_t len) {
  if (len == len_) return;
  if (!sole_owner() || len > cap_) {
    // Grow geometrically (as std::vector does) so append loops stay linear.
    const size_t cap = len > len_ ? std::max(len, 2 * len_) : len;
    auto fresh = allocate(cap);
    const size_t keep = std::min(len, len_);
    if (keep > 0) std::memcpy(fresh.get(), data(), keep);
    store_ = std::move(fresh);
    cap_ = cap;
    off_ = 0;
  }
  if (len > len_) std::memset(store_.get() + len_, 0, len - len_);
  len_ = len;
  gen_ = next_generation();
}

}  // namespace gdedup
