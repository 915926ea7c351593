#pragma once

// Copy-on-write byte buffer.
//
// Plays the role Ceph's bufferlist plays in the real system: object data,
// chunk payloads and message bodies are passed by value everywhere, but the
// underlying bytes are shared until someone mutates them.  Replicating an
// object to two OSDs therefore costs two refcount bumps, not two copies —
// which both matches the real system's zero-copy intent and keeps the
// simulated cluster's memory footprint proportional to *unique* data.
//
// Storage is one allocation (control block and bytes together, via
// make_shared_for_overwrite); a Buffer exposes the window [off_, off_+len_)
// of it.  Fresh storage is zero-filled by the sized
// constructor; for_overwrite() skips that for callers that write every
// byte before anyone reads it.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace gdedup {

class Buffer {
 public:
  Buffer() = default;

  explicit Buffer(size_t len, uint8_t fill = 0) : Buffer(for_overwrite(len)) {
    if (len > 0) std::memset(store_.get(), fill, len);
  }

  // Fresh storage of `len` bytes with unspecified contents: only for
  // callers that overwrite every byte before anything reads it.  (Under
  // AddressSanitizer the bytes are 0xA5, so a caller that misses some
  // shows wrong bytes to the tests of the sanitizer run.)
  static Buffer for_overwrite(size_t len);

  static Buffer copy_of(const void* data, size_t len) {
    Buffer b = for_overwrite(len);
    if (len > 0) std::memcpy(b.mutable_data(), data, len);
    return b;
  }
  static Buffer copy_of(std::string_view s) {
    return copy_of(s.data(), s.size());
  }
  static Buffer copy_of(std::span<const uint8_t> s) {
    return copy_of(s.data(), s.size());
  }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  const uint8_t* data() const {
    return store_ ? store_.get() + off_ : nullptr;
  }
  std::span<const uint8_t> span() const { return {data(), len_}; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data()), len_};
  }

  // Mutable access: detaches from any sharers (and from a parent slice).
  uint8_t* mutable_data();

  uint8_t operator[](size_t i) const { return data()[i]; }

  // Zero-copy sub-slice [off, off+len).  Clamped to bounds.
  Buffer slice(size_t off, size_t len) const;

  // Value concatenation (copies both sides into fresh storage).
  static Buffer concat(const Buffer& a, const Buffer& b);

  // Overwrite [off, off+src.size()) with src, growing if needed.
  void write_at(size_t off, const Buffer& src);

  // Grow (zero-filled) or shrink to `len`.  A sole owner resizes in place
  // within its allocation; growing past it reallocates geometrically, so
  // appends through write_at() stay linear.
  void resize(size_t len);

  bool content_equals(const Buffer& o) const {
    return len_ == o.len_ &&
           (len_ == 0 || std::memcmp(data(), o.data(), len_) == 0);
  }

  std::string to_string() const { return std::string(view()); }

  // True if the backing storage is shared with another Buffer (test hook
  // for the COW behaviour).
  bool shares_storage_with(const Buffer& o) const {
    return store_ && store_ == o.store_;
  }

  // True if any other Buffer currently references the same storage —
  // i.e. passing this by value was a refcount bump, not a byte copy.
  // Feeds the osd.bytes_zero_copied accounting.
  bool storage_shared() const { return store_ && store_.use_count() > 1; }

  // Content-identity for memoization (e.g. the fingerprint cache).
  //
  // generation() is bumped from a global monotonic counter on every event
  // that can change the bytes this Buffer exposes: fresh-storage
  // construction, mutable_data(), resize().  slice() inherits the parent's
  // generation (a slice's bytes are stable until someone detaches).  Two
  // Buffers with equal (data(), size(), generation()) are guaranteed to
  // hold identical bytes: generations are globally unique per mutation
  // event, so a recycled allocation at the same address can never collide
  // with a stale cache entry (ABA-safe).
  uint64_t generation() const { return gen_; }
  const void* storage_id() const { return store_.get(); }

 private:
  // Sole owner of a window that is its storage's whole in-use extent, so
  // writes and resizes may go in place.  A partial slice (cap_ == 0) is
  // not one even after its parent dies: its first write copies just its
  // window, which frees the parent's larger allocation.
  bool sole_owner() const { return cap_ > 0 && store_.use_count() == 1; }
  void detach();  // ensure sole ownership of exactly [off_, off_+len_)
  static uint64_t next_generation();

  std::shared_ptr<uint8_t[]> store_;
  // Allocation size of store_ if this window is the storage's whole
  // in-use extent (then off_ == 0), else 0.
  size_t cap_ = 0;
  size_t off_ = 0;
  size_t len_ = 0;
  uint64_t gen_ = 0;
};

}  // namespace gdedup
