#pragma once

// Shared immutable object name.
//
// Every dedup step is an ordinary object op addressed by name, and a chunk
// object's name is its 64-character fingerprint, so one client op carries
// the same few names through many messages, queues and index probes.  An
// ObjectName holds its bytes and both of their hashes in one shared,
// immutable allocation: a copy is one atomic refcount bump (names cross
// exec-pool workers and parallel shard windows, as Buffers do), and the
// hashes are computed once, when the name is built.
//
// - hash() is std::hash<std::string_view> of the bytes, the value
//   std::hash<std::string> gives the same string, so every unordered
//   container keyed by names keeps the bucket order it had with strings.
// - fnv() is the 64-bit FNV-1a of the bytes (placement: OsdMap::pg_of).
//
// Ordering is std::string's byte order.  Equality checks for shared
// storage first, then the hash, then the bytes.  A name converts to
// std::string_view and to const std::string&, so code that only reads a
// name takes it as it took a string.  Building a name is the one cost:
// build it once (BlockDevice::object_for, a flush's fingerprint) and copy
// it after that.

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace gdedup {

class ObjectName {
 public:
  ObjectName() noexcept = default;
  ObjectName(std::string s);  // NOLINT: names are built from strings
  ObjectName(std::string_view s) : ObjectName(std::string(s)) {}  // NOLINT
  ObjectName(const char* s) : ObjectName(std::string(s)) {}  // NOLINT

  ObjectName(const ObjectName& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  ObjectName(ObjectName&& o) noexcept : rep_(o.rep_) { o.rep_ = nullptr; }
  ObjectName& operator=(const ObjectName& o) noexcept {
    ObjectName(o).swap(*this);
    return *this;
  }
  ObjectName& operator=(ObjectName&& o) noexcept {
    ObjectName(std::move(o)).swap(*this);
    return *this;
  }
  ~ObjectName() { release(); }

  void swap(ObjectName& o) noexcept { std::swap(rep_, o.rep_); }

  const std::string& str() const noexcept {
    return rep_ != nullptr ? rep_->s : empty_rep().s;
  }
  operator const std::string&() const noexcept { return str(); }  // NOLINT
  operator std::string_view() const noexcept { return str(); }    // NOLINT

  const char* data() const noexcept { return str().data(); }
  const char* c_str() const noexcept { return str().c_str(); }
  size_t size() const noexcept { return str().size(); }
  bool empty() const noexcept { return rep_ == nullptr || rep_->s.empty(); }

  size_t hash() const noexcept {
    return rep_ != nullptr ? rep_->hash : empty_rep().hash;
  }
  uint64_t fnv() const noexcept {
    return rep_ != nullptr ? rep_->fnv : empty_rep().fnv;
  }

  // True if both names are copies of one allocation (test hook).
  bool shares_storage_with(const ObjectName& o) const noexcept {
    return rep_ != nullptr && rep_ == o.rep_;
  }

  friend bool operator==(const ObjectName& a, const ObjectName& b) noexcept {
    if (a.rep_ == b.rep_) return true;
    return a.hash() == b.hash() && a.str() == b.str();
  }
  // Exact overloads, so comparing with a string or a literal neither
  // builds a name nor is ambiguous.
  friend bool operator==(const ObjectName& a, std::string_view b) noexcept {
    return std::string_view(a.str()) == b;
  }
  friend bool operator==(const ObjectName& a, const std::string& b) noexcept {
    return a.str() == b;
  }
  friend bool operator==(const ObjectName& a, const char* b) noexcept {
    return a.str() == b;
  }
  friend std::strong_ordering operator<=>(const ObjectName& a,
                                          const ObjectName& b) noexcept {
    if (a.rep_ == b.rep_) return std::strong_ordering::equal;
    return a.str().compare(b.str()) <=> 0;
  }
  friend std::strong_ordering operator<=>(const ObjectName& a,
                                          std::string_view b) noexcept {
    return std::string_view(a.str()).compare(b) <=> 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const ObjectName& n);

  friend std::string operator+(const ObjectName& a, std::string_view b) {
    std::string s;
    s.reserve(a.size() + b.size());
    s.append(a.str()).append(b);
    return s;
  }
  friend std::string operator+(std::string_view a, const ObjectName& b) {
    std::string s;
    s.reserve(a.size() + b.size());
    s.append(a).append(b.str());
    return s;
  }

 private:
  struct Rep {
    std::atomic<uint32_t> refs{1};
    size_t hash = 0;
    uint64_t fnv = 0;
    std::string s;
  };
  static const Rep& empty_rep() noexcept;
  void release() noexcept {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  Rep* rep_ = nullptr;
};

}  // namespace gdedup

template <>
struct std::hash<gdedup::ObjectName> {
  size_t operator()(const gdedup::ObjectName& n) const noexcept {
    return n.hash();
  }
};
