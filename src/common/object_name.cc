#include "common/object_name.h"

#include <ostream>

namespace gdedup {

namespace {

// 64-bit FNV-1a with the standard offset basis: the value hash/fnv1a()
// gives the same bytes (src/hash sits above src/common, so it is spelled
// out here).
uint64_t fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ObjectName::ObjectName(std::string s) : rep_(new Rep) {
  rep_->hash = std::hash<std::string_view>{}(s);
  rep_->fnv = fnv1a64(s);
  rep_->s = std::move(s);
}

std::ostream& operator<<(std::ostream& os, const ObjectName& n) {
  return os << n.str();
}

const ObjectName::Rep& ObjectName::empty_rep() noexcept {
  static const Rep* const kEmpty = [] {
    auto* r = new Rep;
    r->hash = std::hash<std::string_view>{}(std::string_view());
    r->fnv = fnv1a64(std::string_view());
    return r;
  }();
  return *kEmpty;
}

}  // namespace gdedup
