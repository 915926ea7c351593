#pragma once

// Decoded chunk-reference cache — the chunk-map half of the metadata fast
// path (the fingerprint half lives in dedup/fingerprint_index.h).
//
// Every chunk put/deref reads the chunk's refs xattr and decodes the full
// reference list just to answer "is this ref recorded?" — O(refs bytes)
// of decode per operation on hot chunks that accumulate hundreds of
// references.  This cache keeps the decoded list keyed by chunk object,
// validated against the *identity* of the currently stored xattr buffer:
// Buffers are copy-on-write and carry a globally unique, never-reused
// mutation generation (see Buffer::generation()), so (data pointer, size,
// generation) identifies the encoded bytes exactly.  If the store still
// holds the very buffer we decoded (or encoded ourselves on the previous
// update), the cached vector is byte-for-byte what a fresh decode would
// produce; any recovery, wipe, or peer rewrite installs a different
// buffer and the entry silently misses.  No invalidation protocol needed,
// and no ABA hazard from recycled allocations.
//
// The put path edits the cached list in place: it appends the new refs,
// appends their records to the stored bytes (append_refs) and rebinds the
// entry to that new buffer, so a hot chunk's update never copies or
// re-encodes the whole list.  If the write never lands, the store keeps
// the old buffer and the next lookup misses and decodes.
//
// The cache changes host-side work only: the xattr read itself (and its
// accounted metadata bytes) happens in both modes, a hit merely skips the
// decode.  Per-OSD and thread-confined like the rest of OSD state.

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/lru.h"
#include "osd/messages.h"
#include "osd/object_store.h"

namespace gdedup {

class RefsCache {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit RefsCache(size_t capacity = kDefaultCapacity) : lru_(capacity) {}

  // Returns the cached decoded refs iff `raw` is the exact buffer the
  // entry was built against; stale entries are dropped eagerly.  The list
  // may be edited in place, provided the caller then rebinds the entry to
  // the bytes of the edited list (rebind) or erases it.
  std::vector<ChunkRef>* find(const ObjectKey& key, const Buffer& raw) {
    Entry* e = lru_.get(key);
    if (e == nullptr) return nullptr;
    // Generation 0 means "never went through next_generation()" — e.g. a
    // default-constructed Buffer — so it is NOT globally unique and two
    // distinct buffers can share the full (data, len, 0) identity.  An
    // entry bound to such a buffer could survive a delete+recreate of the
    // object; refuse to validate against it.
    if (e->id.gen == 0 || e->id != identity_of(raw)) {
      lru_.erase(key);
      return nullptr;
    }
    return &e->refs;
  }

  // Bind `refs` to the identity of encoded buffer `enc`; returns the
  // cached list, or nullptr (leaving `refs` untouched) when `enc` has no
  // unique identity.  Callers pass the buffer they are about to setxattr
  // (or just read): if the store retains it zero-copy, the next read
  // hits; if the store copies (or the txn never lands), the identity
  // check simply fails.
  std::vector<ChunkRef>* put(const ObjectKey& key, const Buffer& enc,
                             std::vector<ChunkRef>&& refs) {
    if (enc.storage_id() == nullptr || enc.generation() == 0) return nullptr;
    lru_.put(key, Entry{identity_of(enc), std::move(refs)});
    return &lru_.get(key)->refs;
  }

  // Re-point an existing entry, whose list was just edited in place, at
  // the encoding of the edited list (a generation-0 `enc` never validates).
  void rebind(const ObjectKey& key, const Buffer& enc) {
    if (Entry* e = lru_.get(key)) e->id = identity_of(enc);
  }

  void erase(const ObjectKey& key) { lru_.erase(key); }
  void clear() { lru_.clear(); }
  size_t size() const { return lru_.size(); }

 private:
  struct Identity {
    uintptr_t data = 0;
    size_t len = 0;
    uint64_t gen = 0;
    bool operator==(const Identity&) const = default;
  };
  struct Entry {
    Identity id;
    std::vector<ChunkRef> refs;
  };
  static Identity identity_of(const Buffer& b) {
    return {reinterpret_cast<uintptr_t>(b.data()), b.size(), b.generation()};
  }

  LruMap<ObjectKey, Entry> lru_;
};

}  // namespace gdedup
