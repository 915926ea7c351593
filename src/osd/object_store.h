#pragma once

// Per-OSD object store.
//
// BlueStore-flavoured in-memory store: object data is an extent map (sparse
// by construction — dedup eviction punches holes where chunks moved to the
// chunk pool), plus xattrs and omap.  All mutations go through Transactions
// applied atomically; per-object versions advance once per transaction.
//
// Physical accounting is real: bytes-used sums live extents (after at-rest
// compression when the pool enables it) plus encoded xattr/omap sizes plus
// a fixed per-object base, mirroring how the paper computes its "actual
// deduplication ratio" (Table 2).

#include <cstdint>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/object_name.h"
#include "common/status.h"
#include "sim/scheduler.h"  // MaybeSharedLock / MaybeUniqueLock

namespace gdedup {

class ExecPool;  // sim/exec_pool.h — optional worker pool for stats scans

using PoolId = int;

// Matches the paper's note that a Ceph object carries >= 512 bytes of its
// own metadata regardless of size.
constexpr uint64_t kPerObjectBaseBytes = 512;

struct ObjectKey {
  PoolId pool = -1;
  ObjectName oid;

  bool operator<(const ObjectKey& o) const {
    if (pool != o.pool) return pool < o.pool;
    return oid < o.oid;
  }
  bool operator==(const ObjectKey& o) const {
    return pool == o.pool && oid == o.oid;
  }
};

// The one ObjectKey hash, shared by the store index and the refs cache.
// The name carries its hash, so hashing a key reads one word.
inline size_t object_key_hash(PoolId pool, const ObjectName& oid) {
  return oid.hash() * 0x9e3779b97f4a7c15ULL + static_cast<size_t>(pool);
}

// Deliberately not noexcept: libstdc++ keeps each node's hash code only
// for hashers that may throw, and with the cached codes a bucket walk
// compares stored words instead of following each node's name pointer.
// object_store.cc asserts this.
struct ObjectKeyHash {
  size_t operator()(const ObjectKey& k) const {
    return object_key_hash(k.pool, k.oid);
  }
};

// Sparse object data: non-overlapping extents keyed by offset.
class ExtentMap {
 public:
  // Overwrite [off, off+data.size()), splitting/trimming overlaps.
  void write(uint64_t off, Buffer data);

  // Read [off, off+len); holes read as zeros.  len past logical size is
  // clamped by the caller (the map itself has no size notion).
  Buffer read(uint64_t off, uint64_t len) const;

  // Drop all extent bytes in [off, off+len) (dedup eviction).
  void punch_hole(uint64_t off, uint64_t len);

  // Drop everything at or beyond `size`.
  void truncate(uint64_t size);

  // True if every byte of [off, off+len) is backed by an extent.
  bool fully_present(uint64_t off, uint64_t len) const;

  uint64_t stored_bytes() const;
  uint64_t end_offset() const;  // highest extent end, 0 if empty
  bool empty() const { return extents_.empty(); }
  size_t extent_count() const { return extents_.size(); }

  const std::map<uint64_t, Buffer>& extents() const { return extents_; }

 private:
  std::map<uint64_t, Buffer> extents_;
};

struct ObjectState {
  ExtentMap data;
  uint64_t logical_size = 0;  // max write/truncate high-water mark
  std::map<std::string, Buffer> xattrs;
  std::map<std::string, Buffer> omap;
  uint64_t version = 0;
};

class Transaction {
 public:
  enum class OpType {
    kCreate,
    kWrite,
    kWriteFull,
    kTruncate,
    kPunchHole,
    kRemove,
    kSetXattr,
    kRmXattr,
    kOmapSet,
    kOmapRm,
  };

  struct Op {
    OpType type;
    uint32_t key;  // index into the transaction's objects: see key()
    uint64_t off = 0;
    uint64_t len = 0;
    Buffer data;
    std::string name;
  };

  void create(const ObjectKey& k);
  void write(const ObjectKey& k, uint64_t off, Buffer data);
  void write_full(const ObjectKey& k, Buffer data);
  void truncate(const ObjectKey& k, uint64_t size);
  void punch_hole(const ObjectKey& k, uint64_t off, uint64_t len);
  void remove(const ObjectKey& k);
  void setxattr(const ObjectKey& k, std::string name, Buffer value);
  void rmxattr(const ObjectKey& k, std::string name);
  void omap_set(const ObjectKey& k, std::string key, Buffer value);
  void omap_rm(const ObjectKey& k, std::string key);

  bool empty() const { return ops_.empty(); }
  const std::vector<Op>& ops() const { return ops_; }
  // The object `op` touches.  Each distinct object is stored once per
  // transaction, however many ops name it.
  const ObjectKey& key(const Op& op) const {
    return op.key == 0 ? key0_ : more_keys_[op.key - 1];
  }
  size_t key_count() const { return ops_.empty() ? 0 : 1 + more_keys_.size(); }

  // Payload bytes — what the journal write and the wire transfer cost.
  uint64_t byte_size() const;

 private:
  void add(OpType type, const ObjectKey& k, uint64_t off, uint64_t len,
           Buffer data, std::string name);

  std::vector<Op> ops_;
  // Most transactions touch one object: it is stored inline.
  ObjectKey key0_;
  std::vector<ObjectKey> more_keys_;
};

class ObjectStore {
 public:
  struct Stats {
    uint64_t objects = 0;
    uint64_t logical_bytes = 0;    // sum of logical sizes
    uint64_t stored_data_bytes = 0;  // extent bytes (post-compression)
    uint64_t xattr_bytes = 0;
    uint64_t omap_bytes = 0;
    // stored_data + xattr + omap + objects * kPerObjectBaseBytes
    uint64_t physical_bytes = 0;
  };

  explicit ObjectStore(bool compress_at_rest = false)
      : compress_at_rest_(compress_at_rest) {
    // Most probes miss (a chunk create asks every peer store), and a miss
    // in a non-empty bucket walks nodes whose cached hash codes sit past
    // the large ObjectState, a cache miss each.  Sparse buckets end most
    // misses at the bucket array, for 24 more bytes of buckets per object.
    objects_.max_load_factor(0.25f);
  }

  // Optional worker pool for the compression-at-rest stats scan (the
  // kCompress kernel).  The scan walks every stored byte, so it dominates
  // stats() on compressed pools; the total is an in-order sum of pure
  // per-batch sums, identical at any thread count.
  void set_exec_pool(ExecPool* pool) { exec_pool_ = pool; }

  // Apply atomically: validates first, then mutates; a failed validation
  // leaves the store untouched.
  Status apply(const Transaction& txn);

  bool exists(const ObjectKey& k) const {
    MaybeSharedLock g(mu_);
    return objects_.contains(k);
  }
  Result<uint64_t> size(const ObjectKey& k) const;
  Result<uint64_t> version(const ObjectKey& k) const;

  // len == 0 means "to logical end".  Holes read as zeros.
  Result<Buffer> read(const ObjectKey& k, uint64_t off, uint64_t len) const;

  Result<Buffer> getxattr(const ObjectKey& k, const std::string& name) const;
  Result<Buffer> omap_get(const ObjectKey& k, const std::string& key) const;

  // All omap entries whose key starts with `prefix`, in key order.
  std::vector<std::pair<std::string, Buffer>> omap_list(
      const ObjectKey& k, const std::string& prefix) const;

  // Returned pointers stay valid until that object is removed or
  // replaced; inserting other objects never moves one.
  const ObjectState* find(const ObjectKey& k) const;

  // Full-state snapshot / install, used by recovery push/pull.
  Result<ObjectState> snapshot(const ObjectKey& k) const;
  void install(const ObjectKey& k, ObjectState state);
  Status remove_object(const ObjectKey& k);

  // Keys in (pool, oid) order, whatever the index order: recovery,
  // invariant walks, restart rescans and the fault campaign depend on it.
  std::vector<ObjectKey> list(PoolId pool) const;
  std::vector<ObjectKey> list_all() const;

  Stats stats() const;
  Stats stats(PoolId pool) const;

  bool compress_at_rest() const { return compress_at_rest_; }

  // Apply a transaction's ops to a detached ObjectState image (used by the
  // EC write path, which rewrites whole objects).  `exists` tracks object
  // liveness across create/remove ops.
  static Status apply_to_state(const Transaction& txn, const ObjectKey& key,
                               ObjectState* state, bool* exists);

 private:
  uint64_t stored_bytes_of(const ObjectState& st) const;
  static uint64_t kv_bytes(const std::map<std::string, Buffer>& kv);
  Stats stats_impl(const PoolId* pool) const;

  bool compress_at_rest_;
  ExecPool* exec_pool_ = nullptr;
  // Guards the map *structure* against cross-shard lookups racing a local
  // insert/erase during parallel windows (the gated locks are no-ops in
  // serial execution).  Field-level read/write races on one object are
  // excluded by protocol order: all cross-node access to an object's
  // contents flows through its primary OSD (DESIGN.md §9).
  mutable std::shared_mutex mu_;
  // Hash-indexed: the data path looks objects up by 64-character
  // fingerprint OIDs, where a tree walk pays a string compare per level.
  std::unordered_map<ObjectKey, ObjectState, ObjectKeyHash> objects_;
};

}  // namespace gdedup

template <>
struct std::hash<gdedup::ObjectKey> : gdedup::ObjectKeyHash {};
