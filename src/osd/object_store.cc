#include "osd/object_store.h"

#include <algorithm>
#include <cassert>

#include "compress/lz.h"
#include "sim/exec_pool.h"

namespace gdedup {

// ---------------------------------------------------------------- ExtentMap

void ExtentMap::write(uint64_t off, Buffer data) {
  if (data.empty()) return;
  const uint64_t end = off + data.size();
  punch_hole(off, data.size());
  extents_[off] = std::move(data);
  (void)end;
}

void ExtentMap::punch_hole(uint64_t off, uint64_t len) {
  if (len == 0) return;
  const uint64_t end = off + len;

  // Find the first extent that could overlap: the one before `off` may
  // straddle it.
  auto it = extents_.lower_bound(off);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const uint64_t pend = prev->first + prev->second.size();
    if (pend > off) {
      // prev straddles `off`; keep its head, and maybe its tail.
      Buffer whole = std::move(prev->second);
      const uint64_t pstart = prev->first;
      extents_.erase(prev);
      extents_[pstart] = whole.slice(0, off - pstart);
      if (pend > end) {
        extents_[end] = whole.slice(end - pstart, pend - end);
      }
    }
  }
  it = extents_.lower_bound(off);
  while (it != extents_.end() && it->first < end) {
    const uint64_t estart = it->first;
    const uint64_t eend = estart + it->second.size();
    if (eend <= end) {
      it = extents_.erase(it);
    } else {
      // Tail survives.
      Buffer tail = it->second.slice(end - estart, eend - end);
      extents_.erase(it);
      extents_[end] = std::move(tail);
      break;
    }
  }
}

Buffer ExtentMap::read(uint64_t off, uint64_t len) const {
  if (len == 0) return Buffer(0);
  const uint64_t end = off + len;

  auto it = extents_.lower_bound(off);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > off) it = prev;
  }
  // Zero-copy fast path: one extent covers the whole range.  Returning a
  // slice preserves the stored Buffer's storage identity and generation, so
  // a flush re-reading unchanged data can hit the fingerprint cache (the
  // slice is COW — any writer detaches before mutating).
  if (it != extents_.end() && it->first <= off &&
      it->first + it->second.size() >= end) {
    return it->second.slice(off - it->first, len);
  }

  Buffer out(len);  // zero-filled
  uint8_t* dst = out.mutable_data();
  for (; it != extents_.end() && it->first < end; ++it) {
    const uint64_t estart = it->first;
    const uint64_t eend = estart + it->second.size();
    const uint64_t cs = std::max(off, estart);
    const uint64_t ce = std::min(end, eend);
    if (cs >= ce) continue;
    std::memcpy(dst + (cs - off), it->second.data() + (cs - estart), ce - cs);
  }
  return out;
}

void ExtentMap::truncate(uint64_t size) {
  punch_hole(size, UINT64_MAX - size);
}

bool ExtentMap::fully_present(uint64_t off, uint64_t len) const {
  if (len == 0) return true;
  uint64_t cursor = off;
  const uint64_t end = off + len;

  auto it = extents_.lower_bound(off);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > off) it = prev;
  }
  for (; it != extents_.end() && cursor < end; ++it) {
    if (it->first > cursor) return false;  // gap
    cursor = std::max(cursor, it->first + it->second.size());
  }
  return cursor >= end;
}

uint64_t ExtentMap::stored_bytes() const {
  uint64_t n = 0;
  for (const auto& [off, buf] : extents_) n += buf.size();
  return n;
}

uint64_t ExtentMap::end_offset() const {
  if (extents_.empty()) return 0;
  auto it = std::prev(extents_.end());
  return it->first + it->second.size();
}

// -------------------------------------------------------------- Transaction

void Transaction::create(const ObjectKey& k) {
  ops_.push_back({OpType::kCreate, k, 0, 0, {}, {}});
}
void Transaction::write(const ObjectKey& k, uint64_t off, Buffer data) {
  ops_.push_back({OpType::kWrite, k, off, data.size(), std::move(data), {}});
}
void Transaction::write_full(const ObjectKey& k, Buffer data) {
  ops_.push_back({OpType::kWriteFull, k, 0, data.size(), std::move(data), {}});
}
void Transaction::truncate(const ObjectKey& k, uint64_t size) {
  ops_.push_back({OpType::kTruncate, k, size, 0, {}, {}});
}
void Transaction::punch_hole(const ObjectKey& k, uint64_t off, uint64_t len) {
  ops_.push_back({OpType::kPunchHole, k, off, len, {}, {}});
}
void Transaction::remove(const ObjectKey& k) {
  ops_.push_back({OpType::kRemove, k, 0, 0, {}, {}});
}
void Transaction::setxattr(const ObjectKey& k, std::string name, Buffer value) {
  ops_.push_back({OpType::kSetXattr, k, 0, 0, std::move(value), std::move(name)});
}
void Transaction::rmxattr(const ObjectKey& k, std::string name) {
  ops_.push_back({OpType::kRmXattr, k, 0, 0, {}, std::move(name)});
}
void Transaction::omap_set(const ObjectKey& k, std::string key, Buffer value) {
  ops_.push_back({OpType::kOmapSet, k, 0, 0, std::move(value), std::move(key)});
}
void Transaction::omap_rm(const ObjectKey& k, std::string key) {
  ops_.push_back({OpType::kOmapRm, k, 0, 0, {}, std::move(key)});
}

uint64_t Transaction::byte_size() const {
  uint64_t n = 0;
  for (const auto& op : ops_) {
    n += 32;  // op header
    n += op.data.size();
    n += op.name.size();
    n += op.key.oid.size();
  }
  return n;
}

void Transaction::append(const Transaction& other) {
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

// -------------------------------------------------------------- ObjectStore

Status ObjectStore::apply_to_state(const Transaction& txn, const ObjectKey& key,
                                   ObjectState* state, bool* exists) {
  for (const auto& op : txn.ops()) {
    if (!(op.key == key)) continue;
    switch (op.type) {
      case Transaction::OpType::kCreate:
        *exists = true;
        break;
      case Transaction::OpType::kWrite:
        *exists = true;
        state->data.write(op.off, op.data);
        state->logical_size = std::max(state->logical_size, op.off + op.len);
        break;
      case Transaction::OpType::kWriteFull:
        *exists = true;
        state->data.truncate(0);
        state->data.write(0, op.data);
        state->logical_size = op.len;
        break;
      case Transaction::OpType::kTruncate:
        if (!*exists) return Status::not_found("truncate: " + key.oid);
        state->data.truncate(op.off);
        state->logical_size = op.off;
        break;
      case Transaction::OpType::kPunchHole:
        if (!*exists) return Status::not_found("punch_hole: " + key.oid);
        state->data.punch_hole(op.off, op.len);
        break;
      case Transaction::OpType::kRemove:
        if (!*exists) return Status::not_found("remove: " + key.oid);
        *state = ObjectState{};
        *exists = false;
        break;
      case Transaction::OpType::kSetXattr:
        *exists = true;
        state->xattrs[op.name] = op.data;
        break;
      case Transaction::OpType::kRmXattr:
        if (!*exists) return Status::not_found("rmxattr: " + key.oid);
        state->xattrs.erase(op.name);
        break;
      case Transaction::OpType::kOmapSet:
        *exists = true;
        state->omap[op.name] = op.data;
        break;
      case Transaction::OpType::kOmapRm:
        if (!*exists) return Status::not_found("omap_rm: " + key.oid);
        state->omap.erase(op.name);
        break;
    }
  }
  if (*exists) state->version++;
  return Status::ok();
}

#ifdef __GLIBCXX__
static_assert(std::__cache_default<ObjectKey, ObjectKeyHash>::value,
              "the object index must cache hash codes (see ObjectKeyHash)");
#endif

Status ObjectStore::apply(const Transaction& txn) {
  MaybeUniqueLock g(mu_);
  // Per-object state as the transaction runs: liveness, and the stored
  // object once found or created, so each object costs one index lookup
  // per transaction.  A transaction touches one to three objects, so a
  // linear scan of a flat list beats a map; the list is reused, so
  // steady-state applies allocate nothing here.
  struct Touched {
    const ObjectKey* key;
    bool exists;
    ObjectState* st;  // null while absent (or removed by an earlier op)
  };
  thread_local std::vector<Touched> touched;
  touched.clear();
  auto slot = [](const ObjectKey& k) -> Touched* {
    for (Touched& t : touched) {
      if (*t.key == k) return &t;
    }
    return nullptr;
  };

  // Validation pass: the only failable ops reference missing objects.
  // Track objects the transaction itself creates so create-then-write in
  // one transaction validates.
  for (const auto& op : txn.ops()) {
    Touched* t = slot(op.key);
    if (t == nullptr) {
      auto it = objects_.find(op.key);
      ObjectState* st = it == objects_.end() ? nullptr : &it->second;
      t = &touched.emplace_back(Touched{&op.key, st != nullptr, st});
    }
    switch (op.type) {
      case Transaction::OpType::kCreate:
      case Transaction::OpType::kWrite:
      case Transaction::OpType::kWriteFull:
      case Transaction::OpType::kSetXattr:
      case Transaction::OpType::kOmapSet:
        t->exists = true;
        break;
      case Transaction::OpType::kTruncate:
      case Transaction::OpType::kPunchHole:
      case Transaction::OpType::kRmXattr:
      case Transaction::OpType::kOmapRm:
        if (!t->exists) {
          return Status::not_found("txn references missing " + op.key.oid +
                                   " (op " +
                                   std::to_string(static_cast<int>(op.type)) +
                                   ")");
        }
        break;
      case Transaction::OpType::kRemove:
        if (!t->exists) {
          return Status::not_found("txn removes missing " + op.key.oid);
        }
        t->exists = false;
        break;
    }
  }

  // Mutation pass (cannot fail).  Validation already simulated it, so
  // each entry's `exists` holds the object's final liveness.
  for (const auto& op : txn.ops()) {
    Touched& t = *slot(op.key);
    if (op.type == Transaction::OpType::kRemove) {
      objects_.erase(op.key);
      t.st = nullptr;
      continue;
    }
    if (t.st == nullptr) t.st = &objects_[op.key];
    ObjectState& st = *t.st;
    switch (op.type) {
      case Transaction::OpType::kCreate:
      case Transaction::OpType::kRemove:
        break;
      case Transaction::OpType::kWrite:
        st.data.write(op.off, op.data);
        st.logical_size = std::max(st.logical_size, op.off + op.len);
        break;
      case Transaction::OpType::kWriteFull:
        st.data.truncate(0);
        st.data.write(0, op.data);
        st.logical_size = op.len;
        break;
      case Transaction::OpType::kTruncate:
        st.data.truncate(op.off);
        st.logical_size = op.off;
        break;
      case Transaction::OpType::kPunchHole:
        st.data.punch_hole(op.off, op.len);
        break;
      case Transaction::OpType::kSetXattr:
        st.xattrs[op.name] = op.data;
        break;
      case Transaction::OpType::kRmXattr:
        st.xattrs.erase(op.name);
        break;
      case Transaction::OpType::kOmapSet:
        st.omap[op.name] = op.data;
        break;
      case Transaction::OpType::kOmapRm:
        st.omap.erase(op.name);
        break;
    }
  }
  // Bump versions once per touched live object.
  for (const Touched& t : touched) {
    if (t.exists) t.st->version++;
  }
  return Status::ok();
}

Result<uint64_t> ObjectStore::size(const ObjectKey& k) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  return it->second.logical_size;
}

Result<uint64_t> ObjectStore::version(const ObjectKey& k) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  return it->second.version;
}

Result<Buffer> ObjectStore::read(const ObjectKey& k, uint64_t off,
                                 uint64_t len) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  const ObjectState& st = it->second;
  if (off >= st.logical_size) return Buffer();
  const uint64_t avail = st.logical_size - off;
  const uint64_t n = (len == 0) ? avail : std::min(len, avail);
  return st.data.read(off, n);
}

Result<Buffer> ObjectStore::getxattr(const ObjectKey& k,
                                     const std::string& name) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  auto xit = it->second.xattrs.find(name);
  if (xit == it->second.xattrs.end()) {
    return Status::not_found("xattr " + name);
  }
  return xit->second;
}

Result<Buffer> ObjectStore::omap_get(const ObjectKey& k,
                                     const std::string& key) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  auto oit = it->second.omap.find(key);
  if (oit == it->second.omap.end()) {
    return Status::not_found("omap " + key);
  }
  return oit->second;
}

std::vector<std::pair<std::string, Buffer>> ObjectStore::omap_list(
    const ObjectKey& k, const std::string& prefix) const {
  MaybeSharedLock g(mu_);
  std::vector<std::pair<std::string, Buffer>> out;
  auto it = objects_.find(k);
  if (it == objects_.end()) return out;
  for (auto oit = it->second.omap.lower_bound(prefix);
       oit != it->second.omap.end(); ++oit) {
    if (oit->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(oit->first, oit->second);
  }
  return out;
}

const ObjectState* ObjectStore::find(const ObjectKey& k) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  return it == objects_.end() ? nullptr : &it->second;
}

const ObjectState* ObjectStore::find_prehashed(const PrehashedKey& k) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  return it == objects_.end() ? nullptr : &it->second;
}

Result<ObjectState> ObjectStore::snapshot(const ObjectKey& k) const {
  MaybeSharedLock g(mu_);
  auto it = objects_.find(k);
  if (it == objects_.end()) return Status::not_found(k.oid);
  return it->second;
}

void ObjectStore::install(const ObjectKey& k, ObjectState state) {
  MaybeUniqueLock g(mu_);
  objects_[k] = std::move(state);
}

Status ObjectStore::remove_object(const ObjectKey& k) {
  MaybeUniqueLock g(mu_);
  return objects_.erase(k) > 0 ? Status::ok() : Status::not_found(k.oid);
}

std::vector<ObjectKey> ObjectStore::list(PoolId pool) const {
  MaybeSharedLock g(mu_);
  std::vector<ObjectKey> out;
  for (const auto& [key, st] : objects_) {
    if (key.pool == pool) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectKey> ObjectStore::list_all() const {
  MaybeSharedLock g(mu_);
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [key, st] : objects_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t ObjectStore::stored_bytes_of(const ObjectState& st) const {
  if (!compress_at_rest_) return st.data.stored_bytes();
  uint64_t n = 0;
  for (const auto& [off, buf] : st.data.extents()) {
    n += LzCodec::compressed_size(buf);
  }
  return n;
}

uint64_t ObjectStore::kv_bytes(const std::map<std::string, Buffer>& kv) {
  uint64_t n = 0;
  for (const auto& [k, v] : kv) n += k.size() + v.size();
  return n;
}

ObjectStore::Stats ObjectStore::stats() const { return stats_impl(nullptr); }

ObjectStore::Stats ObjectStore::stats(PoolId pool) const {
  return stats_impl(&pool);
}

ObjectStore::Stats ObjectStore::stats_impl(const PoolId* pool) const {
  MaybeSharedLock g(mu_);
  Stats s;
  // Compression-at-rest scans walk every stored byte, which dominates
  // stats() on compressed pools.  With workers available, batch objects
  // into kCompress jobs and join them in submission order: the total is a
  // sum of pure per-batch sums, so the result is identical at any thread
  // count.  The store is not mutated between submit and join (both happen
  // inside this call, on the event-loop thread), so the jobs can read the
  // ObjectStates in place.
  const bool offload =
      compress_at_rest_ && exec_pool_ && exec_pool_->parallel();
  constexpr size_t kScanBatch = 32;
  std::vector<const ObjectState*> batch;
  std::vector<KernelFuture<uint64_t>> scans;
  auto flush_batch = [&] {
    if (batch.empty()) return;
    scans.push_back(kernel_async<uint64_t>(
        exec_pool_, Kernel::kCompress,
        [batch = std::move(batch)] {
          uint64_t n = 0;
          for (const ObjectState* st : batch) {
            for (const auto& [off, buf] : st->data.extents()) {
              n += LzCodec::compressed_size(buf);
            }
          }
          return n;
        }));
    batch.clear();
  };
  for (const auto& [key, st] : objects_) {
    if (pool && key.pool != *pool) continue;
    s.objects++;
    s.logical_bytes += st.logical_size;
    if (offload) {
      batch.push_back(&st);
      if (batch.size() >= kScanBatch) flush_batch();
    } else {
      s.stored_data_bytes += stored_bytes_of(st);
    }
    s.xattr_bytes += kv_bytes(st.xattrs);
    s.omap_bytes += kv_bytes(st.omap);
  }
  flush_batch();
  for (auto& scan : scans) s.stored_data_bytes += scan.take();
  s.physical_bytes = s.stored_data_bytes + s.xattr_bytes + s.omap_bytes +
                     s.objects * kPerObjectBaseBytes;
  return s;
}

}  // namespace gdedup
