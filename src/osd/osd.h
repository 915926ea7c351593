#pragma once

// Object Storage Daemon.
//
// One OSD owns one simulated SSD and per-pool object stores, and serves
// OsdOps delivered over the network.  It is the coordinator for objects
// whose acting set it leads: replicated writes fan out sub-writes to the
// peer replicas; erasure-coded writes encode and distribute shards; reads
// serve locally or gather shards.  The chunk-pool verbs (kChunkPutRef /
// kChunkDeref) implement content-addressed reference counting: because a
// chunk's OID is its fingerprint, "same OID already stored" *is* the
// duplicate-detection test (double hashing), so a put of existing content
// only appends a reference entry.
//
// A TierService (the dedup tier) may be installed per pool; client reads
// and writes to that pool are delegated to it, everything else (replication,
// EC, recovery, chunk verbs) is unchanged — the self-contained-object
// property the paper's design hinges on.

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "obs/perf_counters.h"
#include "osd/cluster_context.h"
#include "osd/messages.h"
#include "osd/object_store.h"
#include "osd/refs_cache.h"
#include "sim/disk.h"
#include "sim/metrics.h"

namespace gdedup {

class TierService {
 public:
  virtual ~TierService() = default;
  virtual void handle_read(const OsdOp& op, ReplyFn reply) = 0;
  virtual void handle_write(const OsdOp& op, ReplyFn reply) = 0;
  virtual void handle_remove(const OsdOp& op, ReplyFn reply) = 0;
  virtual void start() = 0;
  virtual void stop() = 0;
  virtual size_t dirty_backlog() const = 0;
  // True while the tier holds volatile state for `oid` (dirty entry,
  // in-flight flush, or an unapplied client write).  GC uses this to defer
  // reclaiming chunks an open flush window is about to reference.
  virtual bool object_busy(const std::string& oid) const {
    (void)oid;
    return false;
  }
  // The local copy of `oid` was trimmed as a stray (this OSD left the
  // object's acting set): drop any volatile per-object state so a stale
  // dirty flag cannot keep the engine busy with an object it no longer
  // owns.
  virtual void forget_object(const std::string& oid) { (void)oid; }
};

// Crash-injection points in the OSD's replication / recovery / chunk-verb
// paths (the campaign's counterparts to the dedup tier's FailurePoints).
// When the hook returns true the OSD crashes *at that point*: it goes down
// with drop-when-down semantics, its volatile op queues are lost, and the
// in-flight op is abandoned exactly as a kill -9 would abandon it.
enum class OsdFailurePoint {
  kBeforeReplicatedFanout,  // primary dies before any sub-write is sent
  kAfterLocalApply,         // local copy applied; peer acks never collected
  kBeforeSubWriteApply,     // replica dies before applying a sub-write
  kBeforeRecoveryPull,      // holder dies before serving a recovery pull
  kBeforeChunkRefWrite,     // chunk-pool OSD dies before a ref update
};
constexpr int kNumOsdFailurePoints = 5;
const char* osd_failure_point_name(OsdFailurePoint p);

using OsdFailureHook =
    std::function<bool(OsdFailurePoint, const ObjectKey& key)>;

// Perf-counter indices for one OSD (registry entity "osd.<id>").  The
// counters are the source of truth; OsdStats below is a compatibility
// view rebuilt from them on demand.
enum {
  l_osd_first = 1000,
  l_osd_client_ops,
  l_osd_reads,
  l_osd_writes,
  l_osd_sub_writes,
  l_osd_chunk_puts,
  l_osd_chunk_created,
  l_osd_chunk_dedup_hits,
  l_osd_chunk_derefs,
  l_osd_chunks_reclaimed,
  l_osd_pulls,
  l_osd_pushes,
  l_osd_op_r_lat,  // client-facing read latency (dispatch -> reply), ns
  l_osd_op_w_lat,  // client-facing write latency, ns
  l_osd_bytes_zero_copied,    // payload bytes applied as shared COW slices
  l_osd_crc_verifies,         // exec-pool payload CRC cross-checks run
  l_osd_crc_verify_failures,  // dedup-hit payload mismatched stored chunk
  // Chunk-map metadata accounting (osd/refs_cache.h).  meta_bytes_* count
  // the refs-xattr traffic identically with the fast path on or off; the
  // cache counters measure decodes actually skipped.  Host-side only —
  // never part of the determinism digest.
  l_osd_meta_bytes_read,      // refs xattr bytes read (incl. peer union)
  l_osd_meta_bytes_written,   // refs xattr bytes encoded + written
  l_osd_refs_decodes,         // full reference-list decodes performed
  l_osd_refs_cache_hits,      // decodes skipped via identity-validated hit
  l_osd_last,
};

// Legacy aggregate view of the OSD perf counters.  Kept because a pile of
// tests and harnesses read these fields; Osd::stats() refreshes one from
// the registry-backed counters.
struct OsdStats {
  uint64_t client_ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sub_writes = 0;
  uint64_t chunk_puts = 0;
  uint64_t chunk_created = 0;      // new chunk objects stored
  uint64_t chunk_dedup_hits = 0;   // puts satisfied by an existing chunk
  uint64_t chunk_derefs = 0;
  uint64_t chunks_reclaimed = 0;   // refcount hit zero
  uint64_t pulls = 0;
  uint64_t pushes = 0;
  uint64_t meta_bytes_read = 0;
  uint64_t meta_bytes_written = 0;
  uint64_t refs_decodes = 0;
  uint64_t refs_cache_hits = 0;
};

class Osd {
 public:
  Osd(ClusterContext* ctx, OsdId id, NodeId node, const SsdConfig& disk_cfg);

  OsdId id() const { return id_; }
  NodeId node() const { return node_; }

  bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }
  // When true, ops arriving while down are silently dropped (no reply) —
  // crash semantics for consistency tests.  Default: reply kUnavailable.
  void set_drop_when_down(bool drop) { drop_when_down_ = drop; }
  bool drop_when_down() const { return drop_when_down_; }

  // Fault-injection: arm a hook consulted at each OsdFailurePoint; return
  // true to crash this OSD there.  nullptr disarms.
  void set_failure_hook(OsdFailureHook hook) {
    failure_hook_ = std::move(hook);
  }
  uint64_t injected_crashes() const { return injected_crashes_; }

  // Drop the volatile per-object op queues — a crash loses them, and late
  // completions of ops that were in flight must find them gone rather than
  // assert.  Called on crash; harmless on a live OSD with no queued work.
  void reset_volatile();

  // Drop the decoded-refs cache entry for `key` (all entries when `key`
  // is omitted).  Needed wherever a chunk object is destroyed *without*
  // passing through chunk_deref_locked — GC reclaim, store wipes — since
  // a recreate could otherwise revalidate a stale entry whose bound
  // buffer was never mutated.
  void drop_refs_cache(const ObjectKey& key) { refs_cache_.erase(key); }
  void drop_refs_cache() { refs_cache_.clear(); }

  // Per-pool backing store (created on first touch; compression-at-rest
  // follows the pool config).
  ObjectStore& store(PoolId pool);
  const ObjectStore* store_if_exists(PoolId pool) const;

  SsdModel& disk() { return disk_; }

  // Compatibility accessors: rebuild the legacy struct from the perf
  // counters.  Reads through the returned reference are always current;
  // writes would be lost (no caller writes — they all go through the
  // counters now).
  OsdStats& stats() {
    refresh_stats_view();
    return stats_view_;
  }
  const OsdStats& stats() const {
    refresh_stats_view();
    return stats_view_;
  }

  obs::PerfCounters& perf() { return *perf_; }
  const obs::PerfCounters& perf() const { return *perf_; }

  // Foreground client-op completions in the last second (rate control).
  SlidingWindowCounter& foreground_window() { return fg_window_; }

  void set_tier(PoolId pool, std::unique_ptr<TierService> tier);
  TierService* tier(PoolId pool);

  // Entry point for ops delivered to this OSD (already at this node).
  void handle_op(OsdOp op, ReplyFn reply);

  // ---- redundancy-aware primitives (this OSD coordinates) ----

  // Apply `txn` to object (pool, oid) across its acting set.
  void submit_write(PoolId pool, const std::string& oid, Transaction txn,
                    std::function<void(Status)> done, bool foreground = true);

  // Read object data through the pool's redundancy (local for replicated,
  // shard-gather for EC).  len == 0 reads to the end.
  void submit_read(PoolId pool, const std::string& oid, uint64_t off,
                   uint64_t len, std::function<void(Result<Buffer>)> done,
                   bool foreground = true);

  void submit_remove(PoolId pool, const std::string& oid,
                     std::function<void(Status)> done,
                     bool foreground = true);

  // ---- local (no I/O cost) helpers for tiers and tests ----
  Result<Buffer> local_getxattr(PoolId pool, const std::string& oid,
                                const std::string& name) const;
  bool local_exists(PoolId pool, const std::string& oid) const;

  ClusterContext& ctx() { return *ctx_; }

 private:
  CpuModel& cpu() { return ctx_->node_cpu(node_); }

  // Consult the armed failure hook; on true, self-crash (mark down with
  // silent-drop semantics, reset volatile queues) and report true so the
  // caller abandons the in-flight op.
  bool fail_at(OsdFailurePoint p, const ObjectKey& key);

  void dispatch(OsdOp op, ReplyFn reply);

  void handle_read(const OsdOp& op, ReplyFn reply);
  void handle_write(const OsdOp& op, ReplyFn reply);
  void handle_remove(const OsdOp& op, ReplyFn reply);
  void handle_stat(const OsdOp& op, ReplyFn reply);
  void handle_getxattr(const OsdOp& op, ReplyFn reply);
  void handle_setxattr(const OsdOp& op, ReplyFn reply);
  void handle_sub_write(const OsdOp& op, ReplyFn reply);
  void handle_shard_read(const OsdOp& op, ReplyFn reply);
  void handle_pull(const OsdOp& op, ReplyFn reply);
  void handle_push(const OsdOp& op, ReplyFn reply);
  void handle_chunk_put_ref(const OsdOp& op, ReplyFn reply);
  void handle_chunk_deref(const OsdOp& op, ReplyFn reply);

  void chunk_put_ref_locked(const OsdOp& op, ReplyFn reply);
  void chunk_deref_locked(const OsdOp& op, ReplyFn reply);

  // A chunk's reference list next to the stored xattr bytes it decodes
  // from.  The list is the RefsCache entry itself when one is bound
  // (edited in place), else `owned`.
  struct RefsView {
    Buffer raw;  // stored refs xattr; empty if none is recorded yet
    std::vector<ChunkRef>* cached = nullptr;
    std::vector<ChunkRef> owned;
    std::vector<ChunkRef>& refs() { return cached ? *cached : owned; }
  };
  // Read the chunk's refs xattr and resolve its list: a cache hit when the
  // fast path is on, else one decode (cached when the fast path is on).
  // Metadata read bytes are accounted identically in both modes.
  Status load_refs(const ObjectKey& key, RefsView* v);
  // Encode the edited list for setxattr, given that its first `from`
  // entries are still the ones `v->raw` encodes: the records after them
  // are appended to those bytes (from == 0 encodes afresh).  Accounts the
  // metadata write and binds the cached list to the new bytes, which the
  // store retains zero-copy, so the next load_refs hits.
  Buffer store_refs(const ObjectKey& key, RefsView* v, size_t from);

  // Per-object FIFO op queues.  Chunk verbs serialize so two in-flight
  // puts of the same (new) chunk cannot both take the create path; EC
  // writes serialize so concurrent read-modify-writes of one object can
  // neither race nor hold multiple full-object images in memory.
  using OpQueue = std::map<ObjectKey, std::deque<std::function<void()>>>;
  void enqueue_object_op(OpQueue& q, const ObjectKey& key,
                         std::function<void()> fn);
  void finish_object_op(OpQueue& q, const ObjectKey& key);
  void enqueue_chunk_op(const ObjectKey& key, std::function<void()> fn) {
    enqueue_object_op(chunk_op_queue_, key, std::move(fn));
  }
  void finish_chunk_op(const ObjectKey& key) {
    finish_object_op(chunk_op_queue_, key);
  }

  void replicated_write(PoolId pool, const std::string& oid, Transaction txn,
                        std::function<void(Status)> done, bool foreground);
  void ec_write(PoolId pool, const std::string& oid, Transaction txn,
                std::function<void(Status)> done, bool foreground);
  void ec_write_locked(PoolId pool, const std::string& oid, Transaction txn,
                       std::function<void(Status)> done, bool foreground);
  void ec_read(PoolId pool, const std::string& oid, uint64_t off, uint64_t len,
               std::function<void(Result<Buffer>)> done, bool foreground);

  // Apply a transaction locally: journal/disk write, then store apply.
  void local_apply(PoolId pool, Transaction txn,
                   std::function<void(Status)> done);

  void refresh_stats_view() const;

  ClusterContext* ctx_;
  OsdId id_;
  NodeId node_;
  SsdModel disk_;
  // Read cross-shard by recovery scans and liveness checks; flipped only
  // from control / global-lane code, but atomic keeps parallel windows
  // race-free without a lock.
  std::atomic<bool> up_{true};
  bool drop_when_down_ = false;
  // Guards the per-pool store map structure during parallel windows (the
  // stores themselves carry their own gated lock).
  mutable std::shared_mutex stores_mu_;
  std::map<PoolId, std::unique_ptr<ObjectStore>> stores_;
  std::map<PoolId, std::unique_ptr<TierService>> tiers_;
  OpQueue chunk_op_queue_;
  OpQueue ec_write_queue_;
  // Decoded refs-xattr cache, consulted only when ctx_->fp_fastpath().
  // Identity validation makes stale entries self-healing, so crash resets
  // (reset_volatile) need not touch it.
  RefsCache refs_cache_;
  obs::PerfCountersRef perf_;
  mutable OsdStats stats_view_;
  OsdFailureHook failure_hook_;
  uint64_t injected_crashes_ = 0;
  SlidingWindowCounter fg_window_{kSecond};
};

// Route an op from `from_node` to `target`'s node, run it there, and route
// the reply back; `cb` fires on the sender's side.
void send_osd_op(ClusterContext& ctx, NodeId from_node, OsdId target, OsdOp op,
                 ReplyFn cb);

}  // namespace gdedup
