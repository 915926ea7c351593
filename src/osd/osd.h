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
  virtual bool object_busy(const ObjectName& oid) const {
    (void)oid;
    return false;
  }
  // The local copy of `oid` was trimmed as a stray (this OSD left the
  // object's acting set): drop any volatile per-object state so a stale
  // dirty flag cannot keep the engine busy with an object it no longer
  // owns.
  virtual void forget_object(const ObjectName& oid) { (void)oid; }
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

// Perf-counter indices for one OSD (registry entity "osd.<id>").  Callers
// read them through perf(), or summed across the cluster through
// Cluster::perf_sum.
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
  // the refs-xattr traffic; the cache counters measure decodes actually
  // skipped.  Host-side only — never part of the determinism digest.
  l_osd_meta_bytes_read,      // refs xattr bytes read (incl. peer union)
  l_osd_meta_bytes_written,   // refs xattr bytes encoded + written
  l_osd_refs_decodes,         // full reference-list decodes performed
  l_osd_refs_cache_hits,      // decodes skipped via identity-validated hit
  l_osd_last,
};

struct OsdOpHop;  // below

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

  obs::PerfCounters& perf() { return *perf_; }
  const obs::PerfCounters& perf() const { return *perf_; }

  // Foreground client-op completions in the last second (rate control).
  SlidingWindowCounter& foreground_window() { return fg_window_; }

  void set_tier(PoolId pool, std::unique_ptr<TierService> tier);
  TierService* tier(PoolId pool);

  // Entry point for an op delivered to this OSD by send_osd_op.  The hop
  // record travels on through the CPU-cost completion and carries the
  // reply back to the sender.
  void handle_op(std::unique_ptr<OsdOpHop> hop);

  // ---- redundancy-aware primitives (this OSD coordinates) ----

  // Apply `txn` to object (pool, oid) across its acting set.
  void submit_write(PoolId pool, const ObjectName& oid, Transaction txn,
                    StatusFn done, bool foreground = true);

  // Read object data through the pool's redundancy (local for replicated,
  // shard-gather for EC).  len == 0 reads to the end.
  void submit_read(PoolId pool, const ObjectName& oid, uint64_t off,
                   uint64_t len, ReadFn done, bool foreground = true);

  void submit_remove(PoolId pool, const ObjectName& oid, StatusFn done,
                     bool foreground = true);

  // ---- local (no I/O cost) helpers for tiers and tests ----
  Result<Buffer> local_getxattr(PoolId pool, const ObjectName& oid,
                                const std::string& name) const;
  bool local_exists(PoolId pool, const ObjectName& oid) const;

  ClusterContext& ctx() { return *ctx_; }

 private:
  CpuModel& cpu() { return ctx_->node_cpu(node_); }

  // Consult the armed failure hook; on true, self-crash (mark down with
  // silent-drop semantics, reset volatile queues) and report true so the
  // caller abandons the in-flight op.
  bool fail_at(OsdFailurePoint p, PoolId pool, const ObjectName& oid);

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
  // Read the chunk's refs xattr and resolve its list: a cache hit, else
  // one decode that the cache then keeps.  Accounts the metadata read.
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
  //
  // Almost every op finds its object idle: it marks the object busy and
  // runs at once, in its caller's frame, so it is neither copied nor
  // boxed.  Only an op that finds its object busy is stored, as a closure
  // parked behind the running one.  Busy objects live in recycled slots
  // that hold a copy of the key (a refcount bump), so a warm queue
  // allocates nothing per op.  Few objects are busy at once (at most 86
  // in one queue on the benchmark workloads), so slots are found by a
  // scan of their names' hashes.
  class OpQueue {
   public:
    using Parked = Scheduler::Callback;
    // Mark `key` busy; true if it was idle (the caller runs its op now).
    bool try_acquire(const ObjectKey& key);
    // Park `fn` behind the ops on the busy `key`.
    void park(const ObjectKey& key, Parked fn);
    // The op holding `key` is done: the next parked op, which now holds
    // the key, or an empty function once the key is idle.  An unknown key
    // (a crash reset the queue under an in-flight op) is ignored.
    Parked release(const ObjectKey& key);
    // Idle every key; the parked ops move to `out`.  True if any key was
    // busy.
    bool reset(std::vector<Parked>* out);

   private:
    struct Slot {
      bool busy = false;
      ObjectKey key;
      std::vector<Parked> parked;  // FIFO
    };
    Slot* find(const ObjectKey& key);
    std::vector<Slot> slots_;
  };
  // Start the op parked next on `key`, or idle the key.
  void finish_object_op(OpQueue& q, const ObjectKey& key);
  // A chunk verb's `locked` body, serialized per chunk object.
  void run_chunk_op(const OsdOp& op, ReplyFn reply,
                    void (Osd::*locked)(const OsdOp&, ReplyFn));

  void replicated_write(PoolId pool, const ObjectName& oid, Transaction txn,
                        StatusFn done, bool foreground);
  void ec_write(PoolId pool, const ObjectName& oid, Transaction txn,
                StatusFn done, bool foreground);
  void ec_write_locked(PoolId pool, const ObjectName& oid, Transaction txn,
                       StatusFn done, bool foreground);
  // Apply `txn` to the object image `base`, encode it and send each
  // member of `acting` its shard.
  void ec_encode_and_send(const ObjectKey& key, std::vector<OsdId> acting,
                          const Transaction& txn, ObjectState base,
                          bool existed, StatusFn done, bool foreground);
  // Apply txns[i] on acting[i] (a single txn on every member); `done`
  // gets the worst status.
  void ec_broadcast(PoolId pool, const ObjectName& oid,
                    const std::vector<OsdId>& acting,
                    std::vector<std::shared_ptr<const Transaction>> txns,
                    StatusFn done, bool foreground);
  void ec_read(PoolId pool, const ObjectName& oid, uint64_t off, uint64_t len,
               ReadFn done, bool foreground);

  // Apply a transaction locally: journal/disk write, then store apply,
  // then done(Status).  The transaction is shared with the fanout's other
  // replicas, never copied; `done` rides in the disk completion itself.
  template <typename Done>
  void local_apply(PoolId pool, std::shared_ptr<const Transaction> txn,
                   Done done);

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
  // Decoded refs-xattr cache.  Identity validation makes stale entries
  // self-healing, so crash resets (reset_volatile) need not touch it.
  RefsCache refs_cache_;
  obs::PerfCountersRef perf_;
  OsdFailureHook failure_hook_;
  uint64_t injected_crashes_ = 0;
  SlidingWindowCounter fg_window_{kSecond};
};

// One OSD message hop: the op, the sender's continuation and the reply on
// its way back, in one heap record that the network delivery, the CPU-cost
// completion, the reply wrapper and the reply delivery pass on by move.  An
// event dropped on the way (a crash, a lost message, a timeout that won)
// destroys it.
struct OsdOpHop {
  OsdOp op;
  ReplyFn cb;  // runs on the sender's node
  ClusterContext* ctx = nullptr;
  NodeId from = 0;  // sender's node
  NodeId to = 0;    // target OSD's node
  OsdOpReply rep;
};

// Route an op from `from_node` to `target`'s node, run it there, and route
// the reply back; `cb` fires on the sender's side.
void send_osd_op(ClusterContext& ctx, NodeId from_node, OsdId target, OsdOp op,
                 ReplyFn cb);

}  // namespace gdedup
