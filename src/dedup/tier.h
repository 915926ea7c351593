#pragma once

// DedupTier — the paper's deduplication design, installed per metadata-pool
// OSD (the role the tiering agent plays in the Ceph implementation).
//
// Write path (Section 4.5): data lands in the metadata object's data part
// (cached=true, dirty=true in the chunk map); a partial write over an
// evicted chunk leaves the entry in Figure 8's cached=false/dirty=true
// state and the background flush merges the missing bytes from the chunk
// pool, keeping the read-modify-write off the foreground path (on
// erasure-coded base pools the fill is pre-read in the foreground instead,
// because dense re-encoding cannot preserve the overlay extents).  The
// object joins the dirty list and the client is acked after ordinary
// replication — no fingerprinting on the foreground path.
//
// Read path: cached chunks are served locally; non-cached chunks redirect
// to the chunk pool by chunk-object ID (double hashing resolves placement);
// hot objects get promoted back into the metadata object.
//
// Background engine (Section 4.4.1): walks the dirty list under watermark
// rate control, skips hot objects, fingerprints each dirty chunk
// (CPU-costed *and* actually computed), de-references the old chunk, puts
// the new chunk into the chunk pool (create-or-addref), then updates the
// chunk map — evicting the cached copy of cold chunks, which is where the
// space saving is realized.  Objects flush several chunks concurrently,
// like Ceph's tiering agent flushing whole objects.
//
// Chunk maps are kept in an in-memory object context (map_cache_), the
// single-writer authoritative copy on the primary; every mutation is
// applied to the cache synchronously and the touched entries ride as
// per-entry omap records in the same transaction as the data, so replicas
// and recovery always see a consistent self-contained object.  After a
// crash the cache is rebuilt from the persisted entries
// (rebuild_dirty_list).
//
// Inline mode implements the Figure 5(a) baseline: the whole pipeline runs
// synchronously on the write path, including the partial-write
// read-modify-write.

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/lru.h"
#include "dedup/chunk_map.h"
#include "dedup/chunker.h"
#include "dedup/fingerprint_cache.h"
#include "dedup/fingerprint_index.h"
#include "dedup/hitset.h"
#include "dedup/rate_controller.h"
#include "obs/op_tracker.h"
#include "osd/osd.h"

namespace gdedup {

// Crash-injection points in the engine's flush pipeline, mirroring the
// failure steps of the consistency model (Section 4.6, Figure 9).
enum class FailurePoint {
  kBeforeDeref,      // old chunk still referenced, nothing happened yet
  kAfterDeref,       // old ref dropped, new chunk not yet stored
  kAfterChunkPut,    // chunk stored in chunk pool, map not yet updated
  kBeforeMapUpdate,  // alias of the ack-lost case (step 5 in Figure 9)
};
constexpr int kNumEngineFailurePoints = 4;

inline const char* failure_point_name(FailurePoint p) {
  switch (p) {
    case FailurePoint::kBeforeDeref: return "before_deref";
    case FailurePoint::kAfterDeref: return "after_deref";
    case FailurePoint::kAfterChunkPut: return "after_chunk_put";
    case FailurePoint::kBeforeMapUpdate: return "before_map_update";
  }
  return "?";
}

// Perf-counter indices for one tier engine (registry entity
// "tier.osd<id>.pool<pool>").  Counters are the source of truth;
// DedupTierStats below is a compatibility view rebuilt on demand.
enum {
  l_tier_first = 2000,
  l_tier_writes,
  l_tier_reads,
  l_tier_removes,
  l_tier_prereads,
  l_tier_flush_merges,
  l_tier_cached_read_chunks,
  l_tier_redirected_read_chunks,
  l_tier_chunks_flushed,
  l_tier_flush_bytes,
  l_tier_noop_flushes,
  l_tier_derefs,
  l_tier_evictions,
  l_tier_capacity_evictions,
  l_tier_promotions,
  l_tier_hot_skips,
  l_tier_racy_flushes,
  l_tier_degraded_pulls,
  l_tier_orphan_adoptions,
  l_tier_engine_ticks,
  l_tier_engine_aborts,
  l_tier_fingerprint_cache_hits,
  // Two-tier fingerprint fast path (dedup/fingerprint_index.h).  Host-
  // side work only — never digested: they differ with the fast path
  // on/off while the determinism digest must not.
  l_tier_weak_hash_hits,      // index candidate found (pre-verification)
  l_tier_weak_hash_misses,    // no candidate under the weak hash
  l_tier_weak_collisions,     // candidate bytes differed; SHA fallback
  l_tier_bloom_negative_hits, // negative answered by the shard filter
  l_tier_sha_computed,        // full SHA kernels actually run
  l_tier_sha_avoided,         // full SHA skipped via verified index hit
  // Fragmentation-aware restore path.  The read-amp and forward-assembly
  // counters are host-side observability (reported, never digested: the
  // assembly cache must not move virtual time).  The rewrite counters
  // only move in restore_rewrite mode, which carries its own frozen
  // digest because it intentionally changes placement.
  l_tier_read_logical_bytes,   // logical bytes served by tier reads
  l_tier_read_chunk_objects,   // distinct chunk-pool objects touched, per read
  l_tier_read_chunk_rpcs,      // chunk-pool read RPCs issued by reads
  l_tier_asm_window_opens,     // sequential windows opened
  l_tier_asm_hits,             // redirected chunk reads served from a window
  l_tier_asm_prefetched_refs,  // chunk refs planned into windows
  l_tier_asm_wasted_refs,      // planned refs never consumed before close
  l_tier_rewrite_runs,         // container objects written by selective rewrite
  l_tier_rewrite_chunks,       // map slots coalesced into containers
  l_tier_rewrite_bytes,        // bytes rewritten into containers
  // Recipe metadata dedup (dedup/recipe.h).  Host-side observability,
  // never digested.  The recipe counters only move in recipe mode (which
  // carries its own frozen digest); the meta byte/txn counters move in
  // both modes so off-vs-on runs compare on the same metric.  baseline =
  // what the legacy 150-byte per-slot encoding would have written for the
  // same mutations, so baseline/actual is the derived meta_dedup_ratio.
  l_tier_recipe_chunks,        // recipe chunk objects put (created new)
  l_tier_recipe_hits,          // recipe puts deduplicated (chunk existed)
  l_tier_meta_txns,            // metadata-bearing transactions submitted
  l_tier_meta_bytes_baseline,  // legacy-encoding bytes for the same updates
  l_tier_meta_bytes_actual,    // metadata bytes actually written
  // Telemetry gauges mirrored on demand by sync_telemetry_gauges() — the
  // hot paths never touch them.
  l_tier_backlog,             // gauge: dirty_backlog() snapshot
  l_tier_backlog_derefs,      // gauge: queued deref work items
  l_tier_rate_credits_x1000,  // gauge: RateController credits * 1000
  l_tier_rate_demand,         // gauge: sliding-window demand (iops or B/s)
  l_tier_rate_regime,         // gauge: 0 unthrottled / 1 mid / 2 high
  l_tier_recipe_inline_tail,  // gauge: loaded entries still inline-on-disk
  l_tier_bloom_rebuilds,      // gauge: node fp-index bloom rebuilds so far
  l_tier_bloom_rebuild_ns,    // gauge: modeled ns spent in those rebuilds
  l_tier_write_lat,        // tier write handling, entry -> client ack, ns
  l_tier_read_lat,         // tier read handling, entry -> reply, ns
  l_tier_fingerprint_lat,  // costed fingerprint compute (cache hits = 0ns)
  l_tier_chunk_put_lat,    // chunk-pool put round trip
  l_tier_chunk_deref_lat,  // chunk-pool deref round trip
  l_tier_merge_read_lat,   // chunk-pool reads (RMW fills / redirects)
  l_tier_flush_lat,        // one chunk flush attempt, launch -> completion
  l_tier_read_gap,         // log2 |pg distance| between consecutive remote
                           // chunk placements in one read (seek locality)
  l_tier_last,
};

struct DedupTierStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t removes = 0;
  uint64_t prereads = 0;      // foreground RMW fills (inline mode)
  uint64_t flush_merges = 0;  // background fills of partial dirty chunks
  uint64_t cached_read_chunks = 0;
  uint64_t redirected_read_chunks = 0;
  uint64_t chunks_flushed = 0;    // chunk objects pushed to the chunk pool
  uint64_t flush_bytes = 0;
  uint64_t noop_flushes = 0;      // content unchanged; dirty cleared locally
  uint64_t derefs = 0;
  uint64_t evictions = 0;
  uint64_t capacity_evictions = 0;  // LRU cache-cap reclaims (Section 4.3)
  uint64_t promotions = 0;
  uint64_t hot_skips = 0;
  uint64_t racy_flushes = 0;      // object changed mid-flush; stayed dirty
  uint64_t degraded_pulls = 0;    // objects recovered on-demand by a new
                                  // primary before serving an op
  uint64_t orphan_adoptions = 0;  // redo flushes re-based onto the chunk a
                                  // crashed attempt already put
  uint64_t engine_ticks = 0;
  uint64_t engine_aborts = 0;     // injected failures taken
  uint64_t fingerprint_cache_hits = 0;  // hashes skipped via COW memoization
  // Two-tier fast path (reported, never digested — see the counter enum).
  uint64_t weak_hash_hits = 0;
  uint64_t weak_hash_misses = 0;
  uint64_t weak_collisions = 0;
  uint64_t bloom_negative_hits = 0;
  uint64_t sha_computed = 0;
  uint64_t sha_avoided = 0;
  // Fragmentation-aware restore path (reported, never digested except the
  // rewrite counters under restore_rewrite's own frozen digest).
  uint64_t read_logical_bytes = 0;
  uint64_t read_chunk_objects = 0;
  uint64_t read_chunk_rpcs = 0;
  uint64_t asm_window_opens = 0;
  uint64_t asm_hits = 0;
  uint64_t asm_prefetched_refs = 0;
  uint64_t asm_wasted_refs = 0;
  uint64_t rewrite_runs = 0;
  uint64_t rewrite_chunks = 0;
  uint64_t rewrite_bytes = 0;
  // Recipe metadata dedup (only move in recipe mode).
  uint64_t recipe_chunks = 0;
  uint64_t recipe_hits = 0;
  uint64_t meta_txns = 0;
  uint64_t meta_bytes_baseline = 0;
  uint64_t meta_bytes_actual = 0;
};

class DedupTier : public TierService {
 public:
  DedupTier(Osd* osd, PoolId pool);
  ~DedupTier() override = default;

  // --- TierService ---
  void handle_read(const OsdOp& op, ReplyFn reply) override;
  void handle_write(const OsdOp& op, ReplyFn reply) override;
  void handle_remove(const OsdOp& op, ReplyFn reply) override;
  void start() override;
  void stop() override;
  size_t dirty_backlog() const override {
    return dirty_list_.size() + inflight_oids_.size() +
           pending_derefs_.size() + promote_queue_.size() +
           rewrite_queue_.size();
  }
  bool object_busy(const std::string& oid) const override {
    return is_dirty(oid) || pending_writes_.count(oid) > 0;
  }
  void forget_object(const std::string& oid) override {
    // In-flight markers and pending-write counters stay: their completions
    // are find()-based and clean up after themselves.
    dirty_set_.erase(oid);
    promote_set_.erase(oid);
    map_cache_.erase(oid);
    cache_lru_.erase(oid);
    asm_windows_.erase(oid);
    rewrite_set_.erase(oid);
  }

  // --- introspection / test hooks ---
  // Compatibility view rebuilt from the perf counters on every call.
  const DedupTierStats& stats() const {
    refresh_stats_view();
    return stats_view_;
  }

  obs::PerfCounters& perf() { return *perf_; }
  const obs::PerfCounters& perf() const { return *perf_; }

  // Refresh the l_tier_backlog* / l_tier_rate_* gauges from live engine
  // state.  Called by the telemetry presample hook (and obs::dump) so
  // gauge freshness costs nothing on the write/flush hot paths.  Pure
  // reads: never accrues credits or advances any clock.
  void sync_telemetry_gauges();

  // Return true from the hook to crash the engine at that point (the
  // in-flight flush is abandoned; redo must converge).
  using FailureHook = std::function<bool(FailurePoint, const std::string&)>;
  void set_failure_hook(FailureHook hook) { failure_hook_ = std::move(hook); }

  // Override the weak hash of the fast path — the collision-injection
  // hook.  A test returning a constant forces every chunk onto one index
  // key, so distinct contents must survive on byte verification alone.
  // nullptr restores WeakHasher::oneshot.
  using WeakHashHook = std::function<uint64_t(const Buffer&)>;
  void set_weak_hash_hook(WeakHashHook hook) {
    weak_hash_hook_ = std::move(hook);
  }

  // Rebuild volatile state (dirty list, chunk-map cache) from the local
  // store — the self-contained-object recovery path after a crash.
  void rebuild_dirty_list();

  bool is_dirty(const std::string& oid) const {
    return dirty_set_.count(oid) > 0 || inflight_oids_.count(oid) > 0;
  }

  // Force one engine pass immediately (tests drive time explicitly).
  void kick();

 private:
  const DedupTierConfig& cfg() const {
    return osd_->ctx().osdmap().pool(pool_).dedup;
  }
  Scheduler& sched() { return osd_->ctx().sched(); }

  // -- object context (authoritative in-memory chunk map on the primary) --
  ChunkMap& cached_map(const std::string& oid);
  const ChunkMap* cached_map_if_loaded(const std::string& oid) const;
  // Copy the bytes of local extents overlapping [off, off+buf->size())
  // over `buf` (newest data wins when merging with chunk-pool content).
  void overlay_local(const std::string& oid, uint64_t off, Buffer* buf) const;
  void drop_context(const std::string& oid) { map_cache_.erase(oid); }

  uint64_t logical_size(const std::string& oid) const;
  void mark_dirty(const std::string& oid);

  // -- write path --
  void post_process_write(const OsdOp& op, ReplyFn reply);
  void handle_read_attempt(const OsdOp& op, ReplyFn reply, int attempt);
  void inline_write(const OsdOp& op, ReplyFn reply);
  // Chunk-pool RPC helpers.  Each records its round-trip latency histogram
  // and, when a trace rides along, brackets itself in a named span.
  void read_chunk_from_pool(const std::string& chunk_oid, uint64_t off,
                            uint64_t len, bool foreground,
                            std::function<void(Result<Buffer>)> done,
                            obs::OpTraceRef trace = nullptr);
  void send_chunk_put(const std::string& chunk_oid, Buffer data,
                      const ChunkRef& ref, bool foreground,
                      std::function<void(Status)> done,
                      obs::OpTraceRef trace = nullptr,
                      std::vector<ChunkRef> extra_refs = {});
  void send_chunk_deref(const std::string& chunk_oid, const ChunkRef& ref,
                        bool foreground, std::function<void(Status)> done,
                        obs::OpTraceRef trace = nullptr);
  // Find a chunk-pool object (other than `not_this`) whose refs xattr
  // records this entry; used to re-base a redo flush whose superseded
  // chunk was reclaimed (see flush_chunk_at).
  std::string find_chunk_recording_ref(const std::string& oid, uint64_t offset,
                                       const std::string& not_this) const;

  // -- engine --
  struct TickState {
    int budget = 0;
    int inflight = 0;
  };
  void schedule_tick();
  void tick();
  void pump(std::shared_ptr<TickState> st);
  bool launch_one(const std::shared_ptr<TickState>& st);

  // Flush up to `max_chunks` dirty chunks of one object, several in
  // flight; done(any_left) reports whether dirty chunks remain.
  void flush_object(const std::string& oid, int max_chunks,
                    std::function<void(bool any_left)> done);
  void flush_chunk_at(const std::string& oid, uint64_t offset,
                      std::function<void()> done);
  // fingerprint -> deref old -> put new -> finish, for resolved content.
  void run_flush_pipeline(const std::string& oid, const ChunkMapEntry& entry,
                          Buffer content, std::function<void()> done,
                          obs::OpTraceRef trace = nullptr);
  void finish_flush(const std::string& oid, uint64_t offset,
                    const std::string& new_id, uint64_t snapshot_gen,
                    bool was_noop, std::function<void()> done);
  void promote_object(const std::string& oid, std::function<void()> done);

  // -- fragmentation-aware restore path --
  // Forward-assembly window: a per-object sequential-read detector that,
  // once a streak is established, plans the next chunk refs from the map
  // and accounts the redirected reads it serves.  Accounting only: it
  // holds no bytes, every chunk-pool RPC, costed read and digested counter
  // happens identically with the window on or off, and replies are built
  // exactly as outside a window.  Plans are validated against
  // map_mutation_stamp_, bumped at every map-mutating site, so a stale
  // window silently dissolves.
  struct AssemblyWindow {
    uint64_t expect_off = 0;  // predicted offset of the next read
    int streak = 0;           // consecutive sequential reads seen
    bool open = false;
    uint64_t stamp = 0;       // map_mutation_stamp_ when planned
    uint64_t win_begin = 0;
    uint64_t win_end = 0;
    uint64_t planned = 0;     // refs planned into this window
    uint64_t consumed = 0;    // refs actually served from it
  };
  static constexpr int kAsmStreakThreshold = 3;  // reads before a window
  static constexpr int kAsmWindowChunks = 16;    // refs planned per window
  void close_assembly_window(AssemblyWindow* w);
  void bump_map_stamp() { map_mutation_stamp_++; }

  // Fragmentation = extents/chunks over the flushed, non-cached map
  // slots, where an extent is a maximal run contiguous inside one chunk
  // object.  0 = fully sequential, ->1 = every chunk is its own seek.
  double fragmentation_of(const ChunkMap& cm) const;
  // After an object flushes fully clean: queue it for selective rewrite
  // if restore_rewrite is on and fragmentation exceeds the threshold.
  void maybe_enqueue_rewrite(const std::string& oid);
  // Coalesce runs of adjacent cold flushed chunks into fresh contiguous
  // container objects (one put carrying one ref per slot), then swap the
  // map entries and deref the old chunks via pending_derefs_.
  void rewrite_object(const std::string& oid, std::function<void()> done);

  // -- recipe metadata dedup (dedup/recipe.h) --
  bool recipe_on() const { return osd_->ctx().recipe_dedup(); }
  // Fixed offset-aligned compaction window span in bytes.
  uint64_t recipe_window_span() const {
    const int n = cfg().recipe_entries > 0 ? cfg().recipe_entries : 32;
    return static_cast<uint64_t>(n) * cfg().chunk_size;
  }
  // Encode an entry in the active codec (packed in recipe mode, legacy
  // 150-byte otherwise).
  Buffer encode_entry_record(const ChunkMapEntry& e) const;
  // Metadata write accounting: actual bytes hit the osd/tier counters in
  // both modes; baseline charges what the legacy per-slot encoding would
  // have written for the same entry-set event.
  void account_meta_entry_write(size_t key_bytes, size_t value_bytes);
  // Stage an inline omap record for `e` into `txn`, marking it
  // inline-on-disk and accounting the bytes.
  void put_entry_record(Transaction* txn, const ObjectKey& key,
                        ChunkMapEntry* e);

  // One buffered metadata apply per object per flush cycle: finish_flush
  // and the recipe compactor stage omap mutations here instead of issuing
  // per-slot submit_writes, and chunk derefs queue here so the Figure 9
  // deref-last ordering survives batching (they move to pending_derefs_
  // only after the batch applies).
  struct MetaBatch {
    Transaction txn;
    std::vector<std::pair<std::string, ChunkRef>> derefs;
    // Slots whose clean post-flush state is not yet persisted:
    // finish_flush defers the inline record so the compactor can absorb
    // the slot into a recipe instead of writing it (the common case costs
    // one ~60-byte record per window, not 150 bytes per slot).
    std::set<uint64_t> pending;
    // Slots whose data-part eviction (hole punch, possibly a trailing
    // truncate-to-zero) was decided by finish_flush but must land in the
    // SAME transaction as the records that clear their `cached` bits: a
    // crash between an eager punch and a deferred record would leave an
    // on-disk map claiming locally-cached bytes over a hole, and the redo
    // would flush zeros.  apply_meta_batch re-validates each slot against
    // the live map before punching, so a foreground write that re-dirtied
    // the slot mid-cycle cancels its eviction.
    std::set<uint64_t> evicts;
  };
  MetaBatch* meta_batch(const std::string& oid) {
    auto it = meta_batches_.find(oid);
    return it == meta_batches_.end() ? nullptr : &it->second;
  }
  // Queue a deref into the open batch for `oid`, or straight into
  // pending_derefs_ when no batch is open (foreground paths).
  void queue_deferred_deref(const std::string& oid,
                            const std::string& chunk_id, const ChunkRef& ref);
  // Stage inline records for the batch-pending slots among `members`
  // (windows the compactor could not absorb fall back to per-slot form).
  void persist_pending_slots(const std::string& oid,
                             const std::vector<uint64_t>& members);
  // Windowed recipe compaction with hysteresis: stage new/changed recipe
  // records (and drop absorbed inline shadows) into the batch, putting
  // any new recipe chunks first.  Calls done when all puts completed.
  void compact_recipes(const std::string& oid, std::function<void()> done);
  // Apply the object's batched metadata transaction, then release its
  // queued derefs and report `any_dirty` through done.
  void apply_meta_batch(const std::string& oid, bool any_dirty,
                        std::function<void(bool)> done);
  // Drop every recipe record of `oid` (staging omap_rms into `txn`) and
  // queue derefs of the recipe chunks; the caller must re-inline any
  // surviving entries.  Used by write_full truncation and remove.
  void break_recipes(const std::string& oid, ChunkMap* cm, Transaction* txn);

  // Section 4.3's LRU cache manager: when cache_capacity_bytes is set,
  // evict the coldest objects' clean cached chunks until under the cap.
  void enforce_cache_capacity();
  void touch_cache_lru(const std::string& oid) { cache_lru_.put(oid, 0); }

  bool fail_at(FailurePoint p, const std::string& oid);

  // Fingerprint a chunk's content and deliver the result.  Probes the
  // COW-aware memoization cache first: a hit skips both the real hash and
  // the simulated CPU cost (and bumps the fingerprint_cache_hits counter);
  // a miss computes under the costed CPU model and populates the cache.
  // With the fast path on, a memo miss probes the node's fingerprint
  // index by weak hash before falling back to the SHA kernel — the
  // simulated CPU cost is charged identically either way, so only the
  // host wall clock (and the never-digested fast-path counters) changes.
  void fingerprint_async(const Buffer& content,
                         std::function<void(const Fingerprint&)> k,
                         obs::OpTraceRef trace = nullptr);

  // Node-shared fingerprint index (nullptr context -> private fallback).
  FingerprintIndex* fp_index();
  uint64_t weak_hash_of(const Buffer& content);

  void refresh_stats_view() const;

  Osd* osd_;
  PoolId pool_;
  FixedChunker chunker_;
  HitSet hitset_;
  RateController rate_;
  obs::PerfCountersRef perf_;
  mutable DedupTierStats stats_view_;
  FingerprintCache fp_cache_;

  std::unordered_map<std::string, ChunkMap> map_cache_;
  uint64_t dirty_gen_counter_ = 1;
  // Client writes whose data transaction has not yet applied everywhere;
  // the engine must not read an object's data part before the write that
  // dirtied it is durable (the cache learns of dirtiness at submit time).
  std::unordered_map<std::string, int> pending_writes_;

  LruMap<std::string, int> cache_lru_{1 << 20};  // recency of cached objects

  std::deque<std::string> dirty_list_;
  std::unordered_set<std::string> dirty_set_;
  std::unordered_set<std::string> inflight_oids_;
  std::deque<std::pair<std::string, ChunkRef>> pending_derefs_;
  std::deque<std::string> promote_queue_;
  std::unordered_set<std::string> promote_set_;
  // Restore path: per-object assembly windows, the map-mutation stamp
  // that invalidates their plans, and the selective-rewrite queue.
  std::unordered_map<std::string, AssemblyWindow> asm_windows_;
  uint64_t map_mutation_stamp_ = 1;
  std::deque<std::string> rewrite_queue_;
  std::unordered_set<std::string> rewrite_set_;
  // Recipe mode: per-object open metadata batches (one flush cycle each).
  std::unordered_map<std::string, MetaBatch> meta_batches_;

  FailureHook failure_hook_;
  WeakHashHook weak_hash_hook_;
  // Fallback index for cluster-less fixtures (ctx().fp_index == nullptr);
  // created on first use so fixtures that never fingerprint pay nothing.
  std::unique_ptr<FingerprintIndex> own_fp_index_;
  bool running_ = false;
  bool in_tick_ = false;
  Scheduler::EventId tick_event_ = 0;
};

}  // namespace gdedup
