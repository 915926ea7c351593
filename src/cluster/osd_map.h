#pragma once

// Cluster map: pools, OSD liveness, and the oid -> PG -> OSDs mapping.
//
// This is the decentralized placement function of Figure 2(b): every
// client and OSD evaluates the same pure function of (map epoch, oid), so
// there is no metadata server.  Like Ceph's OSDMapMapping, the PG -> acting
// half of that function is tabulated once per epoch: every mutator that
// changes placement rebuilds the table, so lookups are pure reads (safe
// from parallel shard windows) and never re-run CRUSH.  Pool configuration
// carries the dedup tier parameters the same way Ceph's OSDMap carries
// cache-tier settings — that's what lets the dedup design ship without new
// cluster-wide state.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/crush.h"
#include "common/status.h"
#include "hash/fingerprint.h"
#include "sim/scheduler.h"

namespace gdedup {

using PoolId = int;

enum class RedundancyScheme { kReplicated, kErasure };

enum class DedupMode {
  kOff,
  kPostProcess,  // the paper's design: dirty list + background engine
  kInline,       // baseline for Figure 5(a) / Section 3.1
};

// Dedup tier parameters, attached to the *metadata* pool.
struct DedupTierConfig {
  DedupMode mode = DedupMode::kOff;
  PoolId chunk_pool = -1;
  uint32_t chunk_size = 32 * 1024;
  FingerprintAlgo fp_algo = FingerprintAlgo::kSha256;

  // Hotness (Section 5: HitSet + bloom filter; Hitcount threshold).
  bool cache_enabled = true;
  SimTime hitset_period = kSecond;
  int hitset_count = 4;       // retained periods
  int hitcount_threshold = 2; // accesses before an object counts as hot
  bool promote_on_read = true;
  // Cap on cached (clean) bytes kept in the metadata pool per OSD; 0 means
  // unlimited.  Enforcement is LRU over objects — Section 4.3: "various
  // cache algorithms could be applied here but ... we used a LRU based
  // approach".
  uint64_t cache_capacity_bytes = 0;

  // Background engine (Section 4.4.1) + rate control (Section 4.4.2).
  SimTime engine_tick = msec(100);
  int max_dedup_per_tick = 64;
  int engine_parallelism = 8;  // concurrent background flushes per OSD
  bool rate_control = true;
  // Watermarks are "based on IOPS or throughput" (Section 4.4.2): when
  // watermark_by_bytes is set, the regimes are picked by foreground
  // bytes/s instead of ops/s (sequential-stream workloads).
  bool watermark_by_bytes = false;
  double low_watermark_iops = 1000.0;
  double high_watermark_iops = 5000.0;
  double low_watermark_bps = 50e6;
  double high_watermark_bps = 200e6;
  int ios_per_dedup_mid = 100;   // between watermarks: 1 dedup per 100 fg IOs
  int ios_per_dedup_high = 500;  // above high watermark: 1 per 500
  bool evict_after_flush = true; // reclaim cached copies of cold chunks
  // Section 4.6's optimization: do not wait for de-reference completion on
  // the flush path ("no locking on decrement").  Cheaper flushes; any ref
  // a lost deref leaves behind is reclaimed by the garbage collector
  // (dedup/scrub.h), exactly the trade the paper describes.
  bool async_deref = false;

  // Capping-style selective rewrite (fragmentation-aware restore path):
  // after an object flushes fully clean, if its measured fragmentation
  // (distinct chunk-object extents / chunks) exceeds the threshold, runs
  // of adjacent cold duplicate chunks are rewritten as one fresh
  // contiguous container object, trading bounded storage blowup for
  // restored sequentiality.  Intentionally changes placement, so it is
  // off by default and carries its own frozen determinism digest.
  bool restore_rewrite = false;
  double rewrite_frag_threshold = 0.5;  // rewrite when frag ratio exceeds
  int rewrite_max_pct = 50;             // cap: % of the object's chunks
  int rewrite_run_len = 8;              // max chunks coalesced per container

  // Recipe metadata dedup (Metadedup-style indirection): entries per
  // fixed offset-aligned recipe window.  A window compacts into one
  // content-addressed recipe chunk once its members are all flushed and
  // clean; mutated members shadow the recipe as inline omap entries
  // until enough accumulate to justify a rebuild.  Only consulted when
  // the cluster-level recipe_dedup knob is on.
  int recipe_entries = 32;

  bool enabled() const { return mode != DedupMode::kOff; }
};

struct PoolConfig {
  std::string name;
  RedundancyScheme scheme = RedundancyScheme::kReplicated;
  int replicas = 2;  // paper's experiments use replication factor 2
  int ec_k = 2;
  int ec_m = 1;
  uint32_t pg_num = 128;
  bool compress_at_rest = false;
  DedupTierConfig dedup;

  // Width of an acting set.
  int size() const {
    return scheme == RedundancyScheme::kReplicated ? replicas : ec_k + ec_m;
  }
  // Raw-capacity multiplier of the redundancy scheme.
  double space_amplification() const {
    return scheme == RedundancyScheme::kReplicated
               ? static_cast<double>(replicas)
               : static_cast<double>(ec_k + ec_m) / static_cast<double>(ec_k);
  }
};

class OsdMap {
 public:
  uint64_t epoch() const { return epoch_; }

  // --- topology ---
  void add_osd(OsdId id, HostId host, double weight = 1.0);
  void mark_down(OsdId id);
  void mark_up(OsdId id);
  bool is_up(OsdId id) const;
  // Every OSD id, ascending; kept here so hot scans take no copy.
  const std::vector<OsdId>& all_osds() const { return osd_ids_; }
  std::vector<OsdId> up_osds() const;
  int num_osds() const { return crush_.num_devices(); }

  const CrushMap& crush() const { return crush_; }

  // --- pools ---
  PoolId create_pool(PoolConfig cfg);
  bool has_pool(PoolId id) const { return pools_.count(id) > 0; }
  const PoolConfig& pool(PoolId id) const;
  // Placement-neutral: swaps the dedup tier parameters of a pool.
  void set_dedup_config(PoolId id, const DedupTierConfig& dedup);
  std::optional<PoolId> pool_by_name(const std::string& name) const;
  std::vector<PoolId> pool_ids() const;

  // --- placement ---
  uint32_t pg_of(PoolId pool, const std::string& oid) const;

  // Ordered acting set for an object (primary first).  Down OSDs are
  // excluded, so the set reflects post-failure placement.  The reference
  // points into the placement table: it stays valid for the map's
  // lifetime, but its contents change at the next liveness change, so a
  // caller that can mark an OSD down or up while it walks the set
  // (directly or through a synchronous failure hook) keeps a copy.
  const std::vector<OsdId>& acting(PoolId pool, const std::string& oid) const {
    return acting_for_pg(pool, pg_of(pool, oid));
  }
  const std::vector<OsdId>& acting_for_pg(PoolId pool, uint32_t pg) const;

  OsdId primary(PoolId pool, const std::string& oid) const {
    const auto& a = acting(pool, oid);
    return a.empty() ? -1 : a[0];
  }

 private:
  uint64_t placement_seed(PoolId pool, uint32_t pg) const;
  // Recompute every pool's PG -> acting table; called by each mutator
  // that changes the topology, liveness or the pool set.
  void rebuild_placement();

  uint64_t epoch_ = 1;
  CrushMap crush_;
  std::vector<OsdId> osd_ids_;  // sorted, as crush_.device_ids()
  std::map<OsdId, bool> up_;
  std::map<PoolId, PoolConfig> pools_;
  // [pool][pg] -> acting set, as of epoch_ (pool ids are dense from 0).
  std::vector<std::vector<std::vector<OsdId>>> placement_;
  PoolId next_pool_ = 0;
};

}  // namespace gdedup
