#pragma once

// Cluster bring-up and lifecycle.
//
// Owns the scheduler, the network, per-node CPU models, the OSDMap and all
// OSDs; implements ClusterContext for them.  Shapes the paper's testbed by
// default: 4 storage nodes x 4 OSDs, 3 client nodes, 10GbE, SATA-SSD-class
// devices, 12-core Xeons.  Also hosts the failure / recovery / dedup
// orchestration the experiments script against.

#include <map>
#include <set>
#include <memory>
#include <vector>

#include "dedup/tier.h"
#include "obs/op_tracker.h"
#include "obs/perf_counters.h"
#include "osd/cluster_context.h"
#include "osd/osd.h"
#include "sim/disk.h"

namespace gdedup {

struct ClusterConfig {
  int storage_nodes = 4;
  int osds_per_node = 4;
  int client_nodes = 3;
  NetworkConfig net;
  SsdConfig ssd;
  CpuConfig cpu;
  // When > 0, client-side OSD ops time out with kUnavailable after this
  // long without a reply, so crashed OSDs (which drop in-flight ops on the
  // floor) cannot wedge the dedup engines.  0 keeps the legacy wait-forever
  // behaviour for latency-exact benches.
  SimTime op_timeout = 0;
  // Worker threads for the real-byte kernels (fingerprint, CDC, CRC, EC,
  // compression).  0 = take GDEDUP_EXEC_THREADS from the environment
  // (default 1).  1 = serial: no workers, kernels run inline at the
  // virtual completion exactly as before.  Any value produces the same
  // determinism digest; only wall-clock changes.
  int exec_threads = 0;
  // Event-engine shards (conservative parallel DES partitions).  0 = take
  // GDEDUP_SIM_SHARDS from the environment (default 1).  Any value
  // produces the same determinism digest — storage nodes spread round-
  // robin over shards, client nodes pin to shard 0; whether shard windows
  // actually run on worker threads is a separate switch
  // (GDEDUP_SIM_PARALLEL / Scheduler::set_parallel).
  int sim_shards = 0;
  // Recipe-chunk metadata dedup + batched omap write path: -1 = take
  // GDEDUP_RECIPE_DEDUP from the environment (default OFF), 0 = off,
  // 1 = on.  Changes on-disk omap layout and chunk-pool traffic, so the
  // two states have *different* digests; each state is individually
  // deterministic at any shards x threads (see DESIGN.md §14).
  int recipe_dedup = -1;
  // OpTracker ring sizes.  0 = GDEDUP_OPS_HISTORY env / built-in defaults;
  // out-of-range values are validated loudly and clamped (see
  // obs::OpTracker::resolve_historic_cap).
  int ops_history = 0;
  int ops_slow_board = 0;
};

// Perf-counter indices for the event engine (registry entity "sim").
// Gauges, not counters: the Scheduler keeps its own tallies and the
// cluster mirrors them into the registry on demand (sync_sim_counters),
// so obs::dump sees engine totals without the hot dispatch loop paying a
// registry write per event.  Wall-clock-only values (they depend on shard
// count and window geometry) — reported, never digested.
enum {
  l_sim_first = 5000,
  l_sim_shards,
  l_sim_events_dispatched,
  l_sim_events_batched,
  l_sim_ingress_messages,
  l_sim_shard_sync_barriers,
  l_sim_windows,
  l_sim_arena_bytes,
  l_sim_last,
};

// Per-pool capacity gauges (registry entity "pool.<id>.<name>"), mirrored
// from ObjectStore::Stats by sync_telemetry_gauges().  Virtual-time
// deterministic — safe to include in timelines at any shard count.
enum {
  l_pool_first = 5200,
  l_pool_objects,
  l_pool_logical_bytes,
  l_pool_stored_data_bytes,
  l_pool_xattr_bytes,
  l_pool_omap_bytes,
  l_pool_physical_bytes,
  l_pool_last,
};

// Cluster-wide derived efficiency ratios (registry entity "derived") —
// the summary_line numbers promoted to first-class gauges so the
// telemetry sampler and the obs JSON dump see them.  Gauges are int64, so
// ratios are fixed-point: _ppm = parts per million, read-amp = chunk
// objects touched per GiB of logical read.
enum {
  l_derived_first = 5100,
  l_derived_dedup_ratio_ppm,       // 1e6 * (1 - physical/logical)
  l_derived_read_amp_objs_per_gb,  // chunk objects per GiB logical read
  l_derived_read_rpcs,             // chunk-pool read round trips
  l_derived_asm_hit_ppm,           // assembly-cache hits per redirected read
  l_derived_sha_avoided_ppm,       // SHA computations avoided by fast path
  l_derived_meta_read_amp_ppm,     // metadata bytes read per logical byte
  l_derived_meta_dedup_ratio_ppm,  // 1e6 * baseline/actual metadata bytes
  l_derived_last,
};

class Cluster : public ClusterContext {
 public:
  explicit Cluster(ClusterConfig cfg = {});
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- ClusterContext ---
  Scheduler& sched() override { return sched_; }
  Network& net() override { return net_; }
  OsdMap& osdmap() override { return osdmap_; }
  Osd* osd(OsdId id) override;
  NodeId node_of_osd(OsdId id) const override;
  CpuModel& node_cpu(NodeId node) override { return *node_cpus_[static_cast<size_t>(node)]; }
  SimTime op_timeout() const override { return cfg_.op_timeout; }
  obs::PerfRegistry* perf_registry() override { return &perf_registry_; }
  obs::OpTracker* op_tracker() override { return &op_tracker_; }
  ExecPool* exec_pool() override { return &exec_pool_; }
  bool recipe_dedup() const override { return recipe_dedup_; }
  FingerprintIndex* fp_index(NodeId node) override;

  // --- topology ---
  const ClusterConfig& config() const { return cfg_; }
  int num_osds() const { return static_cast<int>(osds_.size()); }
  int num_nodes() const { return cfg_.storage_nodes + cfg_.client_nodes; }
  // Client nodes are numbered after storage nodes.
  NodeId client_node(int i = 0) const {
    return cfg_.storage_nodes + (i % std::max(1, cfg_.client_nodes));
  }
  std::vector<Osd*> osds();

  // --- pools ---
  PoolId create_pool(PoolConfig cfg);
  PoolId create_replicated_pool(const std::string& name, int replicas = 2,
                                uint32_t pg_num = 128, bool compress = false);
  PoolId create_ec_pool(const std::string& name, int k = 2, int m = 1,
                        uint32_t pg_num = 128, bool compress = false);

  // Attach `params` (mode, chunk size, watermarks, ...) to metadata_pool,
  // pointing at chunk_pool, and install + start a DedupTier on every OSD.
  void enable_dedup(PoolId metadata_pool, PoolId chunk_pool,
                    DedupTierConfig params);

  DedupTier* tier_of(OsdId osd, PoolId metadata_pool);

  // Sum of one perf counter across the cluster: an l_tier_* index sums
  // the dedup tiers (only those of `metadata_pool` when it is >= 0), an
  // l_osd_* index sums the OSDs.
  uint64_t perf_sum(int idx, PoolId metadata_pool = -1);

  // --- expansion / rebalancing ---
  // Add a fresh OSD to an existing storage node at runtime.  Placement
  // remaps the minimal straw2 share of PGs to it; recover() then
  // backfills them (the paper's "data rebalancing reuses storage
  // features" claim, exercised in tests).
  OsdId add_osd(NodeId host, double weight = 1.0);

  // --- failure & recovery ---
  void fail_osd(OsdId id);            // down; ops answered kUnavailable
  void crash_osd(OsdId id);           // down; in-flight ops silently lost
  void revive_osd(OsdId id, bool wipe_store);

  // Backfill every object whose acting set has members missing it; runs
  // the scheduler to completion of recovery and returns the virtual-time
  // duration.  `objects_recovered`/`bytes_recovered` out-params optional.
  // The tiers of OSDs revived after a crash rebuilt their dirty lists from
  // the copies they held then; once the newer copies written during the
  // outage are installed, they pick up the objects those copies leave
  // dirty (DedupTier::rescan_dirty).
  SimTime recover(uint64_t* objects_recovered = nullptr,
                  uint64_t* bytes_recovered = nullptr);

  // --- dedup orchestration ---
  // Run virtual time until every tier's backlog drains (no dirty objects,
  // no pending derefs), or until `max_wait` elapses.  Returns drained?
  // A down OSD's tiers cannot drain, so once the only backlog left is
  // theirs this returns false at once.
  bool drain_dedup(SimTime max_wait = sec(7200));

  // --- stats ---
  ObjectStore::Stats pool_stats(PoolId pool) const;
  uint64_t total_physical_bytes() const;

  // Mirror the scheduler's event-engine tallies into the "sim" registry
  // entity (obs::dump calls this before walking the registry).
  void sync_sim_counters();

  // Refresh every on-demand gauge: sim engine tallies, per-tier backlog /
  // rate-controller posture, per-pool capacity entities, and the cluster-
  // wide "derived" efficiency ratios.  Wire this as the TelemetryEngine
  // presample hook; obs::dump also calls it so one-shot dumps are fresh.
  // Pure reads of simulated state — never advances virtual time.
  void sync_telemetry_gauges();
  void sync_pool_counters();
  void sync_derived_counters();

  // Sum of cumulative CPU busy-ns across storage nodes (for CPU% windows).
  uint64_t storage_cpu_busy_ns() const;
  double storage_cpu_utilization(uint64_t busy_before, SimTime t0,
                                 SimTime t1) const;

 private:
  ClusterConfig cfg_;
  Scheduler sched_;
  // Declared before the OSDs: teardown may still hold kernel tokens in
  // queued op closures, and the pool must outlive every future.
  ExecPool exec_pool_;
  // Observability: declared before the OSDs so entities can register at
  // construction and the registry outlives them on teardown.
  obs::PerfRegistry perf_registry_;
  obs::OpTracker op_tracker_;
  obs::PerfCountersRef sim_pc_;  // "sim" entity; see sync_sim_counters()
  obs::PerfCountersRef derived_pc_;  // "derived"; see sync_derived_counters()
  std::map<PoolId, obs::PerfCountersRef> pool_pcs_;  // "pool.<id>.<name>"
  Network net_;
  OsdMap osdmap_;
  std::vector<std::unique_ptr<CpuModel>> node_cpus_;
  std::vector<std::unique_ptr<Osd>> osds_;
  std::map<OsdId, NodeId> osd_node_;
  bool recipe_dedup_;
  // OSDs revived after a crash whose tiers recover() must rescan.
  std::set<OsdId> revived_since_recover_;
  // One fingerprint index per storage node, shared by that node's tiers
  // (thread-confined to the node's engine shard; see fingerprint_index.h).
  std::vector<std::unique_ptr<FingerprintIndex>> node_fp_indexes_;
};

}  // namespace gdedup
