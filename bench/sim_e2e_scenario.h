#pragma once

// End-to-end simulation-core scenario shared by bench_sim_e2e and the
// determinism ctest.
//
// Drives a dedup-enabled cluster through the three phases every experiment
// in bench/ is built from — sequential preload, random small-block
// overwrites, background dedup drain, random reads — and folds every
// virtual-time observable into a determinism digest: the per-op latency
// stream in completion order, then the final stats counters (OSD, tier,
// pool, network, clock).  Two builds that produce the same digest took
// bit-identical virtual-time trajectories, so the digest is the contract
// the simulation-core fast path must preserve while making the wall clock
// faster.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "obs/timeseries.h"
#include "rados/sync.h"
#include "workload/fio_gen.h"

namespace gdedup::bench {

// Rolling CRC32C over a stream of 64-bit observables.  CRC is enough: the
// goal is drift *detection* across builds of the same code base, not
// adversarial collision resistance.
class DeterminismDigest {
 public:
  void u64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; i++) b[i] = static_cast<uint8_t>(v >> (8 * i));
    crc_ = crc32c({b, sizeof(b)}, crc_);
    count_++;
  }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

  uint64_t samples() const { return count_; }

  std::string hex() const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc_);
    return buf;
  }

 private:
  uint32_t crc_ = 0;
  uint64_t count_ = 0;
};

struct SimE2eConfig {
  int storage_nodes = 4;
  int osds_per_node = 4;
  int client_nodes = 3;
  uint64_t seed = 1;

  uint64_t image_bytes = 256ull << 20;  // sequentially preloaded span
  uint32_t object_size = 4u << 20;      // RADOS object striping
  uint32_t preload_block = 32 * 1024;   // sequential write size
  uint32_t small_block = 8 * 1024;      // random overwrite size
  size_t random_writes = 16384;
  size_t random_reads = 16384;
  int depth = 16;              // closed-loop outstanding ops
  double dedupe = 0.5;         // duplicate fraction of generated content
  uint32_t chunk_size = 32 * 1024;

  // Exec-pool worker threads for the real-byte kernels.  0 = inherit
  // GDEDUP_EXEC_THREADS (default 1 = serial).  The digest is the same for
  // every value — that is the point of the determinism tests.
  int exec_threads = 0;
  // Event-engine shards.  0 = inherit GDEDUP_SIM_SHARDS (default 1).  The
  // digest is the same for every value — enforced by test_sim_shards.
  int sim_shards = 0;
  // EC(2,1) base + chunk pools instead of 2x replicated: exercises the
  // ReedSolomon encode/decode kernels on the client and flush paths.
  bool ec = false;
  // Weak-hash override installed on every tier (DedupTier::
  // set_weak_hash_hook); nullptr keeps the real weak hash.  The digest is
  // the same for every hook — the fingerprint index changes host-side
  // work only.
  DedupTier::WeakHashHook weak_hash_hook;
  // Recipe-chunk metadata dedup.  -1 = inherit GDEDUP_RECIPE_DEDUP
  // (default off), 0 = force off, 1 = force on.  Unlike the settings above
  // this changes on-disk layout and chunk traffic, so each state has its
  // own digest; either state is shard/thread-count invariant.
  int recipe_dedup = -1;
  // Telemetry sampling cadence (0 = off).  Sampling is reported, never
  // digested: the digest is byte-identical with any value here — enforced
  // by test_telemetry.
  SimTime telemetry = 0;
};

struct SimE2eResult {
  uint64_t sim_bytes = 0;   // client payload bytes moved across all phases
  uint64_t ops = 0;         // client ops completed
  SimTime sim_duration = 0; // virtual time consumed end to end
  uint64_t events = 0;      // scheduler events executed
  bool drained = true;      // dedup backlog fully flushed
  std::string digest;       // determinism digest (latencies + counters)
  uint64_t digest_samples = 0;

  double phase_write_mbps = 0;  // virtual-time MB/s, sanity only
  double phase_read_mbps = 0;

  // Event-engine internals (Scheduler::stats(); reported, never digested).
  int sim_shards_used = 1;
  Scheduler::Stats sim;

  // Host-side exec-pool accounting (never digested: wall-clock only).
  int exec_threads_used = 1;
  uint64_t kernel_jobs_offloaded = 0;  // ran on a worker thread
  struct KernelBreakdown {
    const char* name;
    uint64_t jobs;
    uint64_t busy_ns;
  };
  std::vector<KernelBreakdown> kernels;  // per-kernel host wall time

  // Two-tier fingerprint fast path + chunk-map metadata accounting
  // (host-side observability; never digested).
  uint64_t sha_computed = 0;
  uint64_t sha_avoided = 0;
  uint64_t weak_hash_hits = 0;
  uint64_t weak_collisions = 0;
  uint64_t bloom_negative_hits = 0;
  uint64_t meta_bytes_read = 0;
  uint64_t meta_bytes_written = 0;
  uint64_t refs_decodes = 0;
  uint64_t refs_cache_hits = 0;

  // Telemetry engine accounting (reported, never digested).
  uint64_t telemetry_ticks = 0;

  // Share of fingerprint requests answered without running the full SHA
  // (verified index hits over all requests).
  double sha_avoided_ratio() const {
    const uint64_t total = sha_computed + sha_avoided;
    if (total == 0) return 0.0;
    return static_cast<double>(sha_avoided) / static_cast<double>(total);
  }
  // Chunk-map metadata bytes read per client payload byte moved.
  double meta_read_amp() const {
    if (sim_bytes == 0) return 0.0;
    return static_cast<double>(meta_bytes_read) /
           static_cast<double>(sim_bytes);
  }
};

// Wrap an issuer so each completion folds its latency into the digest.
inline IssueFn digesting_issuer(Cluster& c, IssueFn inner,
                                DeterminismDigest* dig) {
  return [&c, inner = std::move(inner), dig](
             size_t idx, std::function<void(uint64_t)> done) {
    const SimTime issued = c.sched().now();
    inner(idx, [&c, dig, issued, done = std::move(done)](uint64_t bytes) {
      dig->i64(c.sched().now() - issued);
      done(bytes);
    });
  };
}

// A weak hash that never repeats a value: every fingerprint-index probe
// misses, so every chunk pays a full SHA.  One counter serves every tier
// the returned hook is copied to.
inline DedupTier::WeakHashHook never_repeating_weak_hash() {
  auto next = std::make_shared<std::atomic<uint64_t>>(0);
  return [next](const Buffer&) { return next->fetch_add(1); };
}

inline void digest_final_state(Cluster& c, PoolId base_pool, PoolId chunk_pool,
                               DeterminismDigest* dig) {
  for (int idx : {l_osd_client_ops, l_osd_reads, l_osd_writes,
                  l_osd_sub_writes, l_osd_chunk_puts, l_osd_chunk_created,
                  l_osd_chunk_dedup_hits, l_osd_chunk_derefs,
                  l_osd_chunks_reclaimed, l_osd_pulls, l_osd_pushes}) {
    dig->u64(c.perf_sum(idx));
  }
  for (int idx : {l_tier_writes, l_tier_reads, l_tier_removes,
                  l_tier_prereads, l_tier_flush_merges,
                  l_tier_cached_read_chunks, l_tier_redirected_read_chunks,
                  l_tier_chunks_flushed, l_tier_flush_bytes,
                  l_tier_noop_flushes, l_tier_derefs, l_tier_evictions,
                  l_tier_capacity_evictions, l_tier_promotions,
                  l_tier_hot_skips, l_tier_racy_flushes}) {
    dig->u64(c.perf_sum(idx, base_pool));
  }

  for (PoolId p : {base_pool, chunk_pool}) {
    const ObjectStore::Stats s = c.pool_stats(p);
    dig->u64(s.objects);
    dig->u64(s.logical_bytes);
    dig->u64(s.stored_data_bytes);
    dig->u64(s.xattr_bytes);
    dig->u64(s.omap_bytes);
    dig->u64(s.physical_bytes);
  }

  dig->u64(c.net().total_bytes_sent());
  dig->i64(c.sched().now());
}

// Run the canonical write -> flush -> read scenario for `cfg`.
inline SimE2eResult run_sim_e2e(const SimE2eConfig& cfg) {
  ClusterConfig cc;
  cc.storage_nodes = cfg.storage_nodes;
  cc.osds_per_node = cfg.osds_per_node;
  cc.client_nodes = cfg.client_nodes;
  cc.exec_threads = cfg.exec_threads;
  cc.sim_shards = cfg.sim_shards;
  cc.recipe_dedup = cfg.recipe_dedup;
  Cluster c(cc);

  const PoolId base = cfg.ec ? c.create_ec_pool("base", 2, 1)
                             : c.create_replicated_pool("base", 2);
  const PoolId chunks = cfg.ec ? c.create_ec_pool("chunks", 2, 1)
                               : c.create_replicated_pool("chunks", 2);
  c.enable_dedup(base, chunks, bench_tier_config(cfg.chunk_size));
  if (cfg.weak_hash_hook) {
    for (Osd* o : c.osds()) {
      c.tier_of(o->id(), base)->set_weak_hash_hook(cfg.weak_hash_hook);
    }
  }

  RadosClient client(&c, c.client_node(0));
  BlockDevice bdev(&client, base, "e2e-image", cfg.image_bytes,
                   cfg.object_size);

  DeterminismDigest dig;
  SimE2eResult res;
  const SimTime t0 = c.sched().now();

  // Optional telemetry sampling riding along on the control lane.  The
  // digest below must not move by a single byte whether this runs or not.
  std::unique_ptr<obs::TelemetryEngine> telemetry;
  if (cfg.telemetry > 0) {
    obs::TelemetryConfig tc;
    tc.interval = cfg.telemetry;
    telemetry = std::make_unique<obs::TelemetryEngine>(
        &c.sched(), c.perf_registry(), tc);
    telemetry->add_default_series();
    telemetry->set_presample([&c](SimTime) { c.sync_telemetry_gauges(); });
    telemetry->start();
  }

  // Phase 1: sequential preload (dedupe-laden content, fio semantics).
  workload::FioConfig fio;
  fio.total_bytes = cfg.image_bytes;
  fio.block_size = cfg.preload_block;
  fio.dedupe_ratio = cfg.dedupe;
  fio.seed = cfg.seed;
  workload::FioGenerator gen(fio);
  {
    const uint32_t bs = gen.block_size();
    LoadResult r = run_closed_loop(
        c, gen.num_blocks(), cfg.depth,
        digesting_issuer(
            c,
            [&](size_t idx, std::function<void(uint64_t)> done) {
              bdev.write(static_cast<uint64_t>(idx) * bs, gen.block(idx),
                         [done = std::move(done), bs](Status) { done(bs); });
            },
            &dig));
    res.sim_bytes += r.bytes;
    res.ops += r.ops;
    res.phase_write_mbps = r.mbps();
  }

  // Phase 2: random small-block overwrites.
  {
    auto ops = workload::make_random_ops(cfg.image_bytes, cfg.small_block,
                                         cfg.random_writes, /*writes=*/true,
                                         cfg.dedupe, cfg.seed ^ 0x5EED);
    LoadResult r = run_closed_loop(
        c, ops.size(), cfg.depth,
        digesting_issuer(c, make_bdev_issuer(c, bdev, ops), &dig));
    res.sim_bytes += r.bytes;
    res.ops += r.ops;
  }

  // Phase 3: drain the dedup backlog (flush + chunk-pool traffic).
  res.drained = c.drain_dedup();

  // Phase 4: random reads over the deduplicated image.
  {
    auto ops = workload::make_random_ops(cfg.image_bytes, cfg.small_block,
                                         cfg.random_reads, /*writes=*/false,
                                         0.0, cfg.seed ^ 0xBEEF);
    LoadResult r = run_closed_loop(
        c, ops.size(), cfg.depth,
        digesting_issuer(c, make_bdev_issuer(c, bdev, ops), &dig));
    res.sim_bytes += r.bytes;
    res.ops += r.ops;
    res.phase_read_mbps = r.mbps();
  }

  if (telemetry) {
    telemetry->stop();
    res.telemetry_ticks = telemetry->ticks();
  }

  digest_final_state(c, base, chunks, &dig);
  res.sim_duration = c.sched().now() - t0;
  res.events = c.sched().events_executed();
  res.digest = dig.hex();
  res.digest_samples = dig.samples();
  res.sim_shards_used = c.sched().shards();
  res.sim = c.sched().stats();

  ExecPool* xp = c.exec_pool();
  res.exec_threads_used = xp->threads();
  res.kernel_jobs_offloaded = xp->jobs_offloaded();
  for (int k = 0; k < static_cast<int>(Kernel::kCount); k++) {
    const auto s = xp->kernel_stats(static_cast<Kernel>(k));
    if (s.jobs == 0) continue;
    res.kernels.push_back({kernel_name(static_cast<Kernel>(k)), s.jobs,
                           s.busy_ns});
  }

  res.sha_computed = c.perf_sum(l_tier_sha_computed, base);
  res.sha_avoided = c.perf_sum(l_tier_sha_avoided, base);
  res.weak_hash_hits = c.perf_sum(l_tier_weak_hash_hits, base);
  res.weak_collisions = c.perf_sum(l_tier_weak_collisions, base);
  res.bloom_negative_hits = c.perf_sum(l_tier_bloom_negative_hits, base);
  res.meta_bytes_read = c.perf_sum(l_osd_meta_bytes_read);
  res.meta_bytes_written = c.perf_sum(l_osd_meta_bytes_written);
  res.refs_decodes = c.perf_sum(l_osd_refs_decodes);
  res.refs_cache_hits = c.perf_sum(l_osd_refs_cache_hits);
  return res;
}

}  // namespace gdedup::bench
