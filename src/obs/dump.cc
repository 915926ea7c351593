#include "obs/dump.h"

#include <cstdio>

#include "dedup/tier.h"
#include "obs/json.h"
#include "obs/op_tracker.h"
#include "obs/perf_counters.h"
#include "osd/osd.h"
#include "rados/cluster.h"

namespace gdedup::obs {

std::string dump(Cluster& cluster, size_t slow_ops) {
  // Mirror every on-demand gauge (event engine, tier backlog / rate
  // posture, pool capacity, derived efficiency ratios) so the counters
  // section carries them as first-class entities.
  cluster.sync_telemetry_gauges();

  JsonWriter w;
  w.begin_object();
  w.kv("sim_time_ns", static_cast<int64_t>(cluster.sched().now()));

  w.key("counters");
  cluster.perf_registry()->dump(w);

  // Per-pool aggregate store stats (pool ids ascend; names disambiguate).
  w.key("pools");
  w.begin_object();
  for (PoolId pid : cluster.osdmap().pool_ids()) {
    const PoolConfig& pc = cluster.osdmap().pool(pid);
    w.key("pool." + std::to_string(pid) + "." + pc.name);
    const ObjectStore::Stats st = cluster.pool_stats(pid);
    w.begin_object();
    w.kv("objects", st.objects);
    w.kv("logical_bytes", st.logical_bytes);
    w.kv("stored_data_bytes", st.stored_data_bytes);
    w.kv("xattr_bytes", st.xattr_bytes);
    w.kv("omap_bytes", st.omap_bytes);
    w.kv("physical_bytes", st.physical_bytes);
    w.end_object();
  }
  w.end_object();

  w.key("ops");
  cluster.op_tracker()->dump(w, slow_ops);

  w.end_object();
  return w.str() + "\n";
}

std::string summary_line(Cluster& cluster) {
  const PerfRegistry& reg = *cluster.perf_registry();
  const OpTracker& trk = *cluster.op_tracker();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "obs: entities=%zu counters=%zu ops=%llu/%llu",
                reg.num_entities(), reg.num_counters(),
                static_cast<unsigned long long>(trk.started()),
                static_cast<unsigned long long>(trk.finished()));
  std::string out = buf;

  // Every ratio goes through safe_div so an idle cluster prints 0.000
  // rather than nan/inf (or silently dropping the segment).
  auto safe_div = [](uint64_t num, uint64_t den) {
    return den > 0
               ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
  };

  // Fingerprint fast path, chunk-map metadata traffic, and restore-path
  // read amplification, summed across the cluster's tiers and OSDs.
  const uint64_t sha_computed = cluster.perf_sum(l_tier_sha_computed);
  const uint64_t sha_avoided = cluster.perf_sum(l_tier_sha_avoided);
  const uint64_t meta_read = cluster.perf_sum(l_osd_meta_bytes_read);
  const uint64_t meta_written = cluster.perf_sum(l_osd_meta_bytes_written);
  const uint64_t read_bytes = cluster.perf_sum(l_tier_read_logical_bytes);
  const uint64_t read_objects = cluster.perf_sum(l_tier_read_chunk_objects);
  uint64_t client_bytes = 0;
  for (PoolId pid : cluster.osdmap().pool_ids()) {
    client_bytes += cluster.pool_stats(pid).logical_bytes;
  }
  std::snprintf(buf, sizeof(buf),
                " sha_avoided=%.3f meta_read_amp=%.4f meta_kb=%llu/%llu",
                safe_div(sha_avoided, sha_computed + sha_avoided),
                safe_div(meta_read, client_bytes),
                static_cast<unsigned long long>(meta_read / 1024),
                static_cast<unsigned long long>(meta_written / 1024));
  out += buf;
  // meta_dedup: bytes of fixed-format metadata one actually-written byte
  // stands in for (1.0 = parity; recipe mode drives it up).  recipes:
  // recipe chunks created / deduplicated against an existing one.
  std::snprintf(buf, sizeof(buf), " meta_dedup=%.2f recipes=%llu/%llu",
                safe_div(cluster.perf_sum(l_tier_meta_bytes_baseline),
                         cluster.perf_sum(l_tier_meta_bytes_actual)),
                static_cast<unsigned long long>(
                    cluster.perf_sum(l_tier_recipe_chunks)),
                static_cast<unsigned long long>(
                    cluster.perf_sum(l_tier_recipe_hits)));
  out += buf;
  // read_amp: distinct chunk-pool objects touched per logical MB read
  // (Section 3.4's restore-locality figure of merit); asm_hit: fraction
  // of remote chunk reads served from the forward-assembly window.
  std::snprintf(buf, sizeof(buf), " read_amp=%.2f/MB asm_hit=%.3f rpc=%llu",
                read_bytes > 0 ? static_cast<double>(read_objects) /
                                     (static_cast<double>(read_bytes) /
                                      (1024.0 * 1024.0))
                               : 0.0,
                safe_div(cluster.perf_sum(l_tier_asm_hits),
                         cluster.perf_sum(l_tier_redirected_read_chunks)),
                static_cast<unsigned long long>(
                    cluster.perf_sum(l_tier_read_chunk_rpcs)));
  out += buf;
  auto slow = trk.dump_historic_slow_ops(1);
  if (!slow.empty()) {
    out += " slowest: ";
    out += slow[0]->text();
  }
  return out;
}

}  // namespace gdedup::obs
