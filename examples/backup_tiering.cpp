// Backup ingest with a live foreground workload: the rate controller and
// the hotness-aware cache manager working together.
//
// A database keeps hammering a small hot region (stays cached in the
// metadata pool, never deduplicated while hot) while a bulk backup stream
// pours cold data in behind it.  Prints the foreground latency with and
// without rate control, plus cache-manager counters.
//
//   $ ./backup_tiering [seconds=10]

#include <cstdio>

#include "common/histogram.h"
#include "common/options.h"
#include "rados/cluster.h"
#include "rados/sync.h"
#include "sim/metrics.h"
#include "workload/content.h"

using namespace gdedup;

namespace {

struct RunStats {
  double fg_mean_ms;
  double fg_p99_ms;
  uint64_t hot_skips;
  uint64_t evictions;
  uint64_t flushed;
};

RunStats run(bool rate_control, SimTime duration) {
  Cluster cluster;
  const PoolId meta = cluster.create_replicated_pool("meta", 2);
  const PoolId chunks = cluster.create_replicated_pool("chunks", 2);
  DedupTierConfig tier;
  tier.mode = DedupMode::kPostProcess;
  tier.rate_control = rate_control;
  tier.low_watermark_iops = 200;
  tier.high_watermark_iops = 1500;
  tier.hitcount_threshold = 2;  // hot region heats up fast
  tier.hitset_period = kSecond;
  tier.max_dedup_per_tick = 256;
  cluster.enable_dedup(meta, chunks, tier);
  RadosClient fg_client(&cluster, cluster.client_node(0));
  RadosClient bk_client(&cluster, cluster.client_node(1));

  // Foreground: 8KB writes over 16 hot objects, ~2000 IOPS, open loop.
  Histogram fg_lat;
  Rng rng(5);
  size_t fg_outstanding = 0;
  const double fg_gap = static_cast<double>(kSecond) / 2000.0;
  for (SimTime t = 0; t < duration; t += static_cast<SimTime>(fg_gap)) {
    cluster.sched().at(t, [&, t] {
      const std::string oid = "hot" + std::to_string(rng.below(16));
      Buffer data = workload::BlockContent::make(rng.next(), 8192);
      fg_outstanding++;
      fg_client.write(meta, oid, rng.below(4) * 8192, std::move(data),
                      [&, t](Status) {
                        fg_lat.record(static_cast<uint64_t>(
                            cluster.sched().now() - t));
                        fg_outstanding--;
                      });
    });
  }

  // Background: 1MB backup objects streamed continuously (cold, unique).
  uint64_t backup_idx = 0;
  std::function<void()> pour = [&]() {
    if (cluster.sched().now() >= duration) return;
    Buffer obj = workload::BlockContent::make(mix64(backup_idx) | 1, 1 << 20,
                                              0.3);
    const std::string oid = "backup." + std::to_string(backup_idx++);
    bk_client.write_full(meta, oid, std::move(obj), [&](Status) { pour(); });
  };
  pour();

  cluster.sched().run_until(duration);
  while (fg_outstanding > 0 && cluster.sched().step()) {
  }

  return {fg_lat.mean() / 1e6,
          static_cast<double>(fg_lat.percentile(0.99)) / 1e6,
          cluster.perf_sum(l_tier_hot_skips, meta),
          cluster.perf_sum(l_tier_evictions, meta),
          cluster.perf_sum(l_tier_chunks_flushed, meta)};
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv, "seconds=<virtual duration>");
  const SimTime dur = sec(static_cast<double>(opts.get_int("seconds", 10)));
  opts.check_unused();

  std::printf("backup ingest behind a 2000-IOPS hot database workload\n\n");
  std::printf("%-16s %14s %14s %12s %12s %12s\n", "rate control",
              "fg mean ms", "fg p99 ms", "hot skips", "evictions",
              "chunks flushed");
  std::printf("%s\n", std::string(84, '-').c_str());
  for (bool rc : {false, true}) {
    const RunStats s = run(rc, dur);
    std::printf("%-16s %14.3f %14.3f %12llu %12llu %12llu\n",
                rc ? "on" : "off", s.fg_mean_ms, s.fg_p99_ms,
                static_cast<unsigned long long>(s.hot_skips),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.flushed));
  }
  std::printf("\nexpected: the hot objects rack up hot-skips instead of "
              "churning through the chunk\npool, and rate control trims the "
              "flush stream on the OSDs the database keeps busy\n(watermarks "
              "are per-OSD, so the idle backup targets still drain freely).\n");
  return 0;
}
