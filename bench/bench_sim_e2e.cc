// End-to-end simulation-core wall-clock benchmark.
//
// Runs the canonical write -> flush -> read scenario of
// sim_e2e_scenario.h on the paper's 4x4-OSD testbed shape and reports how
// many *simulated* megabytes of client traffic the simulator pushes per
// *wall-clock* second, plus scheduler events/sec and the determinism
// digest.  The digest is frozen; wall-clock throughput is reported, not
// gated, because it only means something next to another build measured
// on the same host (BENCH_SIM.json records it so the bench trajectory has
// end-to-end points, not just microbenchmarks).
//
// Modes:
//   --json=PATH       write the BENCH_SIM.json trajectory point to PATH
//   --smoke           tiny scenario; structural self-checks only (ctest)
//   --exec-threads=N  exec-pool worker count (default: GDEDUP_EXEC_THREADS
//                     or 1); the digest must not depend on N

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim_e2e_scenario.h"

namespace gdedup::bench {
namespace {

// Frozen serial digest (--exec-threads=1, this exact scenario): the
// virtual-time fingerprint of the serial run, which every thread count
// must reproduce exactly — that equality is the whole point of the
// exec-pool design (test_exec_pool enforces it at smoke scale; this check
// enforces it at full scale).  It was re-frozen for the sharded engine
// (receiver-sequenced rx + global control lane — see
// tests/test_sim_determinism.cc for the behaviour-change rationale), and
// again when the always-zero fingerprint-memo count left the digest.
constexpr const char* kFrozenDigest = "e50d5870";

SimE2eConfig smoke_config() {
  SimE2eConfig cfg;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;
  return cfg;
}

// Dedup-heavy variant for the two-tier fast-path gate: nearly every
// generated block duplicates an earlier one (long content clusters), and
// overwrites are chunk-aligned so phase-2 flushes hash whole generated
// blocks instead of unique overlay merges.  This is the workload the
// fingerprint index exists for; the default 0.5-dedupe scenario keeps the
// frozen digest and measures that the fast path costs nothing there.
SimE2eConfig dedup_heavy_config() {
  SimE2eConfig cfg;
  cfg.image_bytes = 128ull << 20;
  cfg.dedupe = 0.95;
  cfg.small_block = 32 * 1024;  // == chunk_size: aligned overwrites
  cfg.random_writes = 8192;
  cfg.random_reads = 4096;
  return cfg;
}

void print_fastpath(const SimE2eResult& r) {
  std::printf("  fp fast path         : %llu SHA run, %llu avoided\n",
              static_cast<unsigned long long>(r.sha_computed),
              static_cast<unsigned long long>(r.sha_avoided));
  std::printf("    sha avoided ratio  : %8.3f (%llu weak hits, %llu "
              "collisions, %llu bloom negatives)\n",
              r.sha_avoided_ratio(),
              static_cast<unsigned long long>(r.weak_hash_hits),
              static_cast<unsigned long long>(r.weak_collisions),
              static_cast<unsigned long long>(r.bloom_negative_hits));
  std::printf("    meta read amp      : %8.4f (%llu KB refs read, %llu KB "
              "written, %llu decodes, %llu cache hits)\n",
              r.meta_read_amp(),
              static_cast<unsigned long long>(r.meta_bytes_read / 1024),
              static_cast<unsigned long long>(r.meta_bytes_written / 1024),
              static_cast<unsigned long long>(r.refs_decodes),
              static_cast<unsigned long long>(r.refs_cache_hits));
}

// Re-run `cfg` with a weak hash that never repeats, so every index probe
// misses and every chunk pays a full SHA.  The fingerprint index is
// host-side only: the digest must equal the default run's `r`, and the
// SHAs the default run avoided must all come back.
bool fast_path_invariant(SimE2eConfig cfg, const SimE2eResult& r) {
  cfg.weak_hash_hook = never_repeating_weak_hash();
  const SimE2eResult miss = run_sim_e2e(cfg);
  std::printf("  all-miss run         : digest %s, %llu SHA run, %llu "
              "avoided\n",
              miss.digest.c_str(),
              static_cast<unsigned long long>(miss.sha_computed),
              static_cast<unsigned long long>(miss.sha_avoided));
  return miss.digest == r.digest && miss.sha_avoided == 0 &&
         miss.weak_hash_hits == 0 &&
         miss.sha_computed == r.sha_computed + r.sha_avoided;
}

int run_smoke(int exec_threads) {
  SimE2eConfig cfg = smoke_config();
  cfg.exec_threads = exec_threads;
  WallTimer wt;
  SimE2eResult r = run_sim_e2e(cfg);
  const double wall = wt.elapsed_sec();

  // Structural self-checks: the scenario must complete, drain its dedup
  // backlog, and digest every completed op plus the fixed counter block.
  const uint64_t expect_ops =
      cfg.image_bytes / cfg.preload_block + cfg.random_writes + cfg.random_reads;
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "bench_sim_e2e smoke FAILED: %s\n", what);
      ok = false;
    }
  };
  check(r.ops == expect_ops, "completed-op count mismatch");
  check(r.drained, "dedup backlog did not drain");
  check(r.sim_bytes > 0, "no simulated bytes moved");
  check(r.events > r.ops, "implausibly few scheduler events");
  check(r.digest_samples > r.ops, "digest missed the counter block");

  // Fast-path invariance at smoke scale.
  check(fast_path_invariant(cfg, r), "fast path leaked into virtual time");

  std::printf("smoke ok=%d ops=%llu events=%llu digest=%s wall=%.2fs\n",
              ok ? 1 : 0, static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.events), r.digest.c_str(),
              wall);
  return ok ? 0 : 1;
}

int run_full(const std::string& json_path, int exec_threads) {
  print_header("Simulation-core end-to-end wall-clock benchmark",
               "bench trajectory (BENCH_SIM.json); scenario of every "
               "figure/table bench");

  SimE2eConfig cfg;  // full-size defaults: 4x4 OSDs, 256 MB image
  cfg.exec_threads = exec_threads;
  WallTimer wt;
  SimE2eResult r = run_sim_e2e(cfg);
  const double wall = wt.elapsed_sec();

  const double sim_mb = static_cast<double>(r.sim_bytes) / 1e6;
  const double mb_per_wall_sec = sim_mb / wall;
  const double events_per_sec = static_cast<double>(r.events) / wall;

  std::printf("\nscenario: %d nodes x %d OSDs, %.0f MB image, %zu+%zu random ops\n",
              cfg.storage_nodes, cfg.osds_per_node,
              static_cast<double>(cfg.image_bytes) / 1e6, cfg.random_writes,
              cfg.random_reads);
  std::printf("  wall time            : %8.2f s\n", wall);
  std::printf("  simulated traffic    : %8.1f MB (%llu client ops)\n", sim_mb,
              static_cast<unsigned long long>(r.ops));
  std::printf("  sim MB / wall second : %8.1f\n", mb_per_wall_sec);
  std::printf("  events / wall second : %8.3gM\n", events_per_sec / 1e6);
  std::printf("  virtual duration     : %8.2f s (%llu events)\n",
              static_cast<double>(r.sim_duration) / kSecond,
              static_cast<unsigned long long>(r.events));
  const bool digest_ok = r.digest == kFrozenDigest;
  std::printf("  determinism digest   : %s (%llu samples, frozen %s%s)\n",
              r.digest.c_str(),
              static_cast<unsigned long long>(r.digest_samples),
              kFrozenDigest, digest_ok ? ", match" : ", MISMATCH");
  std::printf("  drained              : %s\n", r.drained ? "yes" : "NO");
  std::printf("  engine shards        : %8d (%llu windows, %llu sync barriers)\n",
              r.sim_shards_used, static_cast<unsigned long long>(r.sim.windows),
              static_cast<unsigned long long>(r.sim.shard_sync_barriers));
  std::printf("  engine dispatches    : %8llu (%llu batched, %llu ingress, "
              "%.1f KB arena)\n",
              static_cast<unsigned long long>(r.sim.events_dispatched),
              static_cast<unsigned long long>(r.sim.events_batched),
              static_cast<unsigned long long>(r.sim.ingress_messages),
              static_cast<double>(r.sim.arena_bytes) / 1024.0);
  std::printf("  exec threads         : %8d (%llu kernel jobs offloaded)\n",
              r.exec_threads_used,
              static_cast<unsigned long long>(r.kernel_jobs_offloaded));
  for (const auto& k : r.kernels) {
    std::printf("    %-12s %8llu jobs  %8.1f ms worker-busy\n", k.name,
                static_cast<unsigned long long>(k.jobs),
                static_cast<double>(k.busy_ns) / 1e6);
  }
  print_fastpath(r);

  // The same scenario with every index probe missing must reproduce the
  // digest: the fast path is host-side only.
  const bool invariant_ok = fast_path_invariant(cfg, r);

  // Dedup-heavy variant: the fast path must cut full SHA invocations by
  // at least 2x against one SHA per fingerprint request — the acceptance
  // contract for the fingerprint index.
  std::printf("\ndedup-heavy variant (dedupe=%.2f, chunk-aligned overwrites):\n",
              dedup_heavy_config().dedupe);
  SimE2eConfig hv = dedup_heavy_config();
  hv.exec_threads = exec_threads;
  WallTimer hwt;
  SimE2eResult heavy = run_sim_e2e(hv);
  const double heavy_wall = hwt.elapsed_sec();

  const double heavy_mb = static_cast<double>(heavy.sim_bytes) / 1e6;
  const double sha_reduction =
      static_cast<double>(heavy.sha_computed + heavy.sha_avoided) /
      static_cast<double>(heavy.sha_computed > 0 ? heavy.sha_computed : 1);
  std::printf("  sim MB / wall second : %8.1f\n", heavy_mb / heavy_wall);
  std::printf("  full SHA invocations : %8llu -> %llu  (%.2fx reduction)\n",
              static_cast<unsigned long long>(heavy.sha_computed +
                                              heavy.sha_avoided),
              static_cast<unsigned long long>(heavy.sha_computed),
              sha_reduction);
  print_fastpath(heavy);

  if (!json_path.empty()) {
    JsonWriter jw;
    jw.add("bench", std::string("sim_e2e"));
    jw.add("scenario", std::string("4x4osd_write_flush_read"));
    jw.add("sim_mb_per_wall_sec", mb_per_wall_sec);
    jw.add("events_per_wall_sec", events_per_sec);
    jw.add("wall_seconds", wall);
    jw.add("simulated_mb", sim_mb);
    jw.add("client_ops", static_cast<double>(r.ops));
    jw.add("scheduler_events", static_cast<double>(r.events));
    jw.add("virtual_seconds", static_cast<double>(r.sim_duration) / kSecond);
    jw.add("determinism_digest", r.digest);
    jw.add("frozen_digest", std::string(kFrozenDigest));
    jw.add("digest_samples", static_cast<double>(r.digest_samples));
    jw.add("sim_shards", static_cast<double>(r.sim_shards_used));
    jw.add("sim_events_dispatched", static_cast<double>(r.sim.events_dispatched));
    jw.add("sim_events_batched", static_cast<double>(r.sim.events_batched));
    jw.add("sim_ingress_messages", static_cast<double>(r.sim.ingress_messages));
    jw.add("sim_shard_sync_barriers",
           static_cast<double>(r.sim.shard_sync_barriers));
    jw.add("sim_windows", static_cast<double>(r.sim.windows));
    jw.add("sim_arena_bytes", static_cast<double>(r.sim.arena_bytes));
    jw.add("exec_threads", static_cast<double>(r.exec_threads_used));
    jw.add("kernel_jobs_offloaded",
           static_cast<double>(r.kernel_jobs_offloaded));
    for (const auto& k : r.kernels) {
      jw.add(std::string("offload_") + k.name + "_jobs",
             static_cast<double>(k.jobs));
      jw.add(std::string("offload_") + k.name + "_busy_ms",
             static_cast<double>(k.busy_ns) / 1e6);
    }
    jw.add("fp_sha_computed", static_cast<double>(r.sha_computed));
    jw.add("fp_sha_avoided", static_cast<double>(r.sha_avoided));
    jw.add("fp_sha_avoided_ratio", r.sha_avoided_ratio());
    jw.add("fp_weak_hash_hits", static_cast<double>(r.weak_hash_hits));
    jw.add("fp_weak_collisions", static_cast<double>(r.weak_collisions));
    jw.add("fp_bloom_negative_hits",
           static_cast<double>(r.bloom_negative_hits));
    jw.add("meta_bytes_read", static_cast<double>(r.meta_bytes_read));
    jw.add("meta_bytes_written", static_cast<double>(r.meta_bytes_written));
    jw.add("meta_read_amp", r.meta_read_amp());
    jw.add("refs_decodes", static_cast<double>(r.refs_decodes));
    jw.add("refs_cache_hits", static_cast<double>(r.refs_cache_hits));
    jw.add("fp_digest_invariant", invariant_ok ? 1.0 : 0.0);
    jw.add("heavy_sha_reduction", sha_reduction);
    jw.add("heavy_sim_mb_per_wall_sec", heavy_mb / heavy_wall);
    jw.add("heavy_sha_avoided_ratio", heavy.sha_avoided_ratio());
    jw.add("heavy_meta_read_amp", heavy.meta_read_amp());
    if (!jw.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\ntrajectory point written to %s\n", json_path.c_str());
  }
  if (!digest_ok) {
    std::fprintf(stderr,
                 "FATAL: determinism digest %s differs from the frozen "
                 "%s — the simulation is no longer bit-identical\n",
                 r.digest.c_str(), kFrozenDigest);
    return 1;
  }
  if (!invariant_ok) {
    std::fprintf(stderr,
                 "FATAL: the all-miss run differs from the default run — "
                 "the fast path leaked into virtual time\n");
    return 1;
  }
  if (sha_reduction < 2.0) {
    std::fprintf(stderr,
                 "FATAL: dedup-heavy full-SHA reduction %.2fx is below the "
                 "2x acceptance floor\n", sha_reduction);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gdedup::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  int exec_threads = 0;  // 0: GDEDUP_EXEC_THREADS (default 1)
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--exec-threads=", 15) == 0) {
      exec_threads = std::atoi(argv[i] + 15);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json=PATH] [--exec-threads=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return smoke ? gdedup::bench::run_smoke(exec_threads)
               : gdedup::bench::run_full(json_path, exec_threads);
}
