// bench_meta — recipe-chunk metadata dedup + batched omap write path.
//
// The workload the feature is for: T tenants each store the same M
// objects (the shared-image / backup-fleet case), then churn them in
// small identical increments.  Every tenant's chunk map is byte-identical
// per object index, so in recipe mode the compactor's content-addressed
// recipe chunks deduplicate T-ways while the batched write path coalesces
// each flush cycle's omap mutations into one transaction per object.
//
// Measured three ways:
//
//   off        — legacy per-entry 150-byte records, one txn per record.
//   on         — packed/id-less records, recipe compaction, batched txns.
//   gate       — off.meta_bytes_actual / on.meta_bytes_actual >= 4x.
//
// plus the packed-codec footprint assertions (satellite of the 150-byte
// paper format: a flushed sha256 entry must pack to <= 48 bytes, an
// id-less dirty record to <= 8 + key) and, in --smoke, a frozen recipe-
// mode digest: the recipe write path is deterministic at any shard or
// thread count, so this digest only moves when the feature itself does.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dedup/chunk_map.h"
#include "sim_e2e_scenario.h"

namespace gdedup::bench {
namespace {

// Frozen recipe-mode smoke digest (latencies + final counters + omap
// state).  Regenerate with: bench_meta --smoke (prints the digest).
// Re-frozen when the always-zero fingerprint-memo count left the digest.
constexpr const char* kFrozenSmokeRecipeDigest = "af83cd00";

struct MetaConfig {
  int recipe = 0;         // ClusterConfig.recipe_dedup: 0 force off, 1 on
  int tenants = 8;
  int objects = 4;        // per tenant
  int chunks_per_obj = 16;
  int churn_rounds = 6;   // overwrite+drain cycles after preload
};

struct MetaResult {
  uint64_t meta_bytes_actual = 0;
  uint64_t meta_bytes_baseline = 0;
  uint64_t meta_txns = 0;
  uint64_t recipe_chunks = 0;
  uint64_t recipe_hits = 0;
  uint64_t omap_bytes = 0;  // metadata-pool omap footprint at rest
  bool drained = true;
  std::string digest;
};

constexpr uint32_t kChunk = 32 * 1024;

std::string oid_of(int tenant, int obj) {
  return "t" + std::to_string(tenant) + ".obj" + std::to_string(obj);
}

// Chunk content for (object index, chunk slot, version).  Tenant never
// feeds the seed: equal object indexes are byte-identical fleet-wide,
// which is exactly what makes their windows (and recipe chunks) dedup.
Buffer chunk_content(int obj, int slot, int version) {
  const uint64_t seed = 0x9e3779b97f4a7c15ull * (obj + 1) +
                        0x100000001b3ull * (slot + 1) + version;
  Buffer b(kChunk);
  Rng rng(seed);
  rng.fill(b.mutable_data(), kChunk);
  return b;
}

MetaResult run_meta(const MetaConfig& mc, bool print_summary) {
  ClusterConfig cc;
  cc.storage_nodes = 2;
  cc.osds_per_node = 2;
  cc.client_nodes = 1;
  cc.recipe_dedup = mc.recipe;
  Cluster c(cc);

  const PoolId meta = c.create_replicated_pool("meta", 2);
  const PoolId chunks = c.create_replicated_pool("chunks", 2);
  DedupTierConfig t = bench_tier_config(kChunk);
  t.rate_control = false;      // metadata accounting, not rate posture
  t.promote_on_read = false;
  t.hitcount_threshold = 1000000;  // everything cold: full flush + evict
  t.recipe_entries = 8;            // two windows per 16-chunk object
  c.enable_dedup(meta, chunks, t);

  RadosClient client(&c, c.client_node(0));
  DeterminismDigest dig;
  MetaResult res;

  // Phase 1: fleet preload — every tenant uploads the same M objects.
  struct Op {
    std::string oid;
    uint64_t off;
    int obj;
    int slot;   // -1: whole object
    int version;
  };
  std::vector<Op> ops;
  for (int tn = 0; tn < mc.tenants; tn++) {
    for (int ob = 0; ob < mc.objects; ob++) {
      ops.push_back({oid_of(tn, ob), 0, ob, -1, 0});
    }
  }
  auto issue = [&](size_t idx, std::function<void(uint64_t)> done) {
    const Op& op = ops[idx];
    Buffer data;
    if (op.slot < 0) {
      Buffer whole(static_cast<size_t>(mc.chunks_per_obj) * kChunk);
      for (int s = 0; s < mc.chunks_per_obj; s++) {
        Buffer piece = chunk_content(op.obj, s, op.version);
        memcpy(whole.mutable_data() + static_cast<size_t>(s) * kChunk,
               piece.data(), kChunk);
      }
      data = std::move(whole);
    } else {
      data = chunk_content(op.obj, op.slot, op.version);
    }
    const uint64_t n = data.size();
    client.write(meta, op.oid, op.off, std::move(data),
                 [done = std::move(done), n](Status) { done(n); });
  };
  run_closed_loop(c, ops.size(), /*depth=*/8,
                  digesting_issuer(c, issue, &dig));
  res.drained = c.drain_dedup() && res.drained;

  // Phase 2: churn — each round overwrites one slot per object (the same
  // slot with the same bytes across tenants, so cross-tenant identity
  // survives) and drains, exercising the dirty-record / re-compaction /
  // batched-txn cycle end to end.
  for (int round = 1; round <= mc.churn_rounds; round++) {
    ops.clear();
    for (int tn = 0; tn < mc.tenants; tn++) {
      for (int ob = 0; ob < mc.objects; ob++) {
        const int slot = (3 * round + ob) % mc.chunks_per_obj;
        ops.push_back({oid_of(tn, ob),
                       static_cast<uint64_t>(slot) * kChunk, ob, slot,
                       round});
      }
    }
    run_closed_loop(c, ops.size(), /*depth=*/8,
                    digesting_issuer(c, issue, &dig));
    res.drained = c.drain_dedup() && res.drained;
  }

  digest_final_state(c, meta, chunks, &dig);
  res.digest = dig.hex();

  res.meta_bytes_actual = c.perf_sum(l_tier_meta_bytes_actual, meta);
  res.meta_bytes_baseline = c.perf_sum(l_tier_meta_bytes_baseline, meta);
  res.meta_txns = c.perf_sum(l_tier_meta_txns, meta);
  res.recipe_chunks = c.perf_sum(l_tier_recipe_chunks, meta);
  res.recipe_hits = c.perf_sum(l_tier_recipe_hits, meta);
  res.omap_bytes = c.pool_stats(meta).omap_bytes;
  if (print_summary) print_obs_summary(c);
  return res;
}

// Packed-codec footprint: the satellite bytes-per-entry bound.  A flushed
// sha256 entry must undercut the paper's 150-byte record by > 3x, and the
// id-less dirty record the batched path persists stays single-digit.
bool check_entry_footprint() {
  ChunkMapEntry e;
  e.offset = 42ull * kChunk;
  e.length = kChunk;
  Buffer probe(kChunk);
  e.chunk_id =
      Fingerprint::compute(FingerprintAlgo::kSha256, probe.span()).hex();
  const size_t flushed = ChunkMap::encode_entry_packed(e).size();

  ChunkMapEntry d;
  d.offset = 42ull * kChunk;
  d.length = kChunk;
  d.dirty = true;
  d.cached = true;
  const size_t dirty = ChunkMap::encode_entry_packed(d).size();

  std::printf("packed entry bytes: flushed=%zu (<= 48), dirty=%zu (<= 8), "
              "legacy=%zu\n",
              flushed, dirty, ChunkMap::kEntryEncodedBytes);
  bool ok = true;
  if (flushed > 48) {
    std::printf("FAIL: packed flushed entry %zu bytes > 48\n", flushed);
    ok = false;
  }
  if (dirty > 8) {
    std::printf("FAIL: packed dirty entry %zu bytes > 8\n", dirty);
    ok = false;
  }
  return ok;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  print_header("Recipe-chunk metadata dedup + batched omap writes",
               "Section 5 Table 2 — metadata overhead, Metadedup-style");

  bool ok = check_entry_footprint();

  MetaConfig mc;
  if (smoke) {
    mc.tenants = 4;
    mc.objects = 2;
    mc.chunks_per_obj = 16;
    mc.churn_rounds = 3;
  }

  MetaConfig off_cfg = mc;
  off_cfg.recipe = 0;
  MetaConfig on_cfg = mc;
  on_cfg.recipe = 1;
  const MetaResult off = run_meta(off_cfg, false);
  const MetaResult on = run_meta(on_cfg, !smoke);

  auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  std::printf("%6s  %12s  %12s  %9s  %10s  %12s\n", "mode", "meta bytes",
              "omap txns", "recipes", "rcp hits", "omap @rest");
  std::printf("%6s  %12llu  %12llu  %9llu  %10llu  %12llu\n", "off",
              (unsigned long long)off.meta_bytes_actual,
              (unsigned long long)off.meta_txns,
              (unsigned long long)off.recipe_chunks,
              (unsigned long long)off.recipe_hits,
              (unsigned long long)off.omap_bytes);
  std::printf("%6s  %12llu  %12llu  %9llu  %10llu  %12llu\n", "on",
              (unsigned long long)on.meta_bytes_actual,
              (unsigned long long)on.meta_txns,
              (unsigned long long)on.recipe_chunks,
              (unsigned long long)on.recipe_hits,
              (unsigned long long)on.omap_bytes);

  const double bytes_reduction =
      ratio(off.meta_bytes_actual, on.meta_bytes_actual);
  const double txn_reduction = ratio(off.meta_txns, on.meta_txns);
  const double on_dedup =
      ratio(on.meta_bytes_baseline, on.meta_bytes_actual);
  std::printf(
      "meta bytes reduction: %.2fx (>= 4x required)   txn reduction: %.2fx  "
      " on-mode meta_dedup_ratio: %.2fx\n",
      bytes_reduction, txn_reduction, on_dedup);

  if (!off.drained || !on.drained) {
    std::printf("FAIL: background engine did not drain\n");
    ok = false;
  }
  if (bytes_reduction < 4.0) {
    std::printf("FAIL: metadata bytes reduction %.2fx < 4x\n",
                bytes_reduction);
    ok = false;
  }
  if (on.recipe_chunks == 0 || on.recipe_hits == 0) {
    std::printf("FAIL: recipe compaction or cross-tenant dedup never "
                "engaged (chunks=%llu hits=%llu)\n",
                (unsigned long long)on.recipe_chunks,
                (unsigned long long)on.recipe_hits);
    ok = false;
  }
  if (off.recipe_chunks != 0 || off.meta_bytes_actual !=
                                    off.meta_bytes_baseline) {
    std::printf("FAIL: off mode produced recipe traffic\n");
    ok = false;
  }

  std::printf("recipe digest: %s (off-mode: %s)\n", on.digest.c_str(),
              off.digest.c_str());
  if (smoke && on.digest != kFrozenSmokeRecipeDigest) {
    std::printf("FAIL: recipe smoke digest %s != frozen %s\n",
                on.digest.c_str(), kFrozenSmokeRecipeDigest);
    ok = false;
  }

  JsonWriter jw;
  jw.add("tenants", static_cast<double>(mc.tenants));
  jw.add("objects_per_tenant", static_cast<double>(mc.objects));
  jw.add("chunks_per_object", static_cast<double>(mc.chunks_per_obj));
  jw.add("churn_rounds", static_cast<double>(mc.churn_rounds));
  jw.add("off.meta_bytes", static_cast<double>(off.meta_bytes_actual));
  jw.add("off.meta_txns", static_cast<double>(off.meta_txns));
  jw.add("off.omap_bytes", static_cast<double>(off.omap_bytes));
  jw.add("on.meta_bytes", static_cast<double>(on.meta_bytes_actual));
  jw.add("on.meta_txns", static_cast<double>(on.meta_txns));
  jw.add("on.omap_bytes", static_cast<double>(on.omap_bytes));
  jw.add("on.recipe_chunks", static_cast<double>(on.recipe_chunks));
  jw.add("on.recipe_hits", static_cast<double>(on.recipe_hits));
  jw.add("bytes_reduction", bytes_reduction);
  jw.add("txn_reduction", txn_reduction);
  jw.add("meta_dedup_ratio", on_dedup);
  jw.add("recipe_digest", on.digest);
  if (!json_path.empty() && !jw.write_file(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gdedup::bench

int main(int argc, char** argv) { return gdedup::bench::run(argc, argv); }
