#!/usr/bin/env bash
# Build Release and record the perf trajectory points: the content-pipeline
# microbenchmark suite (BENCH_PIPELINE.json), the end-to-end simulation
# bench (BENCH_SIM.json), the event-engine bench (BENCH_EVENTS.json), the
# two-tier fingerprint lookup bench (BENCH_FP.json), the restore bench
# (BENCH_RESTORE.json), the long-horizon churn + telemetry bench
# (BENCH_CHURN.json + BENCH_CHURN_TIMELINE.{jsonl,csv}) and the recipe
# metadata-dedup bench (BENCH_META.json), then append one
# timestamped line per point to BENCH_HISTORY.jsonl so the trajectory is a
# log, not just a latest-wins snapshot.
#
# Usage: scripts/run_bench.sh [output.json]
#
# GDEDUP_EXEC_THREADS selects the exec-pool worker count for the sim bench;
# its determinism digest is asserted against the frozen serial digest
# either way.  Its wall-clock numbers are recorded, not compared with any
# stored value: only a same-host A/B pair says whether a change is faster.
#
# Writes BENCH_PIPELINE.json (MB/s for sha1/sha256/crc32c/fixed/cdc, each
# with its frozen-seed reference and speedup, the fingerprint-cache hit
# rate, and the suite's wall time).  The suite cross-checks fast-path
# digests and chunk boundaries against the reference implementations and
# fails loudly on any mismatch.
#
# Afterwards a perf_dump run distills the observability layer into an
# "obs" section that is merged additively into BENCH_PIPELINE.json and
# BENCH_SIM.json — existing keys are never modified, so the pipeline /
# sim schemas stay intact while the trajectory gains counter coverage
# (entity and counter totals, op trace completeness, tier latency p99s).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-bench"
out_json="${1:-${repo_root}/BENCH_PIPELINE.json}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" \
  --target bench_micro_components bench_sim_e2e bench_events \
  bench_fp_lookup bench_restore bench_churn bench_meta perf_dump

"${build_dir}/bench/bench_micro_components" --pipeline_json="${out_json}"

echo "perf trajectory point recorded at ${out_json}"

sim_json="${repo_root}/BENCH_SIM.json"
"${build_dir}/bench/bench_sim_e2e" --json="${sim_json}"

echo "sim trajectory point recorded at ${sim_json}"

# Raw event-engine throughput: the heap_events_per_sec key is the pre-
# sharded engine's core structure measured fresh on this host (the
# "before" point), calendar_events_per_sec is the current engine's.
events_json="${repo_root}/BENCH_EVENTS.json"
"${build_dir}/bench/bench_events" --json="${events_json}"

echo "event-engine trajectory point recorded at ${events_json}"

# Two-tier fingerprint lookup: weak-hash vs SHA-first raw throughput, the
# fused-chunking overhead and the zipf hit-rate sweep over the node-local
# fingerprint index.
fp_json="${repo_root}/BENCH_FP.json"
"${build_dir}/bench/bench_fp_lookup" --json="${fp_json}"

echo "fingerprint fast-path trajectory point recorded at ${fp_json}"

# Restore throughput vs dedup ratio: the fragmented baseline against the
# selective-rewrite path, plus the assembly-cache digest-neutrality check.
restore_json="${repo_root}/BENCH_RESTORE.json"
"${build_dir}/bench/bench_restore" --json="${restore_json}"

echo "restore trajectory point recorded at ${restore_json}"

# Long-horizon churn under the telemetry engine + watchdogs: ~half a
# virtual hour of multi-tenant overwrite/delete storms, exporting the
# per-virtual-second timeline (JSONL + CSV) alongside the summary point.
# GDEDUP_CHURN_HOURS scales the steady phases (0.25 => 2 x 450 s).
churn_json="${repo_root}/BENCH_CHURN.json"
churn_timeline="${repo_root}/BENCH_CHURN_TIMELINE"
"${build_dir}/bench/bench_churn" --hours="${GDEDUP_CHURN_HOURS:-0.25}" \
  --json="${churn_json}" --timeline="${churn_timeline}"

echo "churn trajectory point recorded at ${churn_json}"

# Recipe metadata dedup: packed-codec footprint, the >= 4x metadata-bytes
# reduction gate on the churned multi-tenant fleet, omap txn counts and
# the recipe-mode determinism digest.
meta_json="${repo_root}/BENCH_META.json"
"${build_dir}/bench/bench_meta" --json="${meta_json}"

echo "metadata-dedup trajectory point recorded at ${meta_json}"

# --- observability section merge -----------------------------------------

obs_seed=1
obs_dump="${build_dir}/obs_dump.json"
"${build_dir}/examples/perf_dump" seed="${obs_seed}" out="${obs_dump}"

merge_obs() {
  local target="$1"
  [[ -f "${target}" ]] || return 0
  python3 - "${obs_dump}" "${target}" "${obs_seed}" <<'EOF'
import json, sys
dump_path, target_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
d = json.load(open(dump_path))
tiers = {k: v for k, v in d["counters"].items() if k.startswith("tier.")}
obs = {
    "schema": "gdedup.obs.v1",
    "seed": seed,
    "entities": len(d["counters"]),
    "declared_counters": sum(len(v) for v in d["counters"].values()),
    "ops_started": d["ops"]["started"],
    "ops_finished": d["ops"]["finished"],
    "tier_writes": sum(v.get("writes", 0) for v in tiers.values()),
    "tier_chunks_flushed": sum(v.get("chunks_flushed", 0)
                               for v in tiers.values()),
    "tier_write_lat_p99_ns": max(v["write_lat"]["p99"]
                                 for v in tiers.values()),
    "tier_flush_lat_p99_ns": max(v["flush_lat"]["p99"]
                                 for v in tiers.values()),
    # Event-engine gauges (entity "sim"): dispatch/batch/ingress totals,
    # barrier count and arena footprint of the perf_dump run.
    "sim": d["counters"].get("sim", {}),
}
bench = json.load(open(target_path))
# The sim bench records its exec-pool usage at top level; mirror it into
# the obs section so one blob carries the full observability picture.
for key in [k for k in bench if k == "exec_threads"
            or k == "kernel_jobs_offloaded" or k.startswith("offload_")]:
    obs[key] = bench[key]
# Additive merge: the obs section is ours to refresh, every other key is
# preserved untouched.
bench["obs"] = obs
with open(target_path, "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
print(f"obs section merged into {target_path}")
EOF
}

merge_obs "${out_json}"
merge_obs "${repo_root}/BENCH_SIM.json"

# --- bench history --------------------------------------------------------
# One JSONL line per trajectory point per run: {ts, file, point}.  Append-
# only, so regressions stay visible after the latest-wins JSONs move on.

history="${repo_root}/BENCH_HISTORY.jsonl"
python3 - "${history}" "${out_json}" "${sim_json}" "${events_json}" \
    "${fp_json}" "${restore_json}" "${churn_json}" "${meta_json}" <<'HIST'
import datetime, json, sys
history, paths = sys.argv[1], sys.argv[2:]
ts = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
with open(history, "a") as out:
    for path in paths:
        try:
            point = json.load(open(path))
        except FileNotFoundError:
            continue
        out.write(json.dumps({"ts": ts, "file": path.rsplit("/", 1)[-1],
                              "point": point}, sort_keys=True) + "\n")
print(f"bench history appended to {history}")
HIST
