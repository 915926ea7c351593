#!/usr/bin/env bash
# Build the whole tree under ASan+UBSan and run the test suite, then run
# the observability tests under TSan.
#
# Usage: scripts/check_sanitizers.sh [-L label | ctest-regex]
#
# With an argument, the ASan phase runs only the tests it selects: `-L
# label` those carrying a ctest label (e.g. `-L asan_smoke`), otherwise
# those whose name matches the regex (ctest -R).  A filter that selects no
# test is an error, as is any phase below whose filter selects none.
#
# Uses separate build directories (build-asan, build-tsan) so the regular
# build stays untouched.  -fno-sanitize-recover=all turns every sanitizer
# report into a hard failure, so a green ctest run really means no UB and
# no memory errors on the exercised paths.
#
# TSan cannot be combined with ASan, hence the second build tree.  Two
# sources of real host concurrency get exercised: the exec pool offloads
# the real-byte kernels (fingerprint, CRC, EC, compression scans, chunk
# scans) to worker threads, and the sharded event engine runs shard
# windows on parallel workers.  The TSan phase runs the exec-pool tests,
# the fault-campaign smoke, the bench smokes and the sim determinism/
# shard-invariance tests with GDEDUP_EXEC_THREADS=4 GDEDUP_SIM_SHARDS=4
# GDEDUP_SIM_PARALLEL=1 so every offloaded kernel, every cross-shard
# peek behind the gated locks (object store, OSD store maps, op tracker)
# and the shared observability paths (counter updates, trace span
# bookkeeping, JSON dumps) see real worker concurrency.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"
filter=()
if [[ "${1:-}" == "-L" ]]; then
  [[ -n "${2:-}" ]] || { echo "usage: $0 [-L label | ctest-regex]" >&2; exit 2; }
  filter=(-L "$2")
elif [[ -n "${1:-}" ]]; then
  filter=(-R "$1")
fi
ctest_run() { ctest --output-on-failure --no-tests=error "$@"; }

san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}"
cmake --build "${build_dir}" -j "$(nproc)"

cd "${build_dir}"
if [[ ${#filter[@]} -gt 0 ]]; then
  ctest_run "${filter[@]}"
else
  # Fail-fast smoke first: the restore-path bench (assembly window,
  # selective rewrite, zero-copy window slices) and the refs-cache /
  # fingerprint fast path are the heaviest pointer-juggling paths —
  # surface ASan reports there before paying for the full suite.
  ctest_run -L asan_smoke
  # Recipe metadata-dedup smoke next: the packed codec, batched omap txns
  # and the recipe compactor juggle buffers/iterators across async steps —
  # cheap to fail fast here before the full suite.
  ctest_run -L meta_smoke
  ctest_run -L "telemetry_smoke|churn_smoke"
  ctest_run
fi

# --- TSan phase: observability layer only --------------------------------

tsan_dir="${repo_root}/build-tsan"
tsan_flags="-fsanitize=thread -fno-sanitize-recover=all"

cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${tsan_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${tsan_flags}"
cmake --build "${tsan_dir}" -j "$(nproc)" \
    --target test_common test_observability perf_dump test_exec_pool \
    test_fault_campaign bench_micro_components bench_sim_e2e \
    test_sim_determinism test_sim_shards test_fp_fastpath bench_fp_lookup \
    test_telemetry bench_churn test_recipe bench_meta

cd "${tsan_dir}"
# Four exec-pool workers and four engine shards (serial windows): the
# fault-campaign smoke re-runs its schedules multi-threaded, the bench
# smoke asserts the MT determinism digest equals the frozen serial
# reference, and the obs byte-identity tests see the multi-shard event
# order.  The node-local fingerprint index is thread-confined by design
# (probes/inserts only from the owning node's event thread);
# test_fp_fastpath and bench_fp_smoke make TSan check that claim wherever
# shard windows, kernel workers and the refs cache interleave.  Parallel
# windows stay off here: op-trace ids are assigned in wall-clock order
# across shard workers (DESIGN.md §9), so obs-dump byte-identity is a
# serial-execution guarantee.  test_common's ObjectName tests copy one
# name's refcount from several threads at once, as exec-pool workers and
# parallel windows do.
GDEDUP_EXEC_THREADS=4 GDEDUP_SIM_SHARDS=4 ctest_run -R \
    'test_common|test_observability|perf_dump_smoke|test_exec_pool|fault_smoke|bench_smoke|sim_e2e_smoke|test_fp_fastpath|bench_fp_smoke'

# Parallel shard windows on top for the digest tests: cross-shard inbox
# handoff, gated object-store/OSD locks and barrier synchronization get
# race-checked while the virtual-time digest must not move a byte.
GDEDUP_EXEC_THREADS=4 GDEDUP_SIM_SHARDS=4 GDEDUP_SIM_PARALLEL=1 \
    ctest_run -R \
    'test_sim_determinism|test_sim_shards|sim_e2e_smoke'

# Recipe phase: recipe-chunk metadata dedup forced ON under four shards +
# four kernel workers.  The compactor's async window stepper, the batched
# omap apply and the recipe-chunk puts all interleave with shard windows
# here; the recipe-mode digest (frozen in bench_meta --smoke) must not
# move a byte.
GDEDUP_RECIPE_DEDUP=1 GDEDUP_EXEC_THREADS=4 GDEDUP_SIM_SHARDS=4 \
    ctest_run -R \
    'test_recipe|meta_smoke'
