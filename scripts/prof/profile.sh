#!/usr/bin/env bash
# Profile the timed region of one perfbench workload with the SIGPROF
# sampler and print the per-function report.
#
# Usage: scripts/prof/profile.sh [--allocs] [perfbench args...]
#   e.g. scripts/prof/profile.sh --workload dup_heavy_ec --seed 2 --seconds 20
#
# With --allocs the allocation sampler (allocsamp.c, every 1009th malloc)
# is preloaded instead, and the report attributes heap allocations to the
# functions that ask for them; the raw samples go to .prof_build/allocs.txt.
#
# Builds perfbench with -g -fno-omit-frame-pointer into .prof_build/ (the
# benchmark's own .bench_build/ and perfbench/ stay untouched), builds
# sampler.so next to it, runs the workload with the sampler preloaded and
# reports the stacks under the timed region (Runner::run_timed), sampled
# once per millisecond of CPU time.  The raw profile is left in
# .prof_build/prof.txt.  (perfbench refuses to run with any GDEDUP_*
# variable set, hence the name SAMPLER_OUT.)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/../.." && pwd)"
here="${repo_root}/scripts/prof"
build_dir="${repo_root}/.prof_build"

cmake -S "${repo_root}/perfbench" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS='-g -fno-omit-frame-pointer' >&2
cmake --build "${build_dir}" -j "$(nproc)" >&2

sampler=sampler out=prof.txt report=()
if [[ "${1:-}" == "--allocs" ]]; then
  sampler=allocsamp out=allocs.txt report=(--allocs)
  shift
fi
cc -O2 -g -fPIC -shared -o "${build_dir}/${sampler}.so" "${here}/${sampler}.c"

args=("$@")
[[ ${#args[@]} -gt 0 ]] || args=(--workload dup_heavy_ec --seed 2 --seconds 20)
SAMPLER_OUT="${build_dir}/${out}" LD_PRELOAD="${build_dir}/${sampler}.so" \
    "${build_dir}/perfbench" --trace 0 "${args[@]}" > "${build_dir}/run.txt"
tail -1 "${build_dir}/run.txt" >&2
python3 "${here}/report.py" "${report[@]}" "${build_dir}/${out}"
