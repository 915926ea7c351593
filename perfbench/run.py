#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds perfbench/ (which compiles ../src) into .bench_build/ at the root of
the checkout, then runs one workload in its own single-threaded process.
The last line of stdout is the benchmark's JSON result; the exit status is
non-zero when any read, drain or conservation check failed.  NOTES.md
describes the workloads and metrics.

--self-check runs every workload at tiny scale through the same correctness
gate, then injects each kind of failure and expects the run to be refused.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("mixed_rw", "dup_heavy_ec", "churn")
INJECTIONS = ("readback", "undrained", "conservation")


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, capture=False):
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_check():
    ok = True

    def run_case(label, args, want_ok):
        nonlocal ok
        proc = run_binary(args, capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        passed = (proc.returncode == 0) == want_ok and \
            result.get("correct") == want_ok
        ok = ok and passed
        print("%-34s exit %d correct=%s -> %s" % (
            label, proc.returncode, result.get("correct"),
            "ok" if passed else "UNEXPECTED"))
        if not passed:
            print(proc.stdout)

    base = ["--seed", "1", "--seconds", "0", "--tiny"]
    for w in WORKLOADS:
        for trace in ("0", "1"):
            run_case("%s trace=%s" % (w, trace),
                     ["--workload", w, "--trace", trace] + base, True)
    for inj in INJECTIONS:
        run_case("mixed_rw inject=" + inj,
                 ["--workload", "mixed_rw", "--trace", "0", "--inject", inj]
                 + base, False)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=INJECTIONS,
                    help="plant a failure the correctness gate must catch")
    ap.add_argument("--tiny", action="store_true", help="small-scale inputs")
    ap.add_argument("--promote-on-read", action="store_true",
                    help="enable the tier's promotion on read (NOTES.md: "
                    "known program defects)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 1
    if args.self_check:
        return self_check()

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.tiny:
        cmd.append("--tiny")
    if args.promote_on_read:
        cmd.append("--promote-on-read")
    return run_binary(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
