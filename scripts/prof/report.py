#!/usr/bin/env python3
"""Summarize a sampler.c profile: self and inclusive share per function.

    python3 scripts/prof/report.py PROFILE

Keeps only the samples whose stack has a run_timed frame (the benchmark's
timed region; inlined frames carry unqualified names), symbolizes every
address with addr2line (inlined frames included, so a function inlined
into its caller still gets its own row), and prints, per function (top
40 rows):

    self  share of kept samples whose innermost frame is the function
    incl  share of kept samples with the function anywhere on the stack

Needs binaries built with -g; -fno-omit-frame-pointer keeps stacks whole.
Frames in libraries without debug info (libc, libstdc++) are shown as
"lib:symbol?": addr2line can only name the nearest exported symbol there,
which for internal functions (memcpy variants, malloc internals) is a
neighbour, not the function itself.
"""

import bisect
import collections
import re
import subprocess
import sys

ROOT = re.compile(r"\brun_timed\b")
TOP = 40


def load(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "map":
                lo, hi, off = (int(x, 16) for x in parts[1:4])
                maps.append((lo, hi, off, parts[4]))
            elif parts[0] == "s":
                samples.append([int(x, 16) for x in parts[1:]])
    maps.sort()
    return maps, samples


def elf_is_pie(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return head[16] == 3  # ET_DYN: shared object or PIE
    except OSError:
        return True


def symbolize(maps, addrs):
    """addr -> tuple of function names, innermost first."""
    starts = [m[0] for m in maps]
    by_file = collections.defaultdict(list)
    for a in addrs:
        i = bisect.bisect_right(starts, a) - 1
        if i < 0 or a >= maps[i][1]:
            continue
        lo, _, off, path = maps[i]
        # Shared objects and PIEs are linked at 0; fixed executables at
        # their absolute addresses.
        by_file[path].append((a, a - lo + off if elf_is_pie(path) else a))
    names = {}
    for path, pairs in by_file.items():
        proc = subprocess.run(
            ["addr2line", "-f", "-C", "-i", "-a", "-e", path] +
            ["%x" % rel for _, rel in pairs],
            capture_output=True, text=True)
        # Output: per address, a 0x<addr> line, then function/location
        # line pairs (several when inlined, innermost first).
        chunks = re.split(r"^0x[0-9a-f]+$", proc.stdout, flags=re.M)[1:]
        lib = path.rsplit("/", 1)[-1]
        for (a, _), chunk in zip(pairs, chunks):
            lines = chunk.strip().splitlines()
            frames = list(zip(lines[0::2], lines[1::2]))
            if frames and all(loc.startswith("??") for _, loc in frames):
                # No debug info: the nearest exported symbol, flagged.
                frames = [("%s:%s?" % (lib, f), loc) for f, loc in frames]
            funcs = tuple(f for f, _ in frames if f != "??")
            names[a] = funcs or ("%s:??" % lib,)
    return names


def short(name):
    """Drop parameter lists and namespaces the reader does not need."""
    name = re.sub(r"\(anonymous namespace\)::", "", name)
    name = name.replace("gdedup::", "")
    depth, out = 0, []
    for ch in name:  # strip the outermost (...) parameter lists
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out).strip() or name


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: report.py PROFILE")
    path = sys.argv[1]
    maps, samples = load(path)
    if not samples:
        sys.exit("no samples in " + path)
    # Return addresses point after the call; look up the call itself.
    addrs = {s[0] for s in samples}
    addrs |= {a - 1 for s in samples for a in s[1:]}
    names = symbolize(maps, addrs)

    self_c, incl_c = collections.Counter(), collections.Counter()
    kept = 0
    for s in samples:
        stack = []  # innermost first
        for i, a in enumerate(s):
            stack.extend(names.get(a if i == 0 else a - 1, ("??",)))
        if not any(ROOT.search(f) for f in stack):
            continue
        kept += 1
        # Frames above the root (main, the harness loop) are the same
        # for every kept sample; cut them.
        cut = next(i for i, f in enumerate(stack) if ROOT.search(f))
        stack = [short(f) for f in stack[:cut + 1]]
        self_c[stack[0]] += 1
        for f in set(stack):
            incl_c[f] += 1

    print("%d samples, %d under %s" % (len(samples), kept, ROOT.pattern))
    if kept == 0:
        sys.exit(1)
    print("%7s %7s  function" % ("self%", "incl%"))
    for f, n in self_c.most_common(TOP):
        print("%7.2f %7.2f  %s" % (100.0 * n / kept, 100.0 * incl_c[f] / kept, f))
    print("\nby inclusive share:")
    for f, n in incl_c.most_common(TOP):
        print("%7.2f %7.2f  %s" % (100.0 * self_c[f] / kept, 100.0 * n / kept, f))


if __name__ == "__main__":
    main()
