#!/usr/bin/env python3
"""Summarize a sampler.c or allocsamp.c profile: self and inclusive share
per function.

    python3 scripts/prof/report.py [--allocs] PROFILE

Keeps only the samples whose stack has a run_timed frame (the benchmark's
timed region; inlined frames carry unqualified names), symbolizes every
address with addr2line (inlined frames included, so a function inlined
into its caller still gets its own row), and prints, per function (top
40 rows):

    self  share of kept samples whose innermost frame is the function
    incl  share of kept samples with the function anywhere on the stack

A CPU profile (sampler.c) also gets an "allocator leaf" line: the share
of kept samples whose innermost frame is operator new/delete or glibc's
malloc/free code (see ALLOCATOR).

With --allocs the profile is an allocation sample (allocsamp.c): each
sample is one heap allocation, and only frames of the program's own
sources are kept (not operator new, and not the system headers' or
libraries' frames between it and the code), so "self" names the function
that asked for the memory.

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
# Leaf frames that are the allocator itself (CPU profiles).  glibc's
# malloc internals (_int_malloc, _int_free, malloc_consolidate, ...) are
# not exported, so addr2line names them after the nearest preceding
# export: __default_morecore or timer_settime on glibc 2.36 x86-64.
ALLOCATOR = re.compile(
    r"^(operator (new|delete)$|libc\.so[.\d]*:(__libc_)?"
    r"(malloc|calloc|realloc|free|cfree|memalign|__default_morecore|"
    r"timer_settime)\?$)")


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
    """addr -> tuple of (function, site) frames, innermost first.  The site
    is "file:line" for the program's own sources, None for system headers
    (libstdc++ templates) and libraries without debug info."""
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
            names[a] = tuple(
                (f, None if loc.startswith(("??", "/usr/")) else
                 loc.rsplit("/", 1)[-1].split(" ")[0])
                for f, loc in frames if f != "??") or (("%s:??" % lib, None),)
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
    args = sys.argv[1:]
    allocs = args[:1] == ["--allocs"]
    if allocs:
        args = args[1:]
    if len(args) != 1:
        sys.exit("usage: report.py [--allocs] PROFILE")
    path = args[0]
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
            stack.extend(names.get(a if i == 0 else a - 1, (("??", None),)))
        if not any(ROOT.search(f) for f, _ in stack):
            continue
        kept += 1
        # Frames above the root (main, the harness loop) are the same
        # for every kept sample; cut them.
        cut = next(i for i, (f, _) in enumerate(stack) if ROOT.search(f))
        stack = [(short(f), site) for f, site in stack[:cut + 1]]
        if allocs:
            # The program's own frames, minus operator new (the allocator).
            # The allocating frame is named with its line (inlined lambdas
            # carry no useful name) and its caller's, since it is often an
            # implicit copy constructor.
            stack = [(f, site) for f, site in stack
                     if site is not None and f != "operator new"]
            self_c[" <- ".join("%s (%s)" % fs for fs in stack[:2])] += 1
        else:
            self_c[stack[0][0]] += 1
        for f in {f for f, _ in stack}:
            incl_c[f] += 1

    print("%d samples, %d under %s" % (len(samples), kept, ROOT.pattern))
    if kept == 0:
        sys.exit(1)
    if not allocs:
        leaf = sum(n for f, n in self_c.items() if ALLOCATOR.search(f))
        print("allocator leaf (malloc/free/new/delete): %.2f%%" %
              (100.0 * leaf / kept))
    print("%7s %7s  function" % ("self%", "incl%"))
    for f, n in self_c.most_common(TOP):
        print("%7.2f %7.2f  %s" % (100.0 * n / kept,
                                   100.0 * incl_c[f.split(" (")[0]] / kept, f))
    print("\nby inclusive share:")
    for f, n in incl_c.most_common(TOP):
        print("%7.2f %7.2f  %s" % (100.0 * self_c[f] / kept, 100.0 * n / kept, f))


if __name__ == "__main__":
    main()
