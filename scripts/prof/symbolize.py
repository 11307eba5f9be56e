#!/usr/bin/env python3
"""Flat self-time profile from a scripts/prof/sampler.c dump.

usage: symbolize.py SAMPLES

The profiled binary is the first file in the dump's memory map. Every
sampled address inside it is rebased and resolved with `addr2line -f -C -i`
(the release profile carries line tables), then self time is printed three
ways, top 30 each: by outermost symbol (the function that was actually
called), by innermost inlined function, and by file:line. Samples in other
mappings (libc, vdso) are charged to the mapping's name.
"""
import collections
import os
import re
import subprocess
import sys


def load(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("--samples--"):
                samples = [int(x, 16) for x in f]
                break
            span, _perms, offset, _dev, _inode, *name = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            maps.append((lo, hi, int(offset, 16), name[0] if name else "[anon]"))
    return maps, samples


def resolve(binary, addrs):
    """addr -> [(function, file:line)], innermost inlined frame first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, cur = {}, None
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = frames.setdefault(int(line, 16), [])
        else:
            cur.append(line)
    return {a: list(zip(f[0::2], f[1::2])) for a, f in frames.items()}


def table(title, counts, total):
    print(f"\n== self time by {title} ==")
    for name, n in counts.most_common(30):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    maps, samples = load(sys.argv[1])
    if not samples:
        sys.exit("no samples: did the run use any CPU time with PROF_OUT set?")
    binary = next(name for *_, name in maps if name.startswith("/"))
    base = min(lo - off for lo, _hi, off, name in maps if name == binary)

    outer, inner, lines = (collections.Counter() for _ in range(3))
    inside = []
    for addr, n in collections.Counter(samples).items():
        m = next((m for m in maps if m[0] <= addr < m[1]), None)
        if m and m[3] == binary:
            inside.append((addr - base, n))
            continue
        where = f"[{os.path.basename(m[3])}]" if m else "[unmapped]"
        for counts in (outer, inner, lines):
            counts[where] += n
    frames = resolve(binary, [a for a, _ in inside])
    for addr, n in inside:
        stack = frames.get(addr) or [("??", "??:0")]
        outer[stack[-1][0]] += n
        inner[stack[0][0]] += n
        lines[stack[0][1].split(" (discriminator")[0]] += n

    total = len(samples)
    print(f"{total} samples at 250 Hz = {total / 250:.2f} s of CPU in {binary}")
    table("outermost symbol", outer, total)
    table("innermost inlined function", inner, total)
    table("file:line", lines, total)


if __name__ == "__main__":
    main()
