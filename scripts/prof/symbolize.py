#!/usr/bin/env python3
"""Flat profiles from the scripts/prof preloads' dumps.

usage: symbolize.py SAMPLES            (a sampler.c dump: where CPU time goes)
       symbolize.py --within SUBSTR SAMPLES   (the same dump, inside one function)
       symbolize.py --allocs STACKS    (a mallocs.c dump: who calls malloc)
       symbolize.py --live SITES       (a mallocs.c $PROF_LIVE dump: who holds the heap)

The profiled binary is the first file in the dump's memory map. Every
sampled address inside it is rebased and resolved with `addr2line -f -C -i`
(the release profile carries line tables). Self time is printed three ways,
top 30 each: by outermost symbol (the function that was actually called),
by innermost inlined function, and by file:line; samples in other mappings
(libc, vdso) are charged to the mapping's name. `--within SUBSTR` keeps only
the samples whose outermost symbol contains SUBSTR — the flat profile's
"`apply` 40 %" taken apart — and prints them by chain of inlined functions,
innermost first (`fold < agg < apply`), then by file:line and by address
with that chain beside each: whether the 40 % is the descent or the re-fold
is one table away.
With `--allocs` each kept
call stack is charged to its allocation site — the first function on it
outside the allocator and the containers that call it (`alloc::`, `core::`,
`std::`, `hashbrown::`, the benchmark's counting allocator) — and printed as
the top 30 sites and the top 30 site-plus-three-callers contexts. `--live`
reads rows of sampled bytes + stack, one per stack that held memory when the
sampled heap was at its high-water mark, and charges the bytes the same way.
"""
import collections
import os
import re
import subprocess
import sys


def load(path):
    """The memory map, the marker line, one list of addresses per later line."""
    maps, marker, samples = [], "", []
    with open(path) as f:
        for line in f:
            if line.startswith("--"):
                marker = line.strip()
                samples = [[int(x, 16) for x in row.split()] for row in f]
                break
            span, _perms, offset, _dev, _inode, *name = line.split()
            lo, hi = (int(x, 16) for x in span.split("-"))
            maps.append((lo, hi, int(offset, 16), name[0] if name else "[anon]"))
    return maps, marker, samples


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
    print(f"\n== {title} ==")
    for name, n in counts.most_common(30):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


PLUMBING = re.compile(
    r"^<?&?(mut )?(alloc|core|std|hashbrown)::|^(__rustc::)?__r(ust|g|dl)_|benchmark::alloc::")


def alloc_sites(binary, base, maps, summary, stacks, live):
    """Charge each stack to its first function that is not allocator plumbing.

    A stack is walked by return address, each one named by the symbol it
    lies in (so plumbing inlined into a caller already carries the caller's
    name, and what stays out of line is recognised by its path). A `live`
    row leads with the bytes it stands for; any other stack counts once.
    """
    weights = [st.pop(0) for st in stacks] if live else [1] * len(stacks)
    what = "bytes live at the high-water mark" if live else "allocation calls"
    own = [m for m in maps if m[3] == binary]
    # A return address: one byte back lands inside the call instruction.
    rebased = [[a - 1 - base for a in st if any(lo <= a < hi for lo, hi, *_ in own)]
               for st in stacks]
    frames = resolve(binary, sorted({a for st in rebased for a in st}))
    sites, contexts = collections.Counter(), collections.Counter()
    print(f"{len(stacks)} stacks of {summary.split('-- ', 1)[1]} in {binary}")
    for st, weight in zip(rebased, weights):
        names = [frames[a][0][0] for a in st if frames.get(a)]
        names = [fn for fn in names if not PLUMBING.search(fn)] or ["[no frame in the binary]"]
        sites[names[0]] += weight
        contexts[" < ".join(names[:4])] += weight
    table(f"{what} by site", sites, sum(weights))
    table(f"{what} by site < its three callers", contexts, sum(weights))


def short(fn):
    """`a::b<T>::c::{closure#0}` -> `c{}`: the last path segment outside any brackets."""
    flat, depth = [], 0
    for ch in fn.replace("->", ""):
        depth += ch in "<(["
        if depth == 0:
            flat.append(ch)
        depth -= ch in ">)]"
    parts = [p.strip() for p in "".join(flat).split("::") if p.strip()]
    names = [p for p in parts if not p.startswith("{")]
    return names[-1] + "{}" * (len(parts) - len(names)) if names else "::".join(parts)


def within(substr, inside, frames, total):
    """The samples under one outermost symbol: by inlined chain, line and address."""
    chains, lines, addrs = (collections.Counter() for _ in range(3))
    for addr, n in inside:
        stack = frames.get(addr) or [("??", "??:0")]
        if substr not in stack[-1][0]:
            continue
        names = [short(fn) for fn, _ in stack]
        # addr2line names a frame inlined from another crate after the symbol
        # it sits in; its file:line is right, so let that stand for it.
        if len(names) > 1 and names[0] == names[-1]:
            names.pop(0)
        chain = " < ".join(names)
        where = re.sub(r"^/rustc/[0-9a-f]+/library/", "", stack[0][1].split(" (discriminator")[0])
        chains[chain] += n
        lines[f"{where}  {chain}"] += n
        addrs[f"{addr:#x}  {where}  {chain}"] += n
    kept = sum(chains.values())
    if not kept:
        sys.exit(f"no sample's outermost symbol contains {substr!r}")
    print(f"{kept} of them ({100 * kept / total:.1f}%) under a symbol containing {substr!r};"
          " shares below are of all samples, chains read innermost < inlined into")
    table(f"self time within {substr!r} by inlined chain", chains, total)
    table(f"self time within {substr!r} by file:line", lines, total)
    table(f"self time within {substr!r} by address", addrs, total)


def main():
    args, mode, substr = sys.argv[1:], None, None
    if args[:1] in (["--allocs"], ["--live"]):
        mode = args.pop(0)
    elif args[:1] == ["--within"] and len(args) == 3:
        substr, args = args[1], args[2:]
    if len(args) != 1 or args[0].startswith("--"):
        sys.exit(__doc__)
    maps, marker, samples = load(args[0])
    if not samples:
        sys.exit("no samples: did the run use any CPU time with PROF_OUT set?")
    binary = next(name for *_, name in maps if name.startswith("/"))
    base = min(lo - off for lo, _hi, off, name in maps if name == binary)
    if mode:
        return alloc_sites(binary, base, maps, marker, samples, mode == "--live")

    samples = [row[0] for row in samples]
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
    total = len(samples)
    print(f"{total} samples at 250 Hz = {total / 250:.2f} s of CPU in {binary}")
    if substr is not None:
        return within(substr, inside, frames, total)
    for addr, n in inside:
        stack = frames.get(addr) or [("??", "??:0")]
        outer[stack[-1][0]] += n
        inner[stack[0][0]] += n
        lines[stack[0][1].split(" (discriminator")[0]] += n

    table("self time by outermost symbol", outer, total)
    table("self time by innermost inlined function", inner, total)
    table("self time by file:line", lines, total)


if __name__ == "__main__":
    main()
