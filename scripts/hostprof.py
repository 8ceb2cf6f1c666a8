#!/usr/bin/env python3
"""Symbolises scripts/hostprof.c's samples: self time by function, memmove
by caller, inclusive time.  Usage: hostprof.py EXECUTABLE SAMPLES"""
import bisect, collections, os, re, subprocess, sys

exe, path = os.path.realpath(sys.argv[1]), sys.argv[2]
maps, named, samples = [], [], []  # (start, end, file), (addr, name), [addr..]
for line in open(path):
    kind, *f = line.split()
    if kind == "M" and len(f) >= 6:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, f[5]))
    elif kind == "F":
        named.append((int(f[1], 16), f[0]))
    elif kind == "S":
        samples.append([int(x, 16) for x in f])
named.sort()
base = {}  # file -> load address (its lowest mapping)
for lo, _, file in maps:
    base[file] = min(lo, base.get(file, lo))


def locate(addr):
    for lo, hi, file in maps:
        if lo <= addr < hi:
            return file, addr - base[file]
    return "?", addr


def dynsyms(file):  # stripped libraries: exported symbols only
    out = subprocess.run(["nm", "-D", "--defined-only", file], capture_output=True, text=True).stdout
    return sorted((int(a, 16), n) for a, _, n in (l.split() for l in out.splitlines() if len(l.split()) == 3))


# One addr2line run over every address in the executable. A return address
# names the instruction after the call, so frames above the leaf look up -1.
def key(addr, leaf):
    return addr if leaf else addr - 1


wanted = {key(a, i == 0) for s in samples for i, a in enumerate(s) if locate(a)[0] == exe}
offs = sorted(locate(a)[1] for a in wanted)
out = subprocess.run(["addr2line", "-f", "-C", "-e", exe] + [hex(o) for o in offs],
                     capture_output=True, text=True).stdout.splitlines()
# Two lines an address, function then file:line (line tables carry no inlining).
function = {o: re.sub(r"::h[0-9a-f]{16}$", "", f)[:96] for o, f in zip(offs, out[::2])}
syms = {}


def name(addr, leaf):
    """The function containing addr; `~` marks a guess from exported symbols."""
    file, off = locate(key(addr, leaf))
    if file == exe:
        return function[off]
    i = bisect.bisect(named, (addr, "~")) - 1
    if i >= 0 and addr - named[i][0] < 0x1000:  # inside a routine hostprof.c resolved
        return named[i][1]
    table = syms.setdefault(file, dynsyms(file) if os.path.exists(file) else [])
    i = bisect.bisect(table, (off, "~")) - 1
    return os.path.basename(file) + ":" + (table[i][1] + "~" if i >= 0 else hex(off))


self_time, inclusive, callers = (collections.Counter() for _ in range(3))
for s in samples:
    fn = name(s[0], True)
    self_time[fn] += 1
    stack = [fn] + [name(a, False) for a in s[2:]]
    if fn in ("memmove", "memcpy"):  # frameless: the caller is the word at RSP
        callers[name(s[1], False)] += 1
        stack.append(name(s[1], False))
    for f in set(stack):
        inclusive[f] += 1
for title, table in [("self time by function", self_time),
                     ("memmove/memcpy by caller", callers), ("inclusive time", inclusive)]:
    print(f"\n== {title} ({len(samples)} samples, % of all) ==")
    for name, n in table.most_common(25):
        print(f"{100.0 * n / max(len(samples), 1):6.1f}%  {name}")
