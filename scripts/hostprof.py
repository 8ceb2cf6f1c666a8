#!/usr/bin/env python3
"""Symbolises scripts/hostprof.c's samples: self time by function, libc
leaves by caller, inclusive time.
Usage: hostprof.py EXECUTABLE SAMPLES [--under 'SYM|SYM'] [--callers SYM]
--under keeps only the samples whose stack has a frame containing one of the
symbols; --callers adds the top caller chains (three frames) of a function.
A sample in a stripped library can only be placed after the nearest *exported*
symbol below it, which is a guess: it prints as `lib:name~+0xLO..0xHI` (the
offsets the samples fell at — a span far past any plausible function body is
some unexported neighbour), and as `lib:0xPAGE` (the 4 KB page of the offset)
when the nearest export is more than 4 KB away, where the name says nothing.
A file from scripts/allocprof.c (it has an `A` line) holds one sample per
sampled allocation instead, and adds a table of allocation sites: the first
frame outside the allocator and std."""
import bisect, collections, functools, os, re, subprocess, sys

args = sys.argv[1:]


def option(flag):
    if flag in args:
        i = args.index(flag)
        return args.pop(i) and args.pop(i)


under, callers_of = option("--under"), option("--callers")
exe, path = os.path.realpath(args[0]), args[1]
maps, named, samples = [], [], []  # (start, end, file), (addr, name), [addr..]
allocations = None  # how many allocations an allocprof.c file sampled from
for line in open(path):
    kind, *f = line.split()
    if kind == "M" and len(f) >= 6:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, f[5]))
    elif kind == "F":
        named.append((int(f[1], 16), f[0]))
    elif kind == "A":
        allocations = int(f[0])
    elif kind == "S":
        samples.append([int(x, 16) for x in f])
named.sort()
maps.sort()
starts = [lo for lo, _, _ in maps]
base = {}  # file -> load address (its lowest mapping)
for lo, _, file in maps:
    base[file] = min(lo, base.get(file, lo))


@functools.cache
def locate(addr):
    i = bisect.bisect(starts, addr) - 1
    if i >= 0 and addr < maps[i][1]:
        file = maps[i][2]
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
syms, guessed = {}, {}  # file -> exported symbols; guessed name -> offsets past its symbol


@functools.cache
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
    if i < 0 or off - table[i][0] > 0x1000:
        return f"{os.path.basename(file)}:{off & ~0xfff:#x}"
    guess = f"{os.path.basename(file)}:{table[i][1]}~"
    guessed.setdefault(guess, set()).add(off - table[i][0])
    return guess


def shown(row):
    """A table row with every guessed name followed by where its samples fell."""
    def span(m):
        at = guessed.get(m.group(0))
        return m.group(0) + (f"+{min(at):#x}..{max(at):#x}" if at else "")
    return re.sub(r"[^\s:]+:[^\s~]+~", span, row)


# What allocates on behalf of its caller: the allocator, std and its maps.
plumbing = re.compile(r"^<?(alloc|core|std|hashbrown)::|^__r|GlobalAlloc>|^(malloc|calloc|realloc)$")
self_time, inclusive, callers, chains, sites = (collections.Counter() for _ in range(5))
kept = 0
for s in samples:
    fn = name(s[0], True)
    stack = [fn] + [name(a, False) for a in s[2:]]
    # A libc leaf (memmove, malloc, free...) is frameless and its frame walk
    # starts a level late or nowhere: its caller is the word at RSP.
    libc_leaf = locate(s[0])[0] != exe and os.path.exists(locate(s[1])[0])
    if libc_leaf:
        stack.insert(1, name(s[1], False))
    if under and not any(u in f for f in stack for u in under.split("|")):
        continue
    kept += 1
    self_time[fn] += 1
    if libc_leaf:
        callers[f"{fn} <- {stack[1]}"] += 1
    for f in set(stack):
        inclusive[f] += 1
    at = next((i for i, f in enumerate(stack) if callers_of and callers_of in f), None)
    if at is not None:
        chains[" <- ".join(stack[at + 1:at + 4])] += 1
    sites[next((f for f in stack if not plumbing.search(f)), "?")] += 1
if allocations is None:
    tables = [("self time by function", self_time), ("libc leaves by caller", callers),
              ("inclusive time", inclusive)]
    unit = "samples"
else:
    tables = [("allocation sites", sites), ("allocations by routine and caller", callers),
              ("inclusive allocations", inclusive)]
    unit = f"sampled allocations of {allocations}"
tables += [(f"callers of {callers_of}", chains)] * bool(callers_of)
for title, table in tables:
    print(f"\n== {title} ({kept} of {len(samples)} {unit}{' under ' + under if under else ''}, % of kept) ==")
    for name, n in table.most_common(25):
        print(f"{100.0 * n / max(kept, 1):6.1f}%  {shown(name)}")
