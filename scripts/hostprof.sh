#!/usr/bin/env bash
# A wall-clock profile of the simulator, on a host with no perf, gdb or
# valgrind: builds the benchmark with frame pointers and line tables into
# its own target directory, runs one workload under the LD_PRELOADed
# SIGPROF sampler (scripts/hostprof.c, 250 Hz of CPU time) and prints
# self time by function, libc leaves by caller and inclusive time
# (scripts/hostprof.py). The whole process is sampled. On every workload
# but the crowd, set-up is well under a percent of it; on the crowd,
# building and dropping 1,024 clients is about 7 % of it (`cells::build`
# 2.6 %, `cells::finish` 4.1 %), a proc's stack ends at `coro::entry`
# rather than `World::run`, and the run phase is the samples under either:
#
#   scripts/hostprof.sh [WORKLOAD [SECONDS [SEED [hostprof.py options]]]]
#   scripts/hostprof.sh                                (read_56k, 12 s, 1)
#   scripts/hostprof.sh crowd_1024x4 12 1 --under 'World::run|coro::entry'
#   scripts/hostprof.sh lookup_lan 12 1 --callers copy_out_unmetered
#
# Build and samples go to target/hostprof/ (or $HOSTPROF_DIR). The first
# run after a build waits out the benchmark's own 90 s settling time.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-read_56k}"
seconds="${2:-12}"
seed="${3:-1}"
dir="$(mkdir -p "${HOSTPROF_DIR:-target/hostprof}" && cd "${HOSTPROF_DIR:-target/hostprof}" && pwd)"

gcc -O2 -shared -fPIC -o "$dir/hostprof.so" scripts/hostprof.c
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=1" CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin bench

bench="$dir/target/release/bench"
HOSTPROF_OUT="$dir/samples.txt" LD_PRELOAD="$dir/hostprof.so" \
    "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$dir/bench.out"
grep -m1 host_us_per_rpc "$dir/bench.out" || true
python3 scripts/hostprof.py "$bench" "$dir/samples.txt" "${@:4}"
