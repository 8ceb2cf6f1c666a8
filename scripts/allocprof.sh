#!/usr/bin/env bash
# Where the simulator allocates: builds the benchmark as scripts/hostprof.sh
# does (frame pointers and line tables, into the same target directory, so
# one build serves both), runs one workload for 5 s under the LD_PRELOADed
# malloc/calloc/realloc sampler (scripts/allocprof.c: a frame-pointer walk
# per allocation, a uniform reservoir of 131,072 of them) and prints, through
# scripts/hostprof.py, allocations by allocation site (the first frame
# outside the allocator and std), by routine and caller, and inclusive, each
# row with its share and its allocations per RPC (the share times the run's
# host_allocs_per_rpc). The run phase is the samples under `World::run` (and
# `coro::entry`, where a proc's stack ends):
#
#   scripts/allocprof.sh [WORKLOAD [SEED [hostprof.py options]]]
#   scripts/allocprof.sh                                (andrew_tcp_ring, 1)
#   scripts/allocprof.sh write_56k 1 --under 'World::run|coro::entry'
#
# Build and samples go to target/hostprof/ (or $HOSTPROF_DIR). The first
# run after a build waits out the benchmark's own 90 s settling time.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-andrew_tcp_ring}"
seed="${2:-1}"
dir="$(mkdir -p "${HOSTPROF_DIR:-target/hostprof}" && cd "${HOSTPROF_DIR:-target/hostprof}" && pwd)"

gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$dir/allocprof.so" scripts/allocprof.c
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=1" CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin bench

bench="$dir/target/release/bench"
HOSTPROF_OUT="$dir/allocs.txt" LD_PRELOAD="$dir/allocprof.so" \
    "$bench" --workload "$workload" --seed "$seed" --seconds 5 --trace 0 >"$dir/bench.out"
grep -m1 host_allocs_per_rpc "$dir/bench.out" || true
per_rpc=$(sed -n 's/^ *host_allocs_per_rpc *\([0-9.e+-]*\) .*/\1/p' "$dir/bench.out" | head -n1)
python3 scripts/hostprof.py "$bench" "$dir/allocs.txt" ${per_rpc:+--per-rpc "$per_rpc"} "${@:3}"
