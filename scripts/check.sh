#!/usr/bin/env bash
# The full local gate: format, lints as errors, and the test suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one event loop (no unsafe impl outside coro.rs, no sim-thread knob, no second loop, no post box, one free list)"
grep -rn 'unsafe impl' crates/core/src --exclude=coro.rs && exit 1
grep -rn 'sim[_-]threads' crates scripts README.md DESIGN.md EXPERIMENTS.md && exit 1
grep -rnE 'force_monolithic|is_partitioned|run_carved|carve_access|DomainQ' crates && exit 1
grep -rnE 'POST_CAP|Req::Flush|SHARED_CAPACITY|XFER_BATCH' crates && exit 1

echo "==> IntMap is for keys the simulator mints (a key with wire bytes in it keeps SipHash)"
# Names off the wire come as `String`s, byte vectors, or inline as the name
# cache's `NcName` and the XDR decoder's `InlineStr`.
grep -rnE 'IntMap<(\([^)]*)?(String|Vec<u8>|NcName|InlineStr)' crates --include='*.rs' && exit 1

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> repro faults --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- faults --scale quick >/dev/null

echo "==> repro crowd --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- crowd --scale quick >/dev/null

echo "==> handoff differential (an inserted crossing is invisible to the world)"
# The debug run above draws 24 cases; release draws the full 192.
cargo test -q -p renofs --release --test handoff_differential

echo "==> no proc is an OS thread (64 procs, thread count unchanged)"
cargo test -q -p renofs --release --test no_proc_threads

echo "==> proc stacks are recycled (a second world maps no stack)"
cargo test -q -p renofs --release --test stack_reuse

echo "==> repro shard-smoke --scale quick (N x M fleet + router determinism gate)"
# Runs a small sharded-fleet cell, checks every shard served traffic,
# and re-runs it at --jobs 2 asserting byte-identical digests; exits
# nonzero on any mismatch.
cargo run -q --release -p renofs-bench --bin repro -- shard-smoke --scale quick

echo "==> repro soak --seeds 400 --scale quick (chaos oracle gate)"
# Exits nonzero on any oracle violation; a fixed seed range keeps the
# gate deterministic and bounded (two seconds). 400 reaches the worlds
# that found the last two bugs: a created-but-empty file read as
# corruption (seed 157) and a TCP world hung across a crash (seed 239).
cargo run -q --release -p renofs-bench --bin repro -- soak --seeds 400 --scale quick >/dev/null

echo "==> repro soak --lease --seeds 12 --scale quick (NQNFS lease oracle gate)"
# Lease worlds (write-behind clients, crash/reboot and partition
# windows) against the tightened lease oracle grace; exits nonzero on
# any violation.
cargo run -q --release -p renofs-bench --bin repro -- soak --lease --seeds 12 \
    --scale quick >/dev/null

echo "==> repro soak --duration 30 --seeds 8 (streaming budget-mode smoke)"
# Time-boxed streaming-oracle run: exits 1 on the first violation
# (fail-fast), caps at 8 seeds so it finishes well inside the box.
cargo run -q --release -p renofs-bench --bin repro -- soak --duration 30 --seeds 8 \
    --scale quick >/dev/null

echo "==> cargo test -p renofs-bench --features profile (alloc discipline + profiler)"
cargo test -q -p renofs-bench --features profile --release

echo "==> repro bench --scale quick --check (lease + shard behaviour gates)"
# The BENCH_pr8.json lease gate (>=60% write-RPC recovery vs
# noconsist at zero soak violations), and the BENCH_pr9.json shard gate
# (LAN aggregate op/s at M=4 >= 2x M=1, all shards routed, fairness >=
# 0.8, byte-identical across a fresh --jobs 1 x 2 pair).
cargo run -q --release -p renofs-bench --bin repro -- bench --scale quick --check

echo "==> kernel-time gate (repro all --scale quick --jobs 1: sys <= 5% of CPU time)"
# A proc hand-off is a register switch on the world's own thread, and a
# proc's stack comes off a free list; time in the kernel means something
# blocks, wakes a thread or maps memory again. Share of sys: 37 % when
# procs were threads, 1.0-3.4 % once they were coroutines, 0-2.5 % with
# their stacks recycled (six runs each on a 2-vCPU x86-64 guest).
TIMEFORMAT='%U %S'
cpu=$({ time ./target/release/repro all --scale quick --jobs 1 >/dev/null 2>&1; } 2>&1)
echo "    user, sys seconds: $cpu"
awk '{ exit !($2 <= 0.05 * ($1 + $2)) }' <<<"$cpu" || {
    echo "kernel-time gate failed: sys is more than 5% of user + sys" >&2
    exit 1
}

echo "==> scripts/digests.sh (the five workload digests equal scripts/digests.expected)"
# What "bit-identical" means for a host-speed change, as a gate: every
# simulated result of a fixed-size run of each benchmark workload.
bash scripts/digests.sh

echo "==> benchmark/check.sh (the frozen benchmark still builds and runs against these crates)"
bash benchmark/check.sh

echo "All checks passed."
