#!/usr/bin/env bash
# The full local gate: format, lints as errors, and the test suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one event loop (no unsafe impl outside coro.rs, no sim-thread knob, no second loop, no post box, one free list, no Arc under crates/mbuf)"
grep -rn 'unsafe impl' crates/core/src --exclude=coro.rs && exit 1
grep -rn 'sim[_-]threads' crates scripts README.md DESIGN.md EXPERIMENTS.md && exit 1
grep -rnE 'force_monolithic|is_partitioned|run_carved|carve_access|DomainQ' crates && exit 1
grep -rnE 'POST_CAP|Req::Flush|SHARED_CAPACITY|XFER_BATCH' crates && exit 1
# Mbuf storage counts are `Rc`s, so a chain is `!Send` (a compile_fail
# doctest on `MbufChain` says so): chains crossing threads again is a
# decision, not a drift.
grep -rnE 'std::sync::(Arc\b|\{[^}]*\bArc\b)|\bArc(<|::)' crates/mbuf/src && exit 1

echo "==> one place an event skips the queue (run_inline is called from World::net_step only)"
# A frame hop that nothing pending precedes runs in place, at its own time;
# a second caller would be a second rule for when an event may skip the
# queue. The queue's own tests are the exception.
grep -rn --include='*.rs' 'run_inline(' crates src tests examples benchmark/src |
    grep -vE '^crates/core/src/world/mod\.rs:|^crates/sim/(src/queue|tests/queue_equivalence)\.rs:' &&
    exit 1

echo "==> IntMap is for keys the simulator mints (a key with wire bytes in it keeps SipHash); one in-flight table per world"
# Names off the wire come as `String`s, byte vectors, or inline as the name
# cache's `NcName` and the XDR decoder's `InlineStr`.
grep -rnE 'IntMap<(\([^)]*)?(String|Vec<u8>|NcName|InlineStr)' crates --include='*.rs' && exit 1
# Calls in flight are in the world's two tables (`World::waiting`, keyed like
# `UdpCalls` by `MountKey::call`): a table per client or per mount is back
# to allocating on every client's first call.
grep -rnE '\bpending: IntMap' crates/core/src/world crates/transport/src && exit 1

echo "==> a name without a heap string each (READDIR entries inline, pages visited in place, paths in one arena)"
# A READDIR entry's name is an `InlineStr`, and `MemFs::readdir` visits
# its page in place: an owned name was two allocations an entry, one in
# `MemFs` and one in the client's decoder. A vnode's recorded path is a
# range into its client's path arena: a `String` each was an allocation
# per file opened.
grep -nE '\bname: String' crates/core/src/proto/mod.rs && exit 1
grep -rn 'ReaddirPage' crates && exit 1
grep -rnE '\bpath: Option<String>' crates/core/src/client && exit 1

echo "==> the server's file system allocates nothing per name or per byte (inline names, one buffer list)"
# A directory is a sorted vector of inline names and a file's bytes are
# `Storage` off the thread's buffer list (crates/vfs/src/buflist.rs): a
# `String` per name and a `Vec` per file growing on its own were most of
# an Andrew run's allocations. The block cache's storage comes off that
# same list, so it is the one thread-local under crates/vfs/src.
grep -nE 'BTreeMap<String' crates/vfs/src/memfs.rs && exit 1
grep -nE 'File\(Vec<u8>\)' crates/vfs/src/memfs.rs && exit 1
grep -rn 'thread_local!' crates/vfs/src --exclude=buflist.rs && exit 1

echo "==> the lease rules live in lease.rs (no lease table, term, recall queue or grace elsewhere)"
# client/ and server/ keep only the lease I/O: RPCs, flushes and cache
# invalidation. proto/ defines the term and its wire form.
grep -rnE 'LEASE_TERM\b|LeaseTable|ReadHold|recall_queue|lease_grace' crates/core/src \
    --exclude=lease.rs --exclude-dir=proto && exit 1

echo "==> no committed behaviour file (the gates run on fresh numbers in the tests; digests.sh pins them)"
# The lease and shard gates were a second path: a `repro bench` that
# re-ran the grids and compared them with two committed JSON files
# through a string scanner. The lease recovery and the fleet's scaling,
# routing, fairness and determinism are tier-1 tests now, and every
# number they read is in an md5 in scripts/digests.expected.
grep -rnE 'find_number|BENCH_pr|shard-smoke' crates README.md EXPERIMENTS.md DESIGN.md && exit 1

echo "==> the streaming oracle takes the world's time order (no per-client feeds, watermarks or heartbeats)"
# Every observation is fed at the world's current virtual time, so the
# checker holds one instant and releases it sorted by client: the
# watermark merge of per-client feeds, with its heartbeats, was built for
# worlds whose clients ran on threads of their own.
grep -rnE 'fn heartbeat|finish_client|with_capture|struct Feed' crates/oracle/src && exit 1
grep -rnF '.heartbeat(' crates/bench && exit 1

echo "==> one consistency checker (the buffered reference lives in crates/oracle/tests only)"
# `StreamingOracle` is the checker every soak world, gate and probe uses;
# the buffered replay it is held to is test code, included by the soak
# differential. A second checker under src/ is two contracts to keep.
grep -rnE '\bstruct Oracle\b|\bOracle::(new|check)\(' crates/*/src && exit 1

echo "==> one way to run a cell (one single-proc run, one Nhfsstone window, one topology recipe, one World constructor)"
# `run_proc` in experiments/mod.rs is the one place an experiment hands a
# proc's value back over a channel, and `Scale::nhfsstone` the one place
# a scale's window becomes an Nhfsstone config. `presets::fleet` builds
# every topology, `World::new` is the only constructor, and a client's
# transfer size is NFS_MAXDATA, not a config field.
grep -rnE 'mpsc::channel|duration = scale\.duration' crates/bench/src/experiments |
    grep -vE '^crates/bench/src/experiments/mod\.rs:[0-9]+:.*mpsc::channel' && exit 1
grep -rnE '\b(same_lan|token_ring_path|slow_link_path)_n\(' crates benchmark examples && exit 1
grep -rnE '_nm\(|WorldScratch|with_scratch|run_jobs_with|CLIENT_NAMES|wsize' crates && exit 1

echo "==> one soak sweep (no budget mode, no observation cap)"
# `repro soak` replays one `--case` or runs `soak::sweep`; `--duration`
# only cuts that sweep short. A second sweep loop with its own report
# type and stop conditions is two soaks to extend and keep in step. The
# CLI test that pins the removed flag as unknown is the exception.
grep -rnE 'Budget(Report|Opts|Stop)|soak_bud[g]et|max[-_]ops' crates scripts README.md DESIGN.md |
    grep -v '^crates/bench/tests/soak_cli\.rs:' && exit 1

echo "==> one fleet layout (no read-only replicas, re-export or hand-built export tables)"
# `ExportMap` is the fleet layout every caller builds ("/" on server 0,
# "/s{j}" on server j) and `RouterFs` holds one mount per server: the
# replica failover and the re-export path never ran outside their own
# tests.
grep -rnE 'replicas|MountPoint|set_export_map|ExportMap::new' crates && exit 1

echo "==> no file over 700 non-test lines (all of crates/, no exceptions)"
# benchmark/ is frozen and not gated.
scripts/loc.sh --files | awk -F'\t' '
    $2 ~ /^crates\// && $1 > 700 { print; bad = 1 }
    END { exit bad }' || {
    echo "a file above is over 700 non-test lines: split it along its seams" >&2
    exit 1
}

echo "==> cargo doc --no-deps --workspace (warnings are errors: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> repro faults --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- faults --scale quick >/dev/null

echo "==> repro crowd --scale quick (smoke)"
cargo run -q --release -p renofs-bench --bin repro -- crowd --scale quick >/dev/null

echo "==> handoff differential (an inserted crossing is invisible to the world)"
# The debug run above draws 24 cases; release draws the full 192.
cargo test -q -p renofs --release --test handoff_differential

echo "==> queue equivalence (pushes, pops, cancels and in-place runs against the sorted-list model)"
# Debug draws 64 cases a property; release draws the full 512.
cargo test -q -p renofs-sim --release --test queue_equivalence

echo "==> no proc is an OS thread (64 procs, thread count unchanged)"
cargo test -q -p renofs --release --test no_proc_threads

echo "==> proc stacks are recycled (a second world maps no stack)"
cargo test -q -p renofs --release --test stack_reuse

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

echo "==> repro soak --long --seeds 64 --scale quick (certification-recipe gate)"
# The long recipe's worlds (up to 16 clients, 8-16 rounds, flapping
# servers) through the streaming oracle, in about a second; exits nonzero
# on any violation. scripts/digests.sh pins this sweep's rows too.
cargo run -q --release -p renofs-bench --bin repro -- soak --long --seeds 64 \
    --scale quick >/dev/null

echo "==> repro soak --case seed=51 (the lease soak's fault-free case is clean)"
# ROADMAP item 1's shrunk world with no fault window, where round 4's
# write-behind version of /c0/f0 is read before its flush. Every version
# has bytes of its own and every write is announced when it starts, so
# that read matches its own version, not an older one with equal bytes:
# the case must exit 0 (clean), not 1 (a violation) or 2 (bad spec).
cargo run -q --release -p renofs-bench --bin repro -- soak \
    --case "seed=51,clients=2,rounds=5,windows=,profile=lease,salt=11" >/dev/null || {
    echo "seed-51 lease case is not clean (exit $?)" >&2
    exit 1
}

echo "==> repro soak --duration 30 --seeds 8 (deadline-cut sweep smoke)"
# The sweep run in chunks of --jobs seeds against a 30 s deadline: it
# stops after the chunk in which the time ran out or a seed violated, and
# exits 1 on a violation. 8 seeds finish well inside the deadline.
cargo run -q --release -p renofs-bench --bin repro -- soak --duration 30 --seeds 8 \
    --scale quick >/dev/null

echo "==> cargo test -p renofs-bench --features profile (alloc discipline + profiler)"
cargo test -q -p renofs-bench --features profile --release

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
