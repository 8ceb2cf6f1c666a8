#!/usr/bin/env bash
# "Bit-identical" as one command: builds the frozen benchmark against these
# crates and compares the five workload digests of a fixed-size run (seed 1,
# `--smoke`: two cells, two passes, no wall-clock budget) with
# scripts/digests.expected. A digest folds every simulated result of the
# run, so a host-speed change that moves one has changed behaviour. The
# same file holds the stdout md5 of three chaos-soak sweeps (quick, lease
# and long worlds), of every paper table and figure at quick scale
# (`repro all`) and of the sharded-fleet sweep (`repro shard`, each cell's
# state hash included), so a change to the soak or the experiment harness
# that moves one world, row, cell or verdict shows here too.
#
# usage: scripts/digests.sh            compare, exit 1 on any difference
#        scripts/digests.sh --write    re-record scripts/digests.expected
#                                      (only with a reviewed behaviour change)
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
expected=scripts/digests.expected
cargo build --release --offline --quiet --manifest-path "$manifest" --bin bench

got=$(for w in lookup_lan read_56k write_56k crowd_1024x4 andrew_tcp_ring; do
    cargo run --release --offline --quiet --manifest-path "$manifest" --bin bench -- \
        --workload "$w" --seed 1 --smoke --trace 0 2>&1 |
        sed -n 's/^bench: workload=\([^ ]*\) .* digest=\([0-9a-f]*\).*/\1 digest=\2/p'
done)

# The soak sweeps, `repro all` and `repro shard`, at quick scale. A sweep
# that finds violations exits 1 (the lease sweep does); anything else is
# a failure.
out=$(mktemp)
trap 'rm -f "$out"' EXIT
repro_md5() { # NAME REPRO-ARGS...
    local name=$1 status=0
    shift
    cargo run --release --offline --quiet -p renofs-bench --bin repro -- \
        "$@" --scale quick >"$out" 2>/dev/null || status=$?
    if ((status > 1)); then
        echo "repro $* exited $status" >&2
        exit 1
    fi
    printf '%s md5=%s\n' "$name" "$(md5sum <"$out" | cut -d' ' -f1)"
}
got+=$'\n'$(
    repro_md5 soak_quick_400 soak --seeds 400
    repro_md5 soak_lease_200 soak --lease --seeds 200
    repro_md5 soak_long_64 soak --long --seeds 64
    repro_md5 repro_all_quick all --jobs 2
    repro_md5 shard_quick shard
)

if [[ "${1:-}" == "--write" ]]; then
    printf '%s\n' "$got" >"$expected"
    echo "wrote $expected"
    exit 0
fi
if ! diff <(printf '%s\n' "$got") "$expected"; then
    echo "digests differ from $expected (< this tree, > expected)" >&2
    exit 1
fi
printf '%s\n' "$got"
