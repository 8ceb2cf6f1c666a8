#!/usr/bin/env bash
# "Bit-identical" as one command: builds the frozen benchmark against these
# crates and compares the five workload digests of a fixed-size run (seed 1,
# `--smoke`: two cells, two passes, no wall-clock budget) with
# scripts/digests.expected. A digest folds every simulated result of the
# run, so a host-speed change that moves one has changed behaviour.
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
