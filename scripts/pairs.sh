#!/usr/bin/env bash
# Alternated pairs of a revision and the working tree on one benchmark
# workload — how a host-speed change is claimed (choosing-metrics §8), as
# one command:
#
#   scripts/pairs.sh REV WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=1]
#   scripts/pairs.sh HEAD lookup_lan                 (ten 20 s pairs, seed 1)
#   scripts/pairs.sh 80a5e70 crowd_1024x4 5 8 7
#
# Exports REV to target/pairs/<sha>/ (kept, so a second workload rebuilds
# nothing), builds its benchmark there and the working tree's in place,
# waits out the benchmark's 90 s settling time once, then runs PAIRS pairs,
# REV first in the odd ones and the working tree first in the even ones.
# Prints q1 / median / q3 of the four host metrics per side and the pairs
# the working tree won, and says so loudly if any sim_* value, the digest
# or the failure count differs between any two runs: then it was not a
# host-speed change. Every run's output stays in target/pairs/<sha>/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/pairs.sh REV WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=1]"
rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seconds="${4:-20}"
seed="${5:-1}"

sha=$(git rev-parse --short=12 "$rev^{commit}")
base="target/pairs/$sha"
if [ ! -d "$base/benchmark" ]; then
    mkdir -p "$base"
    git archive "$sha" | tar -x -C "$base"
fi
for root in "$base" .; do
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" --bin bench
done

# The younger binary sets the wait; a bench that starts sooner sleeps itself.
youngest=$(stat -c %Y "$base/benchmark/target/release/bench" benchmark/target/release/bench | sort -n | tail -1)
wait=$((90 - ($(date +%s) - youngest)))
if [ "$wait" -gt 0 ]; then
    echo "pairs: built $((90 - wait)) s ago; settling for $wait s" >&2
    sleep "$wait"
fi

runs="$base/runs"
mkdir -p "$runs"
run() { # side root pair
    (cd "$2" && benchmark/target/release/bench --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$runs/$workload-s$seed-$3-$1.out" 2>&1
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run rev "$base" "$i" && run tree . "$i"
    else
        run tree . "$i" && run rev "$base" "$i"
    fi
    echo "pairs: $i/$pairs done" >&2
done

python3 - "$runs/$workload-s$seed" "$pairs" "$sha" <<'EOF'
import json, re, statistics, sys

prefix, pairs, sha = sys.argv[1], int(sys.argv[2]), sys.argv[3]
HOST = ["host_us_per_rpc", "setup_s", "peak_rss_mb", "host_allocs_per_rpc"]


def load(side, i):
    text = open(f"{prefix}-{i}-{side}.out").read()
    result = json.loads(text.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    fixed = {k: v for k, v in metrics.items() if k.startswith("sim_")}
    fixed["digest"] = re.search(r"digest=([0-9a-f]+)", text).group(1)
    fixed["failed"] = result["failed"]
    return metrics, fixed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, statistics.median(xs), q3


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("rev", "tree")}
print(f"{'metric':<22}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}   pairs won by the tree")
for m in HOST:
    rev = [r[0][m] for r in runs["rev"]]
    tree = [r[0][m] for r in runs["tree"]]
    won = sum(t < r for t, r in zip(tree, rev))
    lost = sum(t > r for t, r in zip(tree, rev))
    (r1, base, r3), (t1, new, t3) = quartiles(rev), quartiles(tree)
    print(f"{m:<22}{sha[:7]:<8}{r1:>12.4f}{base:>12.4f}{r3:>12.4f}")
    print(f"{m:<22}{'tree':<8}{t1:>12.4f}{new:>12.4f}{t3:>12.4f}   {won}/{pairs} (lost {lost})")
    if base:
        print(f"{'':<22}median {100 * (new - base) / base:+.1f} %, {sha[:7]} q3-q1 {r3 - r1:.4f}")

first = runs["rev"][0][1]
moved = sorted({k for side in runs.values() for _, fixed in side for k in fixed if fixed[k] != first[k]})
if moved:
    print(f"\n*** NOT A HOST-SPEED CHANGE: {', '.join(moved)} differ between runs ***")
    sys.exit(1)
print(f"\nevery sim_* value, the digest ({first['digest']}) and the failure count ({first['failed']}) equal in all {2 * pairs} runs")
EOF
