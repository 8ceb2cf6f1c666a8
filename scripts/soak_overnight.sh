#!/usr/bin/env bash
# Opt-in overnight certification soak: a sweep of `--long` worlds (up to
# 16 clients, 8-16 rounds, repeated crash/reboot cycles) under the
# streaming oracle, cut short by a wall-clock deadline: it stops after
# the chunk of `--jobs` seeds in which the deadline passed or a seed
# violated (the auto-shrinker prints a minimal repro).
#
# Not part of scripts/check.sh — run it by hand or from a nightly job:
#
#   SOAK_DURATION=28800 SOAK_SEEDS=512 scripts/soak_overnight.sh
#
# Environment:
#   SOAK_DURATION     deadline in seconds             (default 28800 = 8h)
#   SOAK_SEEDS        seeds to sweep                  (default 512)
#   SOAK_JOBS         parallel worlds                 (default: all cores)
#   SOAK_OUT          summary artifact path           (default SOAK_OVERNIGHT.txt)
set -euo pipefail

cd "$(dirname "$0")/.."

DURATION="${SOAK_DURATION:-28800}"
SEEDS="${SOAK_SEEDS:-512}"
OUT="${SOAK_OUT:-SOAK_OVERNIGHT.txt}"
JOBS_ARGS=()
if [[ -n "${SOAK_JOBS:-}" ]]; then
    JOBS_ARGS=(--jobs "$SOAK_JOBS")
fi

echo "==> building release repro"
cargo build -q --release -p renofs-bench --bin repro

echo "==> overnight soak: --long, up to ${SEEDS} seeds within ${DURATION}s" \
     "(report -> ${OUT})"
STATUS=0
./target/release/repro soak --long --duration "$DURATION" --seeds "$SEEDS" \
    "${JOBS_ARGS[@]}" | tee "$OUT" || STATUS=$?

if [[ "$STATUS" -ne 0 ]]; then
    echo "==> OVERNIGHT SOAK FAILED (exit $STATUS): see $OUT for the shrunk repro"
else
    echo "==> overnight soak clean: summary in $OUT"
fi
exit "$STATUS"
