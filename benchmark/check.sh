#!/usr/bin/env bash
# CI entry point for the benchmark package: offline release build, a smoke
# run of both binaries (2 cells, 2 passes per workload: plumbing and
# correctness checks, not a measurement) and the unit tests.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" --bin bench -- --smoke
cargo run --release --offline --quiet --manifest-path "$manifest" --bin trace -- --smoke --workload lookup_lan
cargo test --release --offline --quiet --manifest-path "$manifest"
