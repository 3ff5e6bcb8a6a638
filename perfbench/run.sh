#!/usr/bin/env bash
# Builds the program's release binaries and the benchmark program from
# this checkout's sources, then runs the benchmark with the given flags:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p yoco-sweep --bin sweep --bin yoco-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/yoco-perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
