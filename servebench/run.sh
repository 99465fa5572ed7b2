#!/usr/bin/env bash
# One run of the service benchmark, from the root of a checkout:
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the release `ppe` binary and the benchmark from source (into
# $CARGO_TARGET_DIR, default .bench_build), then runs the benchmark, which
# prints its result as the last line of standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -f src/bin/ppe.rs || ! -d crates/server ]]; then
    echo "servebench: not a checkout of the repository (no Cargo.toml, src/bin/ppe.rs or crates/server here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin ppe >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --ppe "$CARGO_TARGET_DIR/release/ppe" \
    --work-dir "$CARGO_TARGET_DIR/servebench-work" \
    "$@"
