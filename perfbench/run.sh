#!/usr/bin/env bash
# Builds the release binaries under test and the benchmark driver, then runs
# the driver with the given arguments:
#   bash perfbench/run.sh --workload <study|docdiff|serve-hot> \
#       --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr; the last line of
# stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    -p sbomdiff --bin sbomdiff -p sbomdiff-service --bin sbomdiff-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
