#!/usr/bin/env bash
# Builds the shipped `sigrule` binary and the benchmark harness from this
# checkout, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a sigrule checkout.  Build output goes to
# $CARGO_TARGET_DIR (default: target); generated inputs and process logs to
# .perfbench/.  The last line of stdout is the result object.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a sigrule checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p sigrule_cli --bin sigrule >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --sigrule "$CARGO_TARGET_DIR/release/sigrule" "$@"
