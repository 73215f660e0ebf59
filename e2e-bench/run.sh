#!/usr/bin/env bash
# Builds the release `ddpa` binary and this benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash e2e-bench/run.sh --workload cold-deref --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" -p ddpa-cli >&2
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ddpa-e2e-bench" --ddpa "$CARGO_TARGET_DIR/release/ddpa" "$@"
