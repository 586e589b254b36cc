#!/usr/bin/env bash
# Build `cqdet` and the benchmark program from source, then run the benchmark.
#
#   bash wirebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Cargo output goes to stderr; the benchmark's
# last stdout line is the JSON result.  CARGO_TARGET_DIR defaults to
# `.bench_build` under the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" --bin cqdet >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/cqdet-wirebench" --server "$CARGO_TARGET_DIR/release/cqdet" "$@"
