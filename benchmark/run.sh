#!/usr/bin/env bash
# Builds the benchmark (offline, release profile) and runs it:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run | trace | noise | record | manifest
#
# See benchmark/README.md. Paths are relative to the repository root, which
# this script changes into.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/avgi-perf"

# Two compute threads everywhere: on a bigger host, pin to two CPUs so that
# the crates' own "all cores" defaults resolve to the same two.
if [ "$(nproc)" -gt 2 ] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c 0-1 "$bin" "$@"
fi
exec "$bin" "$@"
