#!/bin/sh
# Ablations and tools (run after run_experiments.sh, which runs every figure
# and table once; no command here repeats one of its commands).
# Usage: sh run_experiments_extra.sh [extra args passed to every command]
set -e
cd "$(dirname "$0")"
run() {
  bin=$1; shift
  echo "=== $bin $* ==="
  cargo run --release -p avgi-bench --bin avgi -- "$bin" "$@" >"results/$bin.txt" 2>"results/$bin.log"
}
# Every campaign-driving command also emits machine-readable telemetry: live
# progress snapshots land in results/$bin.log, final counters + latency
# histograms in results/$bin.metrics.json.
runm() {
  bin=$1; shift
  run "$bin" --metrics "results/$bin.metrics.json" "$@"
}
runm ablation_ert_window --faults 150 "$@"
runm ablation_prefetch --faults 200 "$@"
runm avf_report --faults 200 --workload dijkstra "$@"
# (trace_dump runs no campaign and takes only --workload and --small)
run trace_dump --workload sha
echo "extras complete"
