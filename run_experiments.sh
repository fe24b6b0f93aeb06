#!/bin/sh
# Regenerates every table/figure of the paper reproduction into
# results/paper.{txt,log,metrics.json}: one `avgi paper` process, which
# simulates each campaign once and prints every figure as a fold over them.
# Usage: sh run_experiments.sh [extra args passed to `avgi paper`, whose
# default is 2000 faults per campaign; `--faults 8` is a smoke run]
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
runm paper "$@"
echo "all experiments complete"
