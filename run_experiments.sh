#!/bin/sh
# Regenerates every table/figure of the paper reproduction into results/.
# Usage: sh run_experiments.sh [extra args passed to every command; a repeated
# flag overrides the one named here, so `--faults 8` is a smoke run]
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
# (fig02 runs no campaign and takes no flags)
run fig02_imm_diagram
runm fig01_ace_vs_sfi --faults 400 "$@"
runm fig04_effects_per_imm --faults 2000 "$@"
runm fig08_ert_inclusive_exclusive --faults 300 "$@"
runm fig07_esc_prediction --faults 250 "$@"
runm fig03_imm_distribution --faults 250 "$@"
runm table2_speedup --faults 200 "$@"
runm fig05_imm_weights --faults 200 "$@"
runm fig10_accuracy --faults 200 "$@"
runm fig12_case_study --faults 150 "$@"
runm fig11_fit_rates --faults 150 "$@"
echo "all experiments complete"
