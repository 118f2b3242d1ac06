#!/usr/bin/env bash
# Full offline benchmark pass: every criterion-lite microbench suite.
# End-to-end mining, serving and ingest numbers come from perfbench,
# the command BENCHMARK.json declares (printed at the end).
#
#   FARMER_BENCH_SAMPLES=<n>  repetitions per measurement (default 3)
#   scripts/bench.sh --smoke  1-sample quick pass (CI-friendly)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
  export FARMER_BENCH_SAMPLES=1
fi

for suite in substrates engines_and_pruning farmer_sweeps baseline_comparison; do
  echo "==> cargo bench --bench $suite"
  cargo bench --offline -p farmer-bench --bench "$suite"
done

echo "==> end-to-end benchmark: BENCHMARK.json's perfbench command (perfbench/README.md)"
echo "    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\"
echo "        --workload <mine_dense|serve_ingest> --seed <n> --seconds <s> --trace <0|1>"
