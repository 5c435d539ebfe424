#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation.
# Outputs land in results/. Pass a scale override as $1 (default: each
# binary's own default, sized for a laptop-class machine).
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE_ARG=()
if [[ $# -ge 1 ]]; then SCALE_ARG=(--scale "$1"); fi
cargo build --release -p graphsig-bench
for bin in fig02_fsm_scalability fig04_atom_coverage table05_datasets \
           fig09_time_vs_frequency fig09_low_freq_probe fig10_cost_profile \
           fig11_time_vs_dbsize fig12_time_vs_pvalue \
           fig13_15_significant_structures fig16_pvalue_vs_frequency \
           classifier_eval ablation_rwr_vs_count ablation_fvmine_pruning \
           ablation_significant_vs_frequent; do
  echo "=== $bin ==="
  ./target/release/$bin "${SCALE_ARG[@]}" | tee "results/$bin.txt"
  echo
done
echo "all experiment outputs written to results/"
