#!/usr/bin/env bash
# Runs every workload untraced and traced and prints each run's metric table
# (standard error) and result line (standard output). Run it from the root
# of the checkout:
#
#   bash perfbench/all.sh [SEED] [SECONDS]
set -euo pipefail

seed=${1:-1}
seconds=${2:-20}
for workload in sim-figure scenario-tail store-warm store-mixed; do
	for trace in 0 1; do
		echo "== $workload trace=$trace seed=$seed" >&2
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
