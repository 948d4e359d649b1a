#!/usr/bin/env bash
# Runs every lssbench workload in sets and prints each metric's median and
# quartiles per workload, flagging metrics whose sets disagree by more than
# their BENCHMARK.json bound:
#
#   bench/lssbench/run.sh [--sets N] [--seed S] [--vary-seed] [--seconds T]
#                         [--trace] [--workloads a,b] [--json FILE]
#
# --trace adds a traced run to every set and reports the tracing overhead.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
