#!/bin/sh
# Runs every workload, each in its own process so peak RSS is its own.
# usage: bash bench/all.sh [seed] [seconds] [trace]
set -e
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
for workload in distill-small rank-toy compress-cli; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
