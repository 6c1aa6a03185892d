#!/usr/bin/env bash
# Noise self-test: two sets of untraced runs of every workload on the
# same commit, every run with a seed of its own. Prints median,
# quartiles, the spread of all runs and the shift between the two sets
# for every end-to-end metric, fails if a spread or a shift is larger
# than the metric's bound, and writes the medians to bench/BASELINE.json.
#
#   bench/noise.sh [runs per set, default 5] [seconds per run, default run_seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
export GEOBENCH_COMMIT=${GEOBENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-bench/target}

cargo build --quiet --offline --release --manifest-path bench/Cargo.toml
geobench=$CARGO_TARGET_DIR/release/geobench
"$geobench" check

workloads=(live_mixed ops_kernels archive_rw swarm_shared oneshot_http)
mkdir -p bench/out
samples=bench/out/noise-runs.txt
: > "$samples"
seed=0
for set in A B; do
    for ((i = 1; i <= runs; i++)); do
        seed=$((seed + 1))
        # Alternate the order, so that no workload always follows the same one.
        if ((i % 2)); then order=("${workloads[@]}"); else
            order=()
            for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do order+=("${workloads[k]}"); done
        fi
        for w in "${order[@]}"; do
            line=$("$geobench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "$set $w $seed $line" >> "$samples"
            echo "set $set seed $seed $w done" >&2
        done
    done
done

# A seed no timed run used: outputs only, against the slow oracle.
"$geobench" verify --seed $((seed + 1000))
"$geobench" spread "$samples" bench/BASELINE.json
