#!/usr/bin/env bash
# Morsel-driven parallel execution gate.
#
# Runs the parallel differential suite (crates/dsms/tests/parallel.rs:
# every partitionable operator and a stacked pipeline byte-identical
# across worker counts and budgets, under ChaosStream faults and with
# share_plans on), then the parallel benchmark (`par_bench`) twice in
# digest mode and diffs the outputs — the digest hashes every pixel
# delivered by the serial oracle and every worker count, so any
# divergence or merge nondeterminism fails the gate. Finally enforces
# the ISSUE 10 acceptance bar: >= 2x throughput at 4 workers vs 1
# worker on the restriction and value-transform kernels (one retry for
# scheduler noise). On a machine with fewer than 4 cores the speedup
# bar is impossible by construction and is loudly SKIPPED; the
# determinism and byte-identity checks always run.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline -p geostreams-dsms --test parallel

run_twice_diff par_bench --digest
report="$GATE_TMP/report.json"

cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -lt 4 ]; then
  # Byte-identity was still proven above (par_bench asserts the serial,
  # 1-worker and 4-worker hashes agree before printing anything).
  echo "par gate: SKIPPING the >=2x speedup bar: only ${cores} core(s) available (need 4)." >&2
  echo "par gate OK: digests byte-identical across worker counts (speedup bar skipped)"
  exit 0
fi

check_speedups() {
  ./target/release/par_bench "$report" > /dev/null
  local name permille ok=0
  for name in restrict transform; do
    permille=$(sed -n "s/.*\"${name}_speedup_permille\":\([0-9]*\).*/\1/p" "$report")
    if [ -z "$permille" ] || [ "$permille" -lt 2000 ]; then
      echo "${name}: 4-worker speedup below 2x: ${permille:-?} permille" >&2
      ok=1
    else
      echo "${name}: 4 workers at ${permille} permille of 1-worker wall time"
    fi
  done
  return "$ok"
}

if ! check_speedups; then
  echo "retrying speedup measurement once (scheduler noise)..." >&2
  check_speedups
fi
echo "par gate OK: digests byte-identical, 4-worker speedup bar met"
