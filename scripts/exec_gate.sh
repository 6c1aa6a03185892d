#!/usr/bin/env bash
# Chunked-execution determinism + speedup gate.
#
# Runs the vectorized differential suite (tests/vectorized.rs: every
# operator's chunked output byte-identical to the scalar oracle across
# pull budgets), then the execution benchmark (`exec_bench`) twice in
# digest mode and diffs the outputs — the digest hashes every pixel
# delivered by both the scalar and the chunked path, so any divergence
# or nondeterminism in chunk slicing fails the gate. Finally enforces
# the ISSUE 5 acceptance bar: chunked execution >= 3x points/s over the
# legacy scalar executor loop on the restriction and value-transform
# microbenchmarks (one retry, since the box is a single shared vCPU).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test vectorized

run_twice_diff exec_bench --digest
report="$GATE_TMP/report.json"

check_speedups() {
  ./target/release/exec_bench "$report" > /dev/null
  local name permille ok=0
  for name in restrict transform; do
    permille=$(sed -n "s/.*\"${name}_speedup_permille\":\([0-9]*\).*/\1/p" "$report")
    if [ -z "$permille" ] || [ "$permille" -lt 3000 ]; then
      echo "${name}: chunked speedup below 3x: ${permille:-?} permille" >&2
      ok=1
    else
      echo "${name}: chunked ${permille} permille of scalar throughput"
    fi
  done
  return "$ok"
}

if ! check_speedups; then
  echo "retrying speedup measurement once (shared-vCPU noise)..." >&2
  check_speedups
fi
echo "exec gate OK: digests byte-identical, speedup bar met"
