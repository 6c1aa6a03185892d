#!/usr/bin/env bash
# Shared-plan multicast gate.
#
# Runs the sharing acceptance suite (tests/sharing.rs: identical
# queries collapse onto one pipeline, partial overlap shares the common
# prefix, unsubscribe tears down only unreferenced plans, per-tenant
# shed, chaos determinism, zero payload copies), then the swarm
# benchmark (`swarm_bench`) twice in digest mode and diffs the outputs
# — the digest carries per-subscriber delivery counts, the distinct
# evaluated-plan count, the payload-copy count, and the
# shared-vs-unshared equality bit, so any nondeterminism or result
# divergence in the subscription tree fails the gate. Finally enforces
# the ISSUE 9 acceptance bar: at 1000 identical subscribers the shared
# path is >= 5x cheaper per subscriber than the unshared oracle (one
# retry, since the box is a single shared vCPU).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test sharing

run_twice_diff swarm_bench --digest
report="$GATE_TMP/report.json"
for field in '"distinct_plans":1' '"payload_copies":0' '"identical":true'; do
  if ! grep -q "$field" "$RUN_TWICE_OUT"; then
    echo "swarm digest missing invariant ${field}: $(cat "$RUN_TWICE_OUT")" >&2
    exit 1
  fi
done

check_collapse() {
  ./target/release/swarm_bench "$report" > /dev/null
  local permille
  permille=$(sed -n 's/.*"cost_collapse_permille":\([0-9]*\).*/\1/p' "$report")
  if [ -z "$permille" ] || [ "$permille" -lt 5000 ]; then
    echo "per-subscriber cost collapse below 5x: ${permille:-?} permille" >&2
    return 1
  fi
  if ! grep -q '"results_identical":true' "$report"; then
    echo "shared swarm results diverged from the unshared oracle" >&2
    return 1
  fi
  echo "swarm: shared path ${permille} permille of unshared per-subscriber cost"
}

if ! check_collapse; then
  echo "retrying collapse measurement once (shared-vCPU noise)..." >&2
  check_collapse
fi
echo "swarm gate OK: digests byte-identical, one evaluated plan, zero payload copies, >= 5x collapse"
