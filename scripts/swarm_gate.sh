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
# divergence in the subscription tree fails the gate. Finally runs the
# timed comparison once and fails only on what is deterministic in it:
# the shared results must equal the unshared oracle's. The
# per-subscriber cost collapse (ISSUE 9 asked for >= 5x at 1000
# identical subscribers) is a wall-clock ratio of two runs on a shared
# box and is printed as a figure; speed is judged by
# `scripts/perf_pairs.sh <parent> swarm_shared`, against the parent
# commit on the same machine.
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

./target/release/swarm_bench "$report" > /dev/null
if ! grep -q '"results_identical":true' "$report"; then
  echo "shared swarm results diverged from the unshared oracle" >&2
  exit 1
fi
permille=$(sed -n 's/.*"cost_collapse_permille":\([0-9]*\).*/\1/p' "$report")
echo "swarm: unshared per-subscriber cost is ${permille:-?} permille of shared (figure, not a bar)"
echo "swarm gate OK: digests byte-identical, one evaluated plan, zero payload copies, oracle-identical results"
