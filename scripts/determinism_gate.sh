#!/usr/bin/env bash
# Determinism gate: one run-twice-and-diff over every seeded digest.
#
# `geostreams-digest <sub>` (crates/digest) drives one stateful path
# from fixed seeds and prints only what the seeds determine — counts,
# byte totals, FNV hashes of every delivered pixel or PNG byte:
#
#   chaos  supervised runtime over three degraded downlinks
#   crash  archive kill-point sweep: recovery loses at most one commit
#          group, replays the clean prefix, is idempotent (asserted by
#          the binary at every point); the clean run writes each
#          archived byte once (write amplification <= 1.15x)
#   store  archive persist + full replay
#   swarm  1000 shared subscribers against a 32-query unshared oracle
#   obs    traced chunked driver against the untraced one
#
# Any difference between two runs is nondeterminism and fails the gate;
# so do the facts below, which are deterministic too. No wall clock is
# read: speed is judged by scripts/perf_pairs.sh against the parent
# commit. The acceptance suites beside these digests (tests/chaos.rs,
# crash_recovery.rs, store.rs, sharing.rs, tracing.rs, vectorized.rs)
# run with the workspace tests.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

fail() {
  echo "$1: $(cat "$RUN_TWICE_OUT")" >&2
  exit 1
}

for sub in chaos crash store swarm obs; do
  run_twice_diff geostreams-digest "$sub"
  case $sub in
    crash)
      kills=$(grep -c '"run":"kill"' "$RUN_TWICE_OUT" || true)
      [ "$kills" -ge 10 ] || fail "crash: kill-point sweep too small ($kills points)"
      amp=$(sed -n 's/.*"write_amplification_permille":\([0-9]*\).*/\1/p' "$RUN_TWICE_OUT")
      [ "${amp:-9999}" -le 1150 ] || fail "crash: write amplification ${amp:-?} permille above 1150"
      ;;
    store)
      permille=$(sed -n 's/.*"compression_permille":\([0-9]*\).*/\1/p' "$RUN_TWICE_OUT")
      [ "${permille:-0}" -ge 2000 ] || fail "store: compression below 2x vs raw f32"
      ;;
    swarm)
      for fact in '"distinct_plans":1' '"payload_copies":0' '"identical":true'; do
        grep -q "$fact" "$RUN_TWICE_OUT" || fail "swarm: digest lacks $fact"
      done
      ;;
  esac
  echo "$sub: $(wc -l < "$RUN_TWICE_OUT") digest line(s) byte-identical across runs"
done
echo "determinism gate OK"
