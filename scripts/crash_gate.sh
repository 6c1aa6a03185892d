#!/usr/bin/env bash
# Crash-recovery gate.
#
# Runs the seeded kill-point sweep (`crash_run`: ingest under a chaos
# VFS whose disk dies at byte N, reopen, verify the durability contract
# — see crates/bench/src/bin/crash_run.rs) twice and diffs the JSON
# transcripts. The binary itself asserts, at every kill point, that
# recovery restores all group-committed frames, loses at most one
# uncommitted group, replays to the clean run's prefix digest, never
# serves a corrupt tile, and is idempotent; the diff proves the whole
# crash/recover/replay path is deterministic. Also runs the
# crash-recovery acceptance tests (tests/crash_recovery.rs).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test crash_recovery

run_twice_diff crash_run
points=$(grep -c '"run":"kill"' "$RUN_TWICE_OUT")
if [ "$points" -lt 10 ]; then
  echo "kill-point sweep too small: $points points" >&2
  exit 1
fi
echo "crash gate OK: $points kill points recovered deterministically"
