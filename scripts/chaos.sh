#!/usr/bin/env bash
# Chaos determinism gate.
#
# Runs the fixed-seed chaos suite (`chaos_run`: degraded downlink,
# supervised decoder crash, corrupted feed — see
# crates/bench/src/bin/chaos_run.rs) twice and diffs the digests. The
# digest covers injected-fault counts, repair/completeness stats, and
# an FNV hash over every delivered PNG byte, so any nondeterminism in
# fault injection, stream repair, supervision, or delivery fails the
# gate. Also runs the seeded chaos acceptance tests (tests/chaos.rs).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test chaos

run_twice_diff chaos_run
echo "chaos suite OK: $(wc -l < "$RUN_TWICE_OUT") scenarios byte-identical across runs"
