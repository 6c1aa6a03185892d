#!/usr/bin/env bash
# Archive determinism + compression gate.
#
# Runs the seeded store benchmark (`store_bench`: ingest a GOES-like
# band into a fresh tiled archive, replay it in full — see
# crates/bench/src/bin/store_bench.rs) twice in digest mode and diffs
# the outputs. The digest covers frame/tile counts, stored and raw byte
# totals, and an FNV hash over every replayed pixel value, so any
# nondeterminism in encoding, segment layout, or replay fails the gate.
# Also enforces the ISSUE 4 compression bar (>= 2x vs raw f32 pixels)
# and runs the archive acceptance tests (tests/store.rs).
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test store

run_twice_diff store_bench --digest
permille=$(sed -n 's/.*"compression_permille":\([0-9]*\).*/\1/p' "$RUN_TWICE_OUT")
if [ -z "$permille" ] || [ "$permille" -lt 2000 ]; then
  echo "compression ratio below 2x: ${permille:-?} permille" >&2
  exit 1
fi
echo "store gate OK: digests byte-identical, compression ${permille} permille"
