#!/usr/bin/env bash
# geolint gate: the first-party static analyzer over its own workspace.
#
# Three checks, all offline (geolint is an in-workspace crate with no
# dependencies):
#
#   1. Self-run: the tree is clean under the committed allowlist
#      (exit 1 also covers allowlist drift — entries matching nothing).
#   2. Run-twice JSON diff: the report is byte-deterministic, so the
#      gate can never flake on ordering.
#   3. Engine suite: the rule fixtures and the self-lint test.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo build -q --release --offline -p geostreams-lint

echo "== geolint self-run (allowlist: geolint.allow) =="
target/release/geolint --root . --allow geolint.allow

echo "== geolint determinism (run-twice JSON diff) =="
run_twice_diff geolint --root . --allow geolint.allow --json
echo "byte-identical across runs"

echo "== geolint engine suite =="
cargo test -q --offline -p geostreams-lint

echo "lint gate OK"
