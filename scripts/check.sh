#!/usr/bin/env bash
# Full local gate: release build, tests, and lints.
#
# Offline-safe: the workspace has no crates.io dependencies (serde and
# serde_json are in-repo shims), so everything below runs without
# network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# The benchmark package (bench/, its own workspace) reaches the system
# only through public items: building it right away means a break of
# that surface fails in seconds, not after the whole suite.
cargo build --release --offline --manifest-path bench/Cargo.toml
cargo test -q --offline --workspace --no-fail-fast
# The release profile is the one the benchmark runs, and there
# `exec::Drive` skips the protocol checker: the suite runs in it too.
cargo test -q --offline --release --workspace --no-fail-fast
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check
# Doc links rot when a public item is deleted: every intra-doc link of
# the workspace must resolve.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Every experiment of EXPERIMENTS.md at reduced size: the one step that
# runs each experiment's code path (the §4 cascade tree of E5 included)
# outside unit tests.
cargo run --quiet --offline --release --example experiments -- --quick > /dev/null

# Every example that terminates (`serve` runs until killed): each
# asserts what it demonstrates; quickstart prints the EXPLAIN and
# ndvi_pipeline the analyzer's bound on points touched.
for example in quickstart ndvi_pipeline change_detection fire_monitor \
    reprojection_tour true_color multi_query_server; do
    cargo run --quiet --offline --release --example "$example" > /dev/null
done

# Static analysis: geolint (crates/lint) replaces the old awk
# forbidden-pattern pass with a comment/string-aware tokenizer and the
# full rule catalog of DESIGN.md §14 — panic-in-lib, lock-across-
# blocking, lock-order-cycle, unbounded-growth, instant-in-chunk-loop,
# relaxed-strong-mix, raw-file-io-in-store, detached-thread-spawn,
# scalar-pull, element-packing — gated through the justified allowlist in
# geolint.allow (stale entries fail the gate too).
scripts/lint_gate.sh

# Determinism gate: every seeded digest of crates/digest (chaos, crash,
# store, swarm, obs) run twice and diffed, plus the deterministic facts
# they carry (>= 10 kill points recovered, >= 2x compression, one
# shared plan, zero payload copies, oracle-identical results). No
# wall-clock bar: speed is scripts/perf_pairs.sh against the parent.
scripts/determinism_gate.sh

# The morsel driver has no gate of its own: its differential suite
# (crates/dsms/tests/parallel.rs and the unit tests of exec/morsel.rs —
# byte-identical to the serial plan across workers, budgets and
# granularities, under chaos and with share_plans on) ran with the
# workspace tests above, and its speed is a geobench figure
# (`exec.morsel_w2_efficiency`, reported at any core count).

# The benchmark package, built above: its unit tests (its in-memory
# source implements `GeoStream`) and its oracle check here mean a break
# of that surface fails locally, not in the pipeline that runs
# BENCHMARK.json.
cargo test -q --offline --release --manifest-path bench/Cargo.toml
bench/target/release/geobench verify --seed 1
