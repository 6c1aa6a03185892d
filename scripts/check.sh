#!/usr/bin/env bash
# Full local gate: release build, tests, and lints.
#
# Offline-safe: the workspace has no crates.io dependencies (serde/
# serde_json/criterion are in-repo shims), so everything below runs
# without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace --no-fail-fast
cargo clippy --offline --all-targets -- -D warnings
cargo fmt --check

# Static analysis: geolint (crates/lint) replaces the old awk
# forbidden-pattern pass with a comment/string-aware tokenizer and the
# full rule catalog of DESIGN.md §14 — panic-in-lib, lock-across-
# blocking, lock-order-cycle, unbounded-growth, instant-in-chunk-loop,
# relaxed-strong-mix, raw-file-io-in-store, detached-thread-spawn,
# scalar-pull — gated through the justified allowlist in
# geolint.allow (stale entries fail the gate too).
scripts/lint_gate.sh

# Seeded chaos suite: acceptance tests plus a run-twice-and-diff
# determinism check over the fault-injected runtime.
scripts/chaos.sh

# Archive gate: acceptance tests, run-twice-and-diff determinism over
# the persist/replay path, and the >= 2x compression bar.
scripts/store_gate.sh

# Crash gate: seeded kill-point sweep (WAL recovery, checksum
# verification, bounded loss) run twice and diffed.
scripts/crash_gate.sh

# Chunked-execution gate: scalar/chunked differential suite, digest
# determinism, and the >= 3x microbench speedup bar.
scripts/exec_gate.sh

# Observability gate: tracing acceptance suite, traced-path digest
# determinism, the <= 5% instrumentation-overhead bar, and the
# HELP/TYPE exposition lint.
scripts/obs_gate.sh

# Shared-plan multicast gate: sharing acceptance suite, swarm digest
# determinism (one plan, zero payload copies, oracle-identical
# results); the per-subscriber cost collapse is printed, not gated.
scripts/swarm_gate.sh

# The morsel driver has no gate of its own: its differential suite
# (crates/dsms/tests/parallel.rs and the unit tests of exec/morsel.rs —
# byte-identical to the serial plan across workers, budgets and
# granularities, under chaos and with share_plans on) ran with the
# workspace tests above, and its speed is a geobench figure
# (`exec.morsel_w2_efficiency`, reported at any core count).

# The benchmark package (bench/, its own workspace) reaches the system
# only through public items: building it and running its oracle check
# here means a break of that surface fails locally, not in the
# pipeline that runs BENCHMARK.json.
cargo build --release --offline --manifest-path bench/Cargo.toml
bench/target/release/geobench verify --seed 1
