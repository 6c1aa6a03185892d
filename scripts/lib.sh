# Shared by lint_gate.sh and determinism_gate.sh (source it after `cd`
# to the repo root).
#
# GATE_TMP is a scratch directory removed when the gate exits.
GATE_TMP=$(mktemp -d)
trap 'rm -rf "$GATE_TMP"' EXIT

# run_twice_diff <bin> [args…]
#
# Builds the workspace binary <bin> in release mode, runs it twice with
# the same arguments and diffs the two outputs: every gated binary is
# seeded, so any difference is nondeterminism and fails the gate. The
# first run's output stays in $RUN_TWICE_OUT for the gate's own checks.
run_twice_diff() {
  local bin=$1
  shift
  cargo build -q --release --offline --workspace --bin "$bin"
  RUN_TWICE_OUT="$GATE_TMP/$bin.first"
  "target/release/$bin" "$@" > "$RUN_TWICE_OUT"
  "target/release/$bin" "$@" > "$GATE_TMP/$bin.second"
  if ! diff -u "$RUN_TWICE_OUT" "$GATE_TMP/$bin.second"; then
    echo "$bin $*: nondeterministic — the same seed produced different output" >&2
    return 1
  fi
}
