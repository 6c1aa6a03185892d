#!/usr/bin/env bash
# Observability gate: tracing acceptance, instrumentation-overhead bar,
# and metrics-exposition hygiene.
#
# Runs the tracing suite (tests/tracing.rs: span parentage complete and
# acyclic under chaos, e2e lag monotone in injected stalls, the
# /queries + /trace/<id> HTTP round-trip for a hybrid query with splice
# and backfill spans, watchdog cancellations freezing the flight
# recorder), then `obs_bench` twice in digest mode and diffs the
# outputs — the digest hashes every pixel delivered by the traced
# chunked path, so tracing-induced nondeterminism fails the gate. Then
# enforces the ISSUE 6 acceptance bar on every plan of the overhead
# bench — the point-wise hot path, a plan with a buffering operator and
# one delivered through PngSink: fully traced, each must retain >= 95%
# of its untraced throughput (one retry, since the box is a single
# shared vCPU). Finally lints the Prometheus
# exposition: every geostreams_* family must carry HELP and TYPE lines.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib.sh

cargo test -q --offline --test tracing

run_twice_diff obs_bench --digest
report="$GATE_TMP/report.json"
expo="$GATE_TMP/exposition.txt"

check_overhead() {
  ./target/release/obs_bench "$report" > /dev/null
  local plans plan permille ok=0
  plans=$(grep -o '"plan":"[a-z]*"[^}]*"traced_throughput_permille":[0-9]*' "$report" |
    sed 's/"plan":"\([a-z]*\)".*:\([0-9]*\)$/\1 \2/')
  if [ "$(wc -l <<< "$plans")" -ne 3 ]; then
    echo "expected three overhead plans in $report, got: ${plans:-none}" >&2
    return 1
  fi
  while read -r plan permille; do
    if [ "$permille" -lt 950 ]; then
      echo "tracing overhead above 5%: $plan plan traced at $permille permille of untraced" >&2
      ok=1
    else
      echo "tracing overhead OK: $plan plan traced at $permille permille of untraced throughput"
    fi
  done <<< "$plans"
  return "$ok"
}

if ! check_overhead; then
  echo "retrying overhead measurement once (shared-vCPU noise)..." >&2
  check_overhead
fi

# Exposition hygiene: every sample series must belong to a family that
# declares both HELP and TYPE metadata.
./target/release/obs_bench --exposition > "$expo"
grep -q '^geostreams_e2e_lag_ns_count{query="0"}' "$expo" || {
  echo "exposition is missing the per-query freshness series" >&2
  exit 1
}
awk '
  /^# HELP / { help[$3] = 1; next }
  /^# TYPE / { type[$3] = 1; next }
  /^geostreams_/ {
    fam = $1
    sub(/\{.*/, "", fam)
    sub(/_bucket$/, "", fam)
    sub(/_sum$/, "", fam)
    sub(/_count$/, "", fam)
    if (!(fam in help)) { print "missing HELP for " fam; bad = 1 }
    if (!(fam in type)) { print "missing TYPE for " fam; bad = 1 }
  }
  END { exit bad }
' "$expo" || {
  echo "metrics exposition lint failed: geostreams_* family without HELP/TYPE" >&2
  exit 1
}
echo "obs gate OK: digests byte-identical, overhead bar met, exposition well-formed"
