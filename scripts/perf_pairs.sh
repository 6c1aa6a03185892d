#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit and the working tree.
#
#   scripts/perf_pairs.sh <parent-ref> <workload> [pairs=10] [seed=1] [trace=0]
#
# Snapshots <parent-ref> (git archive) and the working tree (tracked and
# untracked-unignored files) into two fresh directories under
# target/perf_pairs/, builds each once with its own target directory,
# then runs the BENCHMARK.json command for <workload> `pairs` times on
# each side, alternating which side goes first. Nothing under bench/ of
# the working tree is written: both sides run inside their snapshots.
#
# Per metric it prints each side's median and quartiles, the change in
# the median, wins/pairs (ties count for neither) and a verdict by §8 of
# the choosing-metrics guide:
#
#   gain        change wins >= 9/10 of the pairs and the medians differ
#               by more than the parent's interquartile distance
#   WORSE       the change's median is worse than the parent's by more
#               than the metric's BENCHMARK.json bound (end-to-end only)
#   unresolved  a side's interquartile spread is wider than the bound
#   level       none of the above
#
# trace=1 compares the per-layer metrics of the traced run instead.
#
# Each invocation also appends one line to BENCH_history.jsonl at the
# repository root — commit, parent, core count, workload, seed and, per
# metric, both sides' median and quartiles, the wins and the verdict —
# so the trajectory across PRs is a file. Every figure in it is
# relative to a parent measured in the same session on the same
# machine; there is no absolute bar.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
parent_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1} trace=${5:-0}

work=target/perf_pairs
parent_rev=$(git rev-parse "$parent_ref^{commit}")
rm -rf "$work/parent" "$work/change" "$work/runs"
# git archive stamps every file with the commit's time, so a target
# directory built from a newer parent would look up to date to cargo:
# it is kept only while the parent commit stays the same.
[ "$(cat "$work/parent-target/.commit" 2>/dev/null)" = "$parent_rev" ] || rm -rf "$work/parent-target"
mkdir -p "$work/parent" "$work/change" "$work/runs" "$work/parent-target"
git archive "$parent_rev" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar -c --null -T - | tar -x -C "$work/change"

# The benchmark contract: the command and run length both sides share.
manifest=BENCHMARK.json
mapfile -t cmd < <(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$manifest" | tr ',' '\n' |
  sed 's/^ *"//; s/" *$//')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$manifest")
[ "${#cmd[@]}" -gt 0 ] && [ -n "$seconds" ] || { echo "cannot read $manifest" >&2; exit 2; }

root=$PWD
run_side() { # <side> -> the result line of one run
  (cd "$root/$work/$1" &&
    CARGO_TARGET_DIR="$root/$work/$1-target" "${cmd[@]}" \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null |
    tail -n 1)
}

echo "building parent ($parent_ref) and change (working tree)..." >&2
for side in parent change; do
  (cd "$work/$side" && CARGO_TARGET_DIR="$root/$work/$side-target" \
    cargo build --quiet --offline --release --manifest-path bench/Cargo.toml)
done
echo "$parent_rev" > "$work/parent-target/.commit"

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    run_side "$side" > "$work/runs/$side.$i"
    echo "pair $i/$pairs $side: $(grep -o '"attempted": *[0-9]*, *"failed": *[0-9]*' "$work/runs/$side.$i")" >&2
  done
done

# metric <file> -> "name value" per line
metrics() {
  grep -o '"[a-z0-9_.]*": *{"value": *[-0-9.e+]*' "$1" | sed 's/"\([^"]*\)": *{"value": *\(.*\)/\1 \2/'
}
failed() { sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' "$1"; }

history="$work/runs/history"
: > "$history"

echo
echo "$workload seed=$seed seconds=$seconds trace=$trace pairs=$pairs  parent=$parent_ref ($(git rev-parse --short "$parent_ref"))"
declare -A failures
for side in parent change; do
  total=0
  for i in $(seq 1 "$pairs"); do total=$((total + $(failed "$work/runs/$side.$i"))); done
  echo "$side: failed operations over all runs = $total"
  failures[$side]=$total
done
printf '%-34s %-6s %14s %25s %14s %25s %8s %6s  %s\n' \
  metric better parent_median "[q1, q3]" change_median "[q1, q3]" delta wins verdict

for name in $(metrics "$work/runs/parent.1" | cut -d' ' -f1); do
  decl=$(grep -o "{\"name\": *\"$name\"[^}]*}" "$manifest" || true)
  better=$(sed -n 's/.*"better": *"\([a-z]*\)".*/\1/p' <<< "$decl")
  bound=$(sed -n 's/.*"bound": *\([0-9.]*\).*/\1/p' <<< "$decl")
  for i in $(seq 1 "$pairs"); do
    p=$(metrics "$work/runs/parent.$i" | awk -v n="$name" '$1 == n { print $2 }')
    c=$(metrics "$work/runs/change.$i" | awk -v n="$name" '$1 == n { print $2 }')
    echo "$p $c"
  done | awk -v name="$name" -v better="${better:-higher}" -v bound="${bound:-0}" -v history="$history" '
    function quart(a, n, q,   k) { k = int(q * n + 0.999999); if (k < 1) k = 1; return a[k] }
    function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    function sorted(src, dst, n,   i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
    }
    { n++; p[n] = $1; c[n] = $2
      if (better == "higher") { if ($2 > $1) wins++; else if ($2 < $1) losses++ }
      else { if ($2 < $1) wins++; else if ($2 > $1) losses++ } }
    END {
      sorted(p, sp, n); sorted(c, sc, n)
      pm = med(sp, n); cm = med(sc, n)
      pq1 = quart(sp, n, 0.25); pq3 = quart(sp, n, 0.75)
      cq1 = quart(sc, n, 0.25); cq3 = quart(sc, n, 0.75)
      delta = pm != 0 ? (cm - pm) / (pm < 0 ? -pm : pm) : 0
      improved = better == "higher" ? cm > pm : cm < pm
      diff = cm - pm; if (diff < 0) diff = -diff
      worse_by = better == "higher" ? -delta : delta
      spread = 0
      if (pm != 0 && (pq3 - pq1) / (pm < 0 ? -pm : pm) > spread) spread = (pq3 - pq1) / (pm < 0 ? -pm : pm)
      if (cm != 0 && (cq3 - cq1) / (cm < 0 ? -cm : cm) > spread) spread = (cq3 - cq1) / (cm < 0 ? -cm : cm)
      verdict = "level"
      if (improved && wins >= 0.9 * n && diff > pq3 - pq1) verdict = "gain"
      else if (bound > 0 && worse_by > bound) verdict = "WORSE"
      else if (bound > 0 && spread > bound) verdict = "unresolved"
      printf "%-34s %-6s %14.6g %25s %14.6g %25s %+7.1f%% %3d/%-2d  %s\n", name, better, pm,
        sprintf("[%.6g, %.6g]", pq1, pq3), cm, sprintf("[%.6g, %.6g]", cq1, cq3),
        100 * delta, wins, n, verdict
      printf "\"%s\":{\"parent\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"wins\":%d,\"verdict\":\"%s\"}\n",
        name, pm, pq1, pq3, cm, cq1, cq3, wins, verdict >> history
    }'
done

printf '{"commit":"%s","parent":"%s","cores":%d,"workload":"%s","seed":%d,"seconds":%d,"trace":%d,"pairs":%d,"failed":{"parent":%d,"change":%d},"metrics":{%s}}\n' \
  "$(git describe --always --dirty)" "$(git rev-parse --short "$parent_ref")" "$(nproc)" \
  "$workload" "$seed" "$seconds" "$trace" "$pairs" "${failures[parent]}" "${failures[change]}" \
  "$(paste -sd, "$history")" >> BENCH_history.jsonl
echo "appended to BENCH_history.jsonl"
