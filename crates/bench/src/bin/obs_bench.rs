//! Dumps a machine-readable observability summary (`BENCH_obs.json`).
//!
//! Runs the traced reference query of [`geostreams_bench::run_obs_bench`]
//! over a 256x256, 4-sector ramp stream and writes the resulting
//! [`geostreams_bench::ObsBenchReport`] — run-level and per-operator
//! pull-latency percentiles, buffer peaks, trace-event counts, and the
//! instrumentation-overhead measurement of
//! [`geostreams_bench::run_overhead_bench`] for every plan of
//! [`geostreams_bench::OVERHEAD_PLANS`] — as JSON to the path given as
//! the first argument (default `BENCH_obs.json`).
//!
//! Two extra modes feed `scripts/obs_gate.sh`:
//!
//! * `--digest` prints exactly one timing-free JSON line (point count,
//!   pixel FNV, span count of the point-wise plan) so the gate can run
//!   the binary twice and `diff` the outputs to prove the traced path
//!   is deterministic;
//! * `--exposition` prints a representative `/metrics` scrape —
//!   every `geostreams_*` family the server can export, including the
//!   per-query freshness series — for the HELP/TYPE lint.

use geostreams_bench::{run_obs_bench, run_overhead_bench, OVERHEAD_PLANS};
use geostreams_dsms::ServerMetrics;
use geostreams_store::StoreMetrics;

/// A representative metrics scrape: every family the server registers,
/// plus the dynamically-labeled per-query/per-band series.
fn exposition() -> String {
    let metrics = ServerMetrics::new();
    let _store = StoreMetrics::register(metrics.registry());
    let _rec = metrics.register_query(0, "goes-sim.b4-ir");
    let _ = metrics.registry().gauge("geostreams_band_staleness_ns", &[("band", "goes-sim.b4-ir")]);
    metrics.render_prometheus()
}

fn main() {
    if std::env::args().any(|a| a == "--exposition") {
        print!("{}", exposition());
        return;
    }
    let measure = |plan| run_overhead_bench(plan, 256, 96, 24, 7);
    if std::env::args().any(|a| a == "--digest") {
        let overhead = measure(&OVERHEAD_PLANS[0]);
        println!(
            "{{\"bench\":\"obs\",\"points\":{},\"fnv\":\"{:016x}\",\"spans\":{}}}",
            overhead.points, overhead.fnv, overhead.spans
        );
        return;
    }
    let path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let mut report = run_obs_bench(256, 256, 4);
    report.overhead = OVERHEAD_PLANS.iter().map(measure).collect();
    let json = serde_json::to_string(&report).expect("serialize obs report");
    std::fs::write(&path, json.as_bytes()).expect("write obs report");
    println!(
        "wrote {path}: {} points in {} µs, root pull p50={} ns p95={} ns p99={} ns, {} trace events",
        report.run.points_delivered,
        report.run.wall_us,
        report.run.pull_p50_ns,
        report.run.pull_p95_ns,
        report.run.pull_p99_ns,
        report.trace_events
    );
    for overhead in &report.overhead {
        println!(
            "tracing overhead, {} plan: {:.0} pts/s untraced vs {:.0} pts/s traced \
             ({} permille, {} spans recorded)",
            overhead.plan,
            overhead.untraced_pps,
            overhead.traced_pps,
            overhead.traced_throughput_permille,
            overhead.spans
        );
    }
}
