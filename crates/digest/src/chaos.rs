//! `chaos`: the fixed-seed chaos suite.
//!
//! Runs the supervised DSMS runtime over three degraded GOES-like
//! downlinks — row loss + duplication + disorder, a mid-sector decoder
//! crash (supervised restart), and a heavily corrupted feed — and
//! prints one JSON line per scenario describing everything the run
//! produced: per-band element and fault counts, per-source repair
//! stats and sector completeness ratios, delivered point counts, and
//! an FNV-1a hash over every delivered PNG byte.
//!
//! The digest deliberately excludes anything timing-dependent (shed
//! counts, wall clock, watchdog state; channels are sized so shedding
//! cannot trigger): any nondeterminism in fault injection, repair,
//! supervision, or delivery shows up as a diff and fails the gate.

use crate::{fnv1a, FNV_OFFSET};
use geostreams_dsms::protocol::{ClientRequest, OutputFormat};
use geostreams_dsms::{run_supervised, QueryResult, RuntimeConfig};
use geostreams_satsim::{goes_like, FaultPlan};
use std::time::Duration;

fn req(q: &str, format: OutputFormat) -> ClientRequest {
    ClientRequest { query: q.to_string(), format, sectors: 0 }
}

/// A JSON array body: `f` of every item, comma-separated.
fn list<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(",")
}

/// Serializes one scenario's outcome with stable field order.
fn digest(
    name: &str,
    results: &[geostreams_core::Result<QueryResult>],
    bands: &[(u16, u64)],
    faults: &[(u16, geostreams_satsim::FaultStats)],
    restarts: u64,
) -> String {
    let bands =
        list(bands, |(band, elements)| format!("{{\"band\":{band},\"elements\":{elements}}}"));
    let faults = list(faults, |(band, f)| {
        format!(
            "{{\"band\":{band},\"in\":{},\"points_dropped\":{},\"frames_dropped\":{},\"markers_dropped\":{},\"duplicated\":{},\"reordered\":{},\"corrupted\":{},\"died\":{}}}",
            f.elements_in,
            f.points_dropped,
            f.frames_dropped,
            f.end_markers_dropped,
            f.duplicated,
            f.reordered,
            f.corrupted,
            f.died,
        )
    });
    let queries = list(results.iter().enumerate(), |(i, r)| match r {
        Err(e) => format!("{{\"id\":{i},\"error\":\"{e}\"}}"),
        Ok(r) => {
            let png_hash = r.frames.iter().fold(FNV_OFFSET, |h, f| fnv1a(&f.png, h));
            let points = r.report.as_ref().map_or(0, |rep| rep.points_delivered);
            let repair = list(&r.repair, |s| {
                let sectors = list(&s.sectors, |sec| {
                    format!("{{\"sector\":{},\"ratio\":\"{:.6}\"}}", sec.sector_id, sec.ratio())
                });
                format!(
                    "{{\"source\":\"{}\",\"gaps\":{},\"dup_frames\":{},\"dup_points\":{},\"disorder\":{},\"partial_frames\":{},\"expected\":{},\"received\":{},\"completeness\":\"{:.6}\",\"sectors\":[{sectors}]}}",
                    s.source,
                    s.stats.gaps,
                    s.stats.duplicate_frames,
                    s.stats.duplicate_points,
                    s.stats.disorder,
                    s.stats.partial_frames,
                    s.stats.expected_points,
                    s.stats.received_points,
                    s.stats.completeness(),
                )
            });
            format!(
                "{{\"id\":{},\"points\":{points},\"frames\":{},\"png_fnv\":\"{png_hash:016x}\",\"repair\":[{repair}]}}",
                r.id,
                r.frames.len(),
            )
        }
    });
    format!(
        "{{\"scenario\":\"{name}\",\"restarts\":{restarts},\"bands\":[{bands}],\"faults\":[{faults}],\"queries\":[{queries}]}}"
    )
}

fn run_scenario(name: &str, plan: FaultPlan, requests: &[ClientRequest], sectors: u64) -> String {
    let scanner = goes_like(64, 32, 11);
    let config = RuntimeConfig {
        fault_plan: Some(plan),
        // Large enough that timing can never shed an element — the
        // digest must depend only on the seed.
        channel_cap: 1 << 16,
        watchdog: Some(Duration::from_secs(120)),
        backoff_base: Duration::from_millis(1),
        ..RuntimeConfig::default()
    };
    let (results, stats) =
        run_supervised(&scanner, sectors, requests, &config).expect("chaos scenario must register");
    digest(name, &results, &stats.elements_per_band, &stats.faults_per_band, stats.restarts)
}

pub fn run() {
    let requests = vec![
        req("goes-sim.b1-vis", OutputFormat::PngGray),
        req("stretch(goes-sim.b4-ir, \"linear\")", OutputFormat::Stats),
        req("goes-sim.b4-ir", OutputFormat::Stats),
    ];
    println!(
        "{}",
        run_scenario(
            "degraded-downlink",
            FaultPlan::seeded(4242)
                .with_dropped_rows(0.08)
                .with_dropped_points(0.04)
                .with_dropped_end_markers(0.06)
                .with_duplicates(0.05)
                .with_reordering(0.05),
            &requests,
            4,
        )
    );
    println!(
        "{}",
        run_scenario(
            "decoder-crash",
            FaultPlan::seeded(7)
                .with_dropped_rows(0.05)
                .with_duplicates(0.03)
                .with_death_after(700),
            &requests,
            4,
        )
    );
    println!(
        "{}",
        run_scenario(
            "corrupted-feed",
            FaultPlan::seeded(99)
                .with_corruption(0.10, 50.0)
                .with_dropped_points(0.05)
                .with_reordering(0.08),
            &requests,
            3,
        )
    );
}
