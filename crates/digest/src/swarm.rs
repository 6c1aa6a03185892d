//! `swarm`: shared-plan multicast.
//!
//! Registers a swarm of identical counting queries against the
//! supervised runtime twice — once with plan sharing enabled (one
//! evaluated pipeline, a subscription tree multicasting `Arc`-shared
//! chunks to every subscriber) and once over the one-pipeline-per-query
//! path, on a smaller swarm (running 1000 independent pipelines would
//! prove nothing but patience) — and prints one JSON line: the
//! per-subscriber delivery counts, the distinct-plan count, the
//! payload-copy count and whether every shared subscriber received
//! what the unshared oracle's did.

use geostreams_dsms::protocol::{ClientRequest, OutputFormat};
use geostreams_dsms::{run_supervised, FanoutPolicy, IngestStats, RuntimeConfig, ServerMetrics};
use geostreams_satsim::{goes_like, Scanner};
use std::sync::Arc;

// A representative dashboard query: a focal aggregate is the kind of
// per-chunk work whose cost actually multiplies across an unshared
// swarm (cheap plans are dominated by per-subscriber bookkeeping
// either way).
const QUERY: &str =
    "focal(focal(focal(scale(goes-sim.b4-ir, 2, 0), \"mean\", 5), \"max\", 5), \"min\", 5)";
const SECTORS: u64 = 4;
const SHARED_SUBS: usize = 1000;
const ORACLE_SUBS: usize = 32;

fn scanner() -> Scanner {
    goes_like(512, 256, 11)
}

/// Runs `n` identical subscribers; returns per-query (points, sectors)
/// digests and the runtime stats.
fn run_swarm(share: bool, n: usize) -> (Vec<(u64, u64)>, IngestStats) {
    let requests: Vec<ClientRequest> = (0..n)
        .map(|_| ClientRequest {
            query: QUERY.to_string(),
            format: OutputFormat::Stats,
            sectors: 0,
        })
        .collect();
    let config = RuntimeConfig {
        share_plans: share,
        fanout: FanoutPolicy::Blocking,
        metrics: Some(Arc::new(ServerMetrics::new())),
        ..RuntimeConfig::default()
    };
    let (results, stats) =
        run_supervised(&scanner(), SECTORS, &requests, &config).expect("swarm run");
    let digests = results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("query result");
            let report = r.report.as_ref().expect("run report");
            (r.points, report.sectors)
        })
        .collect();
    (digests, stats)
}

pub fn run() {
    let (shared, shared_stats) = run_swarm(true, SHARED_SUBS);
    let (oracle, _) = run_swarm(false, ORACLE_SUBS);

    // Sharing must not change per-subscriber results: every shared
    // subscriber's delivery counts equal the unshared oracle's.
    let identical = !oracle.is_empty()
        && oracle.iter().all(|d| *d == oracle[0])
        && shared.iter().all(|d| *d == oracle[0]);
    let (points, sectors) = oracle.first().copied().unwrap_or((0, 0));

    println!(
        "{{\"bench\":\"swarm\",\"subscribers\":{},\"distinct_plans\":{},\
         \"points_per_subscriber\":{},\"sectors_per_subscriber\":{},\
         \"chunks_multicast\":{},\"payload_copies\":{},\"identical\":{}}}",
        SHARED_SUBS,
        shared_stats.shared_plans,
        points,
        sectors,
        shared_stats.shared_chunks_multicast,
        shared_stats.payload_copies,
        identical
    );
}
