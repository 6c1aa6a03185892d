//! Seeded chaos acceptance suite: the supervised DSMS runtime over a
//! deliberately degraded GOES-like downlink.
//!
//! The scenarios of ISSUE 3: ≥5% dropped rows plus duplicates and
//! disorder must leave every registered query *completing* (within its
//! watchdog deadline, with partial frames and honest completeness
//! ratios) instead of blocking forever; an injected ingest crash must
//! surface as a supervised restart; and everything must be
//! byte-identical across two runs with the same seed.

use geostreams::dsms::protocol::{ClientRequest, OutputFormat};
use geostreams::dsms::{run_supervised, FanoutPolicy, RuntimeConfig, ServerMetrics};
use geostreams::satsim::{goes_like, FaultPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn req(q: &str, format: OutputFormat) -> ClientRequest {
    ClientRequest { query: q.to_string(), format, sectors: 0 }
}

/// The canonical degraded downlink of the acceptance criteria: ≥5%
/// dropped rows, duplicated elements, out-of-order elements, plus a
/// sprinkle of dropped points and lost end markers.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_dropped_rows(0.08)
        .with_dropped_points(0.03)
        .with_dropped_end_markers(0.05)
        .with_duplicates(0.05)
        .with_reordering(0.05)
}

#[test]
fn degraded_downlink_completes_with_partial_frames() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        fault_plan: Some(chaos_plan(1234)),
        watchdog: Some(Duration::from_secs(30)),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("stretch(goes-sim.b4-ir, \"linear\")", OutputFormat::Stats),
        req("goes-sim.b1-vis", OutputFormat::PngGray),
    ];
    let started = Instant::now();
    let (results, stats) = run_supervised(&scanner, 4, &requests, &config).unwrap();
    let elapsed = started.elapsed();

    // Every query completed, well inside the watchdog deadline and
    // without being cancelled.
    assert_eq!(results.len(), 3);
    assert!(elapsed < Duration::from_secs(30), "queries must not run into the watchdog");
    assert_eq!(stats.watchdog_cancellations, 0);
    for r in &results {
        let r = r.as_ref().unwrap();
        assert!(!r.cancelled);
        // Even over a damaged downlink, the repaired streams the
        // operators actually saw obeyed the §12 bracketing protocol:
        // the debug-build runtime validator observed zero violations.
        if let Some(report) = &r.report {
            assert_eq!(report.protocol_violations, 0, "query {} violated the protocol", r.id);
        }
        // The repair stage quantified the damage instead of hiding it.
        let repair = &r.repair[0];
        assert!(repair.stats.completeness() < 1.0, "8% row drops must show");
        assert!(repair.stats.completeness() > 0.5, "most data still arrives");
        assert!(repair.stats.gaps > 0);
        // Completeness ratios are internally consistent: per-sector
        // received sums to the stream total, and each ratio is sane.
        let sum: u64 = repair.sectors.iter().map(|s| s.received_points).sum();
        assert_eq!(sum, repair.stats.received_points);
        for s in &repair.sectors {
            assert!(s.received_points <= s.expected_points);
            assert!(s.ratio() > 0.0 && s.ratio() <= 1.0);
        }
        assert_eq!(repair.sectors.len(), 4, "all announced sectors accounted for");
    }
    // The frame-scoped stretch (query 1) terminated over lost rows and
    // markers — the exact failure mode that used to block forever.
    let stretched = results[1].as_ref().unwrap();
    assert!(stretched.report.as_ref().unwrap().points_delivered > 0);
    // PNG delivery produced one (partial) image per surviving sector.
    let png = results[2].as_ref().unwrap();
    assert!(!png.frames.is_empty());
    // Recovery metrics surfaced through the PR 1 registry.
    assert!(metrics.gaps_detected.get() > 0);
    assert!(metrics.partial_frames.get() > 0);
    assert!(metrics.duplicates_dropped.get() > 0);
    let rendered = metrics.render_prometheus();
    assert!(rendered.contains("geostreams_gaps_detected_total"));
    // The protocol-violation counter is exposed and stayed at zero.
    assert!(rendered.contains("geostreams_protocol_violation_total"));
    assert_eq!(metrics.protocol_violations.get(), 0);
    assert!(rendered.contains("geostreams_partial_frames_total"));

    // No thread leaks: everything the runtime spawned was joined. The
    // runtime keeps its own ledger — the process-wide thread count
    // moves with whatever sibling tests are running.
    assert!(stats.threads_spawned > 0);
    assert_eq!(stats.threads_joined, stats.threads_spawned, "thread leak");
}

#[test]
fn same_seed_is_byte_identical() {
    let run = || {
        let scanner = goes_like(64, 32, 11);
        let config = RuntimeConfig {
            fault_plan: Some(chaos_plan(77)),
            // Generous so timing-dependent shedding can never differ.
            channel_cap: 1 << 16,
            watchdog: Some(Duration::from_secs(60)),
            ..RuntimeConfig::default()
        };
        let requests = vec![
            req("goes-sim.b1-vis", OutputFormat::PngGray),
            req("goes-sim.b4-ir", OutputFormat::Stats),
        ];
        run_supervised(&scanner, 3, &requests, &config).unwrap()
    };
    let (a, astats) = run();
    let (b, bstats) = run();

    // Frame payloads byte-for-byte.
    let fa = &a[0].as_ref().unwrap().frames;
    let fb = &b[0].as_ref().unwrap().frames;
    assert_eq!(fa.len(), fb.len());
    assert!(!fa.is_empty());
    for (x, y) in fa.iter().zip(fb.iter()) {
        assert_eq!(x.png, y.png);
    }
    // Stats, repair outcomes and fault injections identical.
    for (ra, rb) in a.iter().zip(&b) {
        let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
        assert_eq!(ra.points, rb.points);
        assert_eq!(ra.repair.len(), rb.repair.len());
        for (xa, xb) in ra.repair.iter().zip(&rb.repair) {
            assert_eq!(xa.stats, xb.stats);
            assert_eq!(xa.sectors, xb.sectors);
        }
    }
    assert_eq!(astats.elements_per_band, bstats.elements_per_band);
    assert_eq!(astats.faults_per_band, bstats.faults_per_band);
}

#[test]
fn ingest_crash_restarts_and_feed_resumes() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        // Crash the decoder partway through sector 1 of 4; keep a mild
        // degradation active so the restarted feed is still chaotic.
        fault_plan: Some(chaos_plan(5).with_death_after(500)),
        backoff_base: Duration::from_millis(1),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let (results, stats) =
        run_supervised(&scanner, 4, &[req("goes-sim.b1-vis", OutputFormat::Stats)], &config)
            .unwrap();
    assert!(stats.restarts >= 1, "{stats:?}");
    assert_eq!(metrics.ingest_restarts.get(), stats.restarts);
    assert!(stats.faults_per_band.iter().any(|(_, f)| f.died));
    // The query saw sectors from both sides of the crash.
    let r = results[0].as_ref().unwrap();
    // Reordering and lost markers around the restart never put a point
    // into a frame it does not belong to: the repaired stream the query
    // saw obeyed the whole grammar (checked in debug builds).
    assert_eq!(r.report.as_ref().unwrap().protocol_violations, 0);
    assert_eq!(metrics.protocol_violations.get(), 0);
    let repair = &r.repair[0];
    assert!(repair.sectors.len() >= 2, "{:?}", repair.sectors);
    let max_sector = repair.sectors.iter().map(|s| s.sector_id).max().unwrap();
    assert!(max_sector >= 2, "feed did not resume past the crash: {:?}", repair.sectors);
}

#[test]
fn hung_query_is_cancelled_without_stalling_siblings() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        fanout: FanoutPolicy::Shed,
        watchdog: Some(Duration::from_millis(400)),
        // Query 1 stalls 30s per element: hopelessly wedged.
        query_stall: vec![(1, Duration::from_secs(30))],
        marker_patience: Duration::from_millis(100),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("goes-sim.b4-ir", OutputFormat::Stats),
    ];
    let started = Instant::now();
    let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();
    assert!(started.elapsed() < Duration::from_secs(20), "cancellation must not hang");
    let healthy = results[0].as_ref().unwrap();
    let wedged = results[1].as_ref().unwrap();
    assert!(!healthy.cancelled);
    assert_eq!(healthy.report.as_ref().unwrap().points_delivered, 2 * 16 * 8);
    assert!(wedged.cancelled);
    assert_eq!(stats.watchdog_cancellations, 1);
    assert_eq!(metrics.watchdog_cancellations.get(), 1);
}
