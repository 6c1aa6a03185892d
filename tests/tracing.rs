//! Causal tracing + freshness acceptance (ISSUE 6): per-query flight
//! recorders capture a complete, parent-linked span tree from scan to
//! delivery (splice/backfill included for hybrid queries), event-time
//! freshness reacts to injected stalls, the `/queries` and
//! `/trace/<id>` surfaces round-trip as JSON, and failure edges
//! (watchdog cancellation) leave recorder entries and frozen dumps.

mod common;

use common::tmp_dir;
use geostreams::core::obs::{RecorderSnapshot, Span, SpanOutcome};
use geostreams::dsms::protocol::{ClientRequest, OutputFormat};
use geostreams::dsms::{run_supervised, Dsms, QueryStatus, RuntimeConfig, ServerMetrics};
use geostreams::satsim::{goes_like, FaultPlan, Scanner};
use geostreams::store::{Archive, ArchiveConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Index of `goes-sim.b4-ir` in the GOES-like instrument.
const B4: usize = 3;

fn req(q: &str, format: OutputFormat) -> ClientRequest {
    ClientRequest { query: q.to_string(), format, sectors: 0 }
}

/// Persists sectors `[0, n_sectors)` of one band, as the live ingest
/// path would have.
fn seed_archive(dir: &PathBuf, scanner: &Scanner, band_idx: usize, n_sectors: u64) -> Archive {
    use geostreams::core::model::{GeoStream, DEFAULT_CHUNK_BUDGET};
    let archive = Archive::create(ArchiveConfig::new(dir)).unwrap();
    let mut stream = scanner.band_stream(band_idx, n_sectors);
    let band = stream.schema().band;
    archive.bind_band(stream.schema()).unwrap();
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        archive.ingest_chunk(band, &item).unwrap();
    }
    archive.flush().unwrap();
    archive
}

/// Asserts the span set forms a forest: ids unique, every non-zero
/// parent resolves to a recorded span, and walking parents from any
/// span terminates at a root without revisiting (acyclic).
fn assert_parent_linked(spans: &[Span]) {
    let mut ids = HashSet::new();
    for s in spans {
        assert!(ids.insert(s.span_id), "duplicate span id {}", s.span_id);
    }
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();
    for s in spans {
        let mut seen = HashSet::new();
        let mut cur = s;
        while cur.parent != 0 {
            assert!(seen.insert(cur.span_id), "cycle through span {} ({})", cur.span_id, cur.stage);
            cur = by_id.get(&cur.parent).unwrap_or_else(|| {
                panic!("span {} ({}) has unrecorded parent {}", s.span_id, s.stage, s.parent)
            });
        }
    }
}

/// Span ids on the path from `start` to its root, inclusive.
fn path_to_root(spans: &[Span], start: &Span) -> Vec<u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut path = vec![start.span_id];
    let mut cur = start;
    while cur.parent != 0 {
        cur = by_id[&cur.parent];
        path.push(cur.span_id);
        assert!(path.len() <= spans.len(), "parent walk did not terminate");
    }
    path
}

fn find_span<'a>(spans: &'a [Span], prefix: &str) -> &'a Span {
    spans.iter().find(|s| s.stage.starts_with(prefix)).unwrap_or_else(|| {
        let stages: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
        panic!("no span with stage prefix {prefix:?}; have {stages:?}")
    })
}

fn body_of(resp: &[u8]) -> String {
    let text = String::from_utf8_lossy(resp).to_string();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    let start = text.find("\r\n\r\n").unwrap() + 4;
    text[start..].to_string()
}

/// A stacked pipeline under a chaotic downlink still produces a
/// complete, acyclic span tree rooted at the delivery span, and the
/// scan span links back to the ingest pump's trace — with the operator
/// suffix inline and fanned out to one or two morsel workers alike.
#[test]
fn chaotic_pipeline_span_tree_is_complete_and_acyclic() {
    for exec_workers in [0, 1, 2] {
        chaotic_pipeline_span_tree(exec_workers);
    }
}

fn chaotic_pipeline_span_tree(exec_workers: usize) {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        exec_workers,
        fault_plan: Some(
            FaultPlan::seeded(42)
                .with_dropped_rows(0.08)
                .with_dropped_points(0.03)
                .with_dropped_end_markers(0.05)
                .with_duplicates(0.05),
        ),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("focal(scale(goes-sim.b4-ir, 2, 0), \"mean\", 3)", OutputFormat::Stats),
        req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
    ];
    let (results, _) = run_supervised(&scanner, 3, &requests, &config).unwrap();
    assert!(results.iter().all(|r| r.is_ok()));

    let rec = metrics.try_recorder(0).expect("query 0 has a recorder");
    let snap = rec.to_snapshot();
    assert!(snap.spans.len() >= 5, "expected a stacked span tree, got {:?}", snap.spans);
    assert_parent_linked(&snap.spans);
    // Exactly one root: the delivery span; all spans closed Ok.
    let roots: Vec<&Span> = snap.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "{roots:?}");
    assert_eq!(roots[0].stage, "deliver");
    assert!(snap.spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
    assert!(snap.spans.iter().all(|s| s.outcome == SpanOutcome::Ok));

    // Factory stages are present and chain scan -> repair -> ... ->
    // deliver.
    let scan = find_span(&snap.spans, "scan:goes-sim.b4-ir");
    let repair = find_span(&snap.spans, "repair:goes-sim.b4-ir");
    let path = path_to_root(&snap.spans, scan);
    assert!(path.contains(&repair.span_id), "scan does not chain through repair: {path:?}");
    assert_eq!(*path.last().unwrap(), roots[0].span_id);
    // Points flowed through the scan span.
    assert!(scan.points > 0);

    // Cross-trace link: chunk-carried contexts survive only on the
    // chunk-native pull path (element-wise operators like `focal`
    // flatten chunks), so the link is asserted on the sibling
    // chunk-native query.
    let chunked = metrics.try_recorder(1).expect("query 1 has a recorder").to_snapshot();
    assert_parent_linked(&chunked.spans);
    let chunked_scan = find_span(&chunked.spans, "scan:goes-sim.b4-ir");
    let ingest = metrics.try_recorder(u32::MAX).expect("ingest recorder exists");
    let link = chunked_scan.link.expect("scan span links the pump context");
    assert_eq!(link.trace_id, ingest.trace_id());
    assert_ne!(link.trace_id, chunked.trace_id);
    let ingest_snap = ingest.to_snapshot();
    find_span(&ingest_snap.spans, "pump:goes-sim.b4-ir#0");
    find_span(&ingest_snap.spans, "chaos:goes-sim.b4-ir#0");
    find_span(&ingest_snap.spans, "scan:goes-sim.b4-ir#0");
}

/// End-to-end synthesis→delivery lag is monotone with respect to an
/// injected per-element stall: the stalled query's p50 lag dominates
/// its healthy sibling's on the same band.
#[test]
fn e2e_lag_is_monotone_in_injected_stall() {
    let scanner = goes_like(32, 16, 5);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        query_stall: vec![(1, Duration::from_millis(10))],
        channel_cap: 1 << 16,
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
    ];
    let (results, _) = run_supervised(&scanner, 2, &requests, &config).unwrap();
    assert!(results.iter().all(|r| r.is_ok()));

    let statuses = metrics.query_statuses();
    assert_eq!(statuses.len(), 2);
    let healthy = &statuses[0];
    let stalled = &statuses[1];
    assert!(healthy.frames_delivered > 0 && stalled.frames_delivered > 0);
    assert!(healthy.e2e_lag_p50_ns > 0, "{healthy:?}");
    assert!(
        stalled.e2e_lag_p50_ns > healthy.e2e_lag_p50_ns,
        "stalled lag {} must dominate healthy lag {}",
        stalled.e2e_lag_p50_ns,
        healthy.e2e_lag_p50_ns
    );
    // Both advanced their event-time watermark to the last sector.
    assert_eq!(healthy.watermark, 1);
    assert_eq!(stalled.watermark, 1);
}

/// The ISSUE acceptance path: a hybrid query under fault injection,
/// its trace served over HTTP — `GET /queries` and `GET /trace/<id>`
/// round-trip as JSON, and the span tree includes the backfill and
/// splice stages parent-linked from scan to delivery.
#[test]
fn http_surfaces_serve_hybrid_trace_with_splice_and_backfill() {
    let scanner = goes_like(64, 32, 11);
    let dir = tmp_dir("http");
    let archive = seed_archive(&dir, &scanner, B4, 3);
    let dsms = Arc::new(Dsms::over_scanner(&scanner, 2));
    let config = RuntimeConfig {
        archive: Some(Arc::new(archive)),
        start_sector: 3,
        fault_plan: Some(FaultPlan::seeded(5).with_dropped_rows(0.05).with_duplicates(0.05)),
        metrics: Some(Arc::clone(&dsms.metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![req("restrict_time(goes-sim.b4-ir, interval(0, 5))", OutputFormat::Stats)];
    let (results, _) = run_supervised(&scanner, 2, &requests, &config).unwrap();
    assert!(results[0].is_ok());

    // Live directory over HTTP.
    let body = body_of(&dsms.handle_http("GET /queries HTTP/1.1"));
    let statuses: Vec<QueryStatus> = serde_json::from_str(&body).unwrap();
    let q = statuses.iter().find(|q| q.id == 0).expect("query 0 listed");
    assert_eq!(q.state, "done");
    assert_eq!(q.query, "restrict_time(goes-sim.b4-ir, interval(0, 5))");
    assert!(q.frames_delivered > 0);
    assert_eq!(q.watermark, 4, "watermark is the last delivered sector timestamp");
    assert!(q.completeness > 0.0 && q.completeness <= 1.0);
    assert!(q.points_delivered > 0);

    // Flight-recorder dump over HTTP.
    let body = body_of(&dsms.handle_http("GET /trace/0 HTTP/1.1"));
    let snap: RecorderSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.query_id, 0);
    assert_eq!(snap.trace_id, q.trace_id);
    assert_eq!(snap.dropped, 0, "span ring must not have evicted");
    assert_parent_linked(&snap.spans);

    let scan = find_span(&snap.spans, "scan:goes-sim.b4-ir");
    let splice = find_span(&snap.spans, "splice:goes-sim.b4-ir");
    let repair = find_span(&snap.spans, "repair:goes-sim.b4-ir");
    let backfill = find_span(&snap.spans, "backfill:goes-sim.b4-ir");
    let deliver = find_span(&snap.spans, "deliver");
    assert_eq!(deliver.parent, 0);
    // backfill hangs off the splice stage; scan chains through splice
    // and repair up to the delivery root.
    assert_eq!(backfill.parent, splice.span_id);
    let path = path_to_root(&snap.spans, scan);
    assert!(path.contains(&splice.span_id), "{path:?}");
    assert!(path.contains(&repair.span_id), "{path:?}");
    assert_eq!(*path.last().unwrap(), deliver.span_id);
    // Both the replayed (backfill) and live (scan) phases moved points.
    assert!(splice.points > 0);
    assert!(scan.points > 0);

    // Unknown query ids are a clean 404.
    let resp = dsms.handle_http("GET /trace/999 HTTP/1.1");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
}

/// Watchdog cancellation is observable end to end: the cancelled
/// query's recorder holds a `watchdog` span and a frozen dump, its
/// directory state is `cancelled`, and the `/metrics` exposition
/// carries the trace-drop counter with HELP/TYPE metadata.
#[test]
fn watchdog_cancellation_freezes_the_flight_recorder() {
    let scanner = goes_like(32, 16, 5);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        watchdog: Some(Duration::from_millis(300)),
        query_stall: vec![(1, Duration::from_secs(10))],
        marker_patience: Duration::from_millis(50),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
    ];
    let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();
    assert!(results[1].as_ref().unwrap().cancelled);
    assert_eq!(stats.watchdog_cancellations, 1);

    let statuses = metrics.query_statuses();
    assert_eq!(statuses[0].state, "done");
    assert_eq!(statuses[1].state, "cancelled");

    let rec = metrics.try_recorder(1).expect("cancelled query has a recorder");
    let snap = rec.to_snapshot();
    let wd = find_span(&snap.spans, "watchdog");
    assert_eq!(wd.outcome, SpanOutcome::Cancelled);
    assert!(!snap.dumps.is_empty(), "cancellation must freeze a dump");
    assert_eq!(snap.dumps[0].reason, "watchdog");

    // Overfill the cancelled query's span ring by three, so the drop
    // counter provably syncs from the flight recorders at scrape time.
    for _ in 0..rec.capacity() + 3 {
        rec.begin("filler", 0).finish(SpanOutcome::Ok);
    }
    let evicted: u64 =
        [0, 1, u32::MAX].iter().filter_map(|&q| metrics.try_recorder(q)).map(|r| r.dropped()).sum();
    assert!(evicted >= 3, "{evicted}");

    let prom = metrics.render_prometheus();
    assert!(prom.contains("geostreams_watchdog_cancellations_total 1"), "{prom}");
    assert!(prom.contains("# TYPE geostreams_trace_dropped_total counter"), "{prom}");
    assert!(prom.contains("# HELP geostreams_trace_dropped_total"), "{prom}");
    let dropped: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("geostreams_trace_dropped_total "))
        .expect("trace_dropped series rendered")
        .trim()
        .parse()
        .unwrap();
    assert_eq!(dropped, evicted, "the counter is the recorders' evictions:\n{prom}");
    assert!(prom.contains("# TYPE geostreams_e2e_lag_ns histogram"), "{prom}");
}
