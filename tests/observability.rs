//! Observability integration: operator tracing through the DSMS, the
//! Prometheus `/metrics` endpoint, and the `/healthz` probe.
//!
//! The unified observability layer claims that (1) every operator in a
//! planned query pipeline reports real pull-latency percentiles, (2)
//! the query's run is a closed `deliver` span in what `GET /trace/<id>`
//! serves, and (3) the TCP front end exposes the whole registry as parseable Prometheus text
//! exposition with self-consistent histogram bucket counts.

use geostreams::core::obs::RecorderSnapshot;
use geostreams::dsms::{Dsms, HttpServer, OutputFormat};
use geostreams::satsim::goes_like;
use geostreams::store::StoreMetrics;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn traced_query_reports_per_op_latency_percentiles() {
    let server = Dsms::over_scanner(&goes_like(64, 32, 7), 2);
    let h = server
        .register_text(
            "focal(restrict_value(goes-sim.b4-ir, 0.1, 0.95), \"mean\", 3)",
            OutputFormat::Stats,
            2,
        )
        .unwrap();
    let report = server.run_query(&h).unwrap().report.unwrap();

    // The root pull histogram always records.
    assert!(report.pull_latency.count > 0);
    assert!(report.pull_p50_ns() > 0 && report.pull_p95_ns() >= report.pull_p50_ns());

    // Every operator in the traced pipeline carries its own non-zero
    // pull-latency percentiles.
    assert!(!report.per_op.is_empty());
    for op in &report.per_op {
        let hist = op.pull_latency.as_ref().unwrap_or_else(|| panic!("{} untraced", op.name));
        assert!(hist.count > 0, "{} recorded no pulls", op.name);
        assert!(op.pull_p50_ns() > 0, "{} has zero p50", op.name);
        assert!(op.pull_p99_ns() >= op.pull_p95_ns(), "{} percentiles out of order", op.name);
    }

    // Query wall time landed in the server histogram, and the served
    // trace holds the run: a closed root `deliver` span with its points.
    let prom = server.metrics.render_prometheus();
    assert!(prom.contains("geostreams_query_wall_ns_count 1"), "{prom}");
    let resp = server.handle_http(&format!("GET /trace/{} HTTP/1.1", h.id));
    let resp = String::from_utf8_lossy(&resp);
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let snap: RecorderSnapshot = serde_json::from_str(body).unwrap();
    let deliver = snap.spans.iter().find(|s| s.stage == "deliver").expect("deliver span");
    assert_eq!((deliver.query_id, deliver.parent), (h.id, 0));
    assert!(deliver.end_ns >= deliver.start_ns && deliver.end_ns > 0, "span is closed");
    assert_eq!(deliver.points, report.points_delivered);
}

/// Every delivery format runs under the driver's debug-build protocol
/// checker: a source that loses a `FrameEnd` is counted for an image
/// run as it is for a counting one.
#[cfg(debug_assertions)]
#[test]
fn protocol_violations_are_counted_for_image_and_counting_runs() {
    use geostreams::core::model::{Element, GeoStream, VecStream};
    use geostreams::core::query::Catalog;
    use geostreams::geo::{Crs, LatticeGeoref, Rect};

    let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
    let mut clean: VecStream<f32> =
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + r));
    let schema = clean.schema().clone();
    let mut elements = clean.drain_elements();
    let lost = elements.iter().position(|el| matches!(el, Element::FrameEnd(_))).unwrap();
    elements.remove(lost);
    let mut catalog = Catalog::new();
    let replayed = schema.clone();
    catalog.register(schema, move || Box::new(VecStream::new(replayed.clone(), elements.clone())));

    let server = Dsms::over_catalog(catalog);
    for format in [OutputFormat::PngGray, OutputFormat::Stats] {
        let before = server.metrics.protocol_violations.get();
        let h = server.register_text("src", format, 0).unwrap();
        server.run_query(&h).unwrap();
        assert!(server.metrics.protocol_violations.get() > before, "{format:?} went unchecked");
    }
}

fn fetch(addr: std::net::SocketAddr, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut buf = Vec::new();
    conn.read_to_end(&mut buf).expect("read");
    String::from_utf8_lossy(&buf).to_string()
}

/// Minimal Prometheus text-exposition parser: `name{labels} value`
/// lines into a map, keeping the full labeled series name as the key.
fn parse_prometheus(body: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"));
        out.insert(series.to_string(), v);
    }
    out
}

#[test]
fn metrics_endpoint_serves_parseable_prometheus_exposition() {
    let dsms = Arc::new(Dsms::over_scanner(&goes_like(32, 16, 3), 1));
    let http = HttpServer::spawn(Arc::clone(&dsms), "127.0.0.1:0").expect("bind");
    let addr = http.addr();

    // Health probe.
    let health = fetch(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("ok"));

    // Run two queries through the front end so counters and the query
    // wall-time histogram are non-trivial.
    for q in ["goes-sim.b3-wv", "scale(goes-sim.b1-vis,+2,+0)"] {
        let resp = fetch(addr, &format!("/query?q={q}&format=json&sectors=1"));
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    }

    let scrape = fetch(addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(scrape.contains("text/plain; version=0.0.4"), "{scrape}");
    let body = &scrape[scrape.find("\r\n\r\n").unwrap() + 4..];
    assert!(body.contains("# TYPE geostreams_query_wall_ns histogram"));
    assert!(body.contains("# HELP geostreams_queries_registered_total"));

    let series = parse_prometheus(body);
    assert_eq!(series["geostreams_queries_registered_total"], 2.0);
    assert_eq!(series["geostreams_queries_rejected_total"], 0.0);
    assert!(series["geostreams_points_ingested_total"] > 0.0);
    // Request counters increment after each response is written, so at
    // scrape time they lag; exact values are checked after stop() joins.
    assert!(series.contains_key("geostreams_requests_handled_total"));
    assert_eq!(series["geostreams_requests_errored_total"], 0.0);

    // Histogram self-consistency: cumulative buckets are monotone, the
    // +Inf bucket equals _count, and two queries were recorded.
    assert_eq!(series["geostreams_query_wall_ns_count"], 2.0);
    assert!(series["geostreams_query_wall_ns_sum"] > 0.0);
    let mut buckets: Vec<(f64, f64)> = series
        .iter()
        .filter_map(|(k, &v)| {
            let le = k.strip_prefix("geostreams_query_wall_ns_bucket{le=\"")?;
            let le = le.strip_suffix("\"}")?;
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((bound, v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(!buckets.is_empty(), "no le buckets rendered:\n{body}");
    let mut prev = 0.0;
    for &(bound, cumulative) in &buckets {
        assert!(cumulative >= prev, "bucket le={bound} not cumulative");
        prev = cumulative;
    }
    assert_eq!(buckets.last().unwrap().0, f64::INFINITY, "missing +Inf bucket");
    assert_eq!(buckets.last().unwrap().1, 2.0, "+Inf bucket must equal _count");

    // The per-connection latency series is exposed (its count lags the
    // in-flight scrape, so the exact value is only checked post-join).
    assert!(series.contains_key("geostreams_request_ns_count"));

    // stop() joins every connection thread, so afterwards the request
    // histogram deterministically holds all four connections.
    http.stop();
    let settled = parse_prometheus(&dsms.metrics.render_prometheus());
    assert_eq!(settled["geostreams_request_ns_count"], 4.0);
    assert_eq!(settled["geostreams_requests_handled_total"], 4.0);
    assert_eq!(dsms.metrics.requests_errored.get(), 0);
    assert!(dsms.metrics.summary().contains("errored=0"));

    // Exposition hygiene over every family the server can export —
    // the archive's metrics, the per-query freshness series and a
    // per-band staleness gauge included: each `geostreams_*` sample
    // belongs to a family that declares both HELP and TYPE.
    let _store = StoreMetrics::register(dsms.metrics.registry());
    let _rec = dsms.metrics.register_query(0, "goes-sim.b4-ir");
    let _ = dsms
        .metrics
        .registry()
        .gauge("geostreams_band_staleness_ns", &[("band", "goes-sim.b4-ir")]);
    let full = dsms.metrics.render_prometheus();
    assert!(
        full.lines().any(|l| l.starts_with("geostreams_e2e_lag_ns_count{query=\"0\"}")),
        "exposition is missing the per-query freshness series:\n{full}"
    );
    let declared = |kind: &str| -> BTreeSet<&str> {
        full.lines().filter_map(|l| l.strip_prefix(kind)?.split(' ').next()).collect()
    };
    let (help, types) = (declared("# HELP "), declared("# TYPE "));
    for sample in full.lines().filter(|l| l.starts_with("geostreams_")) {
        let mut family = sample.split(['{', ' ']).next().unwrap();
        for suffix in ["_bucket", "_sum", "_count"] {
            family = family.strip_suffix(suffix).unwrap_or(family);
        }
        assert!(help.contains(family), "missing HELP for {family}");
        assert!(types.contains(family), "missing TYPE for {family}");
    }
}
