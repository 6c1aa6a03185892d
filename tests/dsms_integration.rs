//! DSMS-level integration: continuous shared ingest, the TCP front end,
//! JSON stats delivery, and plan explanation — the full §4 surface.

use geostreams::dsms::protocol::ClientRequest;
use geostreams::dsms::{
    run_supervised, Dsms, FanoutPolicy, HttpServer, OutputFormat, RuntimeConfig,
};
use geostreams::satsim::{goes_like, modis_like};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn continuous_mode_matches_per_query_mode() {
    // The same query must produce the same point count whether each
    // query pulls its own source or shares the ingest.
    let scanner = goes_like(48, 24, 5);
    let q = "restrict_value(goes-sim.b4-ir, 0.3, 0.9)";

    let server = Dsms::over_scanner(&scanner, 2);
    let h = server.register_text(q, OutputFormat::Stats, 2).unwrap();
    let solo = server.run_query(&h).unwrap().report.unwrap().points_delivered;

    let (results, _) = run_supervised(
        &scanner,
        2,
        &[ClientRequest { query: q.into(), format: OutputFormat::Stats, sectors: 0 }],
        &RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() },
    )
    .unwrap();
    let shared = results[0].as_ref().unwrap().report.as_ref().unwrap().points_delivered;
    assert_eq!(solo, shared);
    assert!(solo > 0);
}

#[test]
fn json_format_returns_machine_readable_stats() {
    let server = Arc::new(Dsms::over_scanner(&goes_like(32, 16, 9), 1));
    let resp = server.handle_http(
        "GET /query?q=focal(goes-sim.b4-ir,+%22mean%22,+3)&format=json&sectors=1 HTTP/1.1",
    );
    let text = String::from_utf8_lossy(&resp).to_string();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("application/json"));
    let body_start = text.find("\r\n\r\n").unwrap() + 4;
    let summary: geostreams::core::exec::RunSummary =
        serde_json::from_str(&text[body_start..]).unwrap();
    assert_eq!(summary.points_delivered, 8 * 4);
    assert!(summary.per_op.iter().any(|o| o.name.contains("focal")));
    // The focal buffer shows up in the summary.
    assert!(summary.peak_buffered_points > 0);
}

#[test]
fn tcp_front_end_serves_json_and_png() {
    let dsms = Arc::new(Dsms::over_scanner(&goes_like(32, 16, 3), 1));
    let http = HttpServer::spawn(dsms, "127.0.0.1:0").expect("bind");
    let addr = http.addr();
    let fetch = |target: &str| -> Vec<u8> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        conn.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut buf = Vec::new();
        conn.read_to_end(&mut buf).expect("read");
        buf
    };
    let png = fetch("/query?q=goes-sim.b3-wv&format=png&sectors=1");
    assert!(String::from_utf8_lossy(&png[..16]).starts_with("HTTP/1.1 200"));
    let json = fetch("/query?q=goes-sim.b3-wv&format=json&sectors=1");
    assert!(String::from_utf8_lossy(&json).contains("application/json"));
    http.stop();
}

#[test]
fn explain_runs_against_the_live_catalog() {
    let server = Dsms::over_scanner(&goes_like(64, 32, 9), 1);
    let planner = geostreams::core::query::Planner::new(server.catalog());
    let h = server
        .register_text(
            "restrict_space(reproject(ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)),
                 \"utm:14N\"), bbox(300000, 4000000, 700000, 4400000), \"utm:14N\")",
            OutputFormat::Stats,
            1,
        )
        .unwrap();
    let text = planner.explain(&h.optimized);
    assert!(text.contains("reproject  [bounded-rows("), "{text}");
    assert!(text.contains("ndvi  [bounded-rows(1)"), "{text}");
    // The optimized plan pushed restrictions onto the sources: each
    // band's restriction sits under the NDVI node.
    let indent = |l: &str| l.len() - l.trim_start().len();
    let ndvi = text.lines().find(|l| l.contains("ndvi")).map(indent).unwrap();
    let inner_restricts =
        text.lines().filter(|l| l.contains("restrict_space") && indent(l) > ndvi).count();
    assert!(inner_restricts >= 2, "pushed to both bands:\n{text}");
}

#[test]
fn multiple_instruments_can_share_one_server() {
    let mut catalog = geostreams::core::query::Catalog::new();
    for scanner in [goes_like(32, 16, 1), modis_like(32, 16, -100.0, 45.0, 1)] {
        for band_idx in 0..scanner.instrument.bands.len() {
            use geostreams::core::model::GeoStream;
            let template = scanner.band_stream(band_idx, 1);
            let schema = template.schema().clone();
            let scanner = scanner.clone();
            catalog.register(schema, move || Box::new(scanner.band_stream(band_idx, 1)));
        }
    }
    let server = Dsms::over_catalog(catalog);
    assert!(server.catalog().names().iter().any(|n| n.starts_with("goes-sim")));
    assert!(server.catalog().names().iter().any(|n| n.starts_with("modis-sim")));
    // Cross-instrument composition is refused at registration: the
    // static analyzer flags the CRS mismatch before anything runs.
    let err = server.register_text("add(goes-sim.b1-vis, modis-sim.red)", OutputFormat::Stats, 1);
    match err {
        Err(geostreams::core::CoreError::PlanRejected(msg)) => {
            assert!(msg.contains("compose-crs-mismatch"), "{msg}");
        }
        other => panic!("geos vs sinusoidal composition must be rejected, got {other:?}"),
    }
    // Same-instrument queries run.
    let h = server.register_text("modis-sim.red", OutputFormat::PngGray, 1).unwrap();
    assert_eq!(server.run_query(&h).unwrap().frames.len(), 1);
}
