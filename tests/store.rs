//! Acceptance suite for the tiled raster archive (ISSUE 4): a seeded
//! GOES-like run is persisted, then continuous queries whose temporal
//! restriction starts in the past are served by replaying the archive
//! and splicing into the live downlink at a recorded watermark — no
//! gap, no duplicate frame, honest completeness accounting throughout.

mod common;

use common::tmp_dir;
use geostreams::core::model::{
    Element, GeoStream, RepairProbe, StreamRepair, DEFAULT_CHUNK_BUDGET,
};
use geostreams::core::CoreError;
use geostreams::dsms::protocol::{ClientRequest, OutputFormat};
use geostreams::dsms::{run_supervised, RuntimeConfig, ServerMetrics};
use geostreams::satsim::{goes_like, ChaosStream, FaultPlan, Scanner};
use geostreams::store::{Archive, ArchiveConfig, SpliceStream};
use std::path::PathBuf;
use std::sync::Arc;

/// Index of `goes-sim.b4-ir` in the GOES-like instrument (reduction 4:
/// a 64x32 full-res field yields 16x8 sectors of 8 one-row frames).
const B4: usize = 3;

fn req(q: &str, format: OutputFormat) -> ClientRequest {
    ClientRequest { query: q.to_string(), format, sectors: 0 }
}

/// Persists sectors `[0, n_sectors)` of one band, as the live ingest
/// path would have, and returns the archive plus the band id.
fn seed_archive(
    dir: &PathBuf,
    scanner: &Scanner,
    band_idx: usize,
    n_sectors: u64,
) -> (Archive, u16) {
    let archive = Archive::create(ArchiveConfig::new(dir)).unwrap();
    let mut stream = scanner.band_stream(band_idx, n_sectors);
    let band = stream.schema().band;
    archive.bind_band(stream.schema()).unwrap();
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        archive.ingest_chunk(band, &item).unwrap();
    }
    archive.flush().unwrap();
    (archive, band)
}

/// The ISSUE acceptance test: a query whose interval starts before
/// "now" replays sectors [0,3) from the archive, then hands off to the
/// live downlink (sectors [3,5)) exactly once — every sector complete,
/// no duplicate frames, no gaps at the seam.
#[test]
fn hybrid_query_backfills_then_goes_live_without_gap() {
    let scanner = goes_like(64, 32, 11);
    let dir = tmp_dir("hybrid");
    let (archive, band) = seed_archive(&dir, &scanner, B4, 3);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        archive: Some(Arc::new(archive)),
        start_sector: 3,
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![req("restrict_time(goes-sim.b4-ir, interval(0, 5))", OutputFormat::Stats)];
    let (results, _stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();

    let r = results[0].as_ref().unwrap();
    assert!(!r.cancelled);
    // 5 sectors x (16x8) points: 3 archived + 2 live, nothing missing.
    assert_eq!(r.report.as_ref().unwrap().points_delivered, 5 * 16 * 8);
    let repair = &r.repair[0];
    assert_eq!(repair.stats.completeness(), 1.0, "{:?}", repair.stats);
    assert_eq!(repair.stats.duplicate_frames, 0);
    assert_eq!(repair.stats.gaps, 0);
    // Every sector [0,5) accounted for, each fully received — the
    // splice seam between sector 2 (archived) and 3 (live) is seamless.
    let mut ids: Vec<u64> = repair.sectors.iter().map(|s| s.sector_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    for s in &repair.sectors {
        assert_eq!(s.received_points, s.expected_points, "sector {}", s.sector_id);
    }
    // The live tail was persisted too: the archive now covers [0,5).
    let archive = config.archive.as_ref().unwrap();
    assert_eq!(archive.watermark(band).map(|(s, _)| s), Some(4));
    assert_eq!(archive.stats().frames, 5 * 8);
    // Store metrics surfaced on the shared registry, including the
    // backfill handoff latency observed by the splice.
    let rendered = metrics.render_prometheus();
    assert!(rendered.contains("geostreams_store_frames_persisted_total"));
    assert!(rendered.contains("geostreams_store_backfill_ns"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A wholly-past interval over archived coverage is served from the
/// archive alone: correct points, full completeness, and no live
/// ingest threads at all.
#[test]
fn wholly_past_query_is_served_from_archive_alone() {
    let scanner = goes_like(64, 32, 11);
    let dir = tmp_dir("past");
    let (archive, _band) = seed_archive(&dir, &scanner, B4, 3);
    let config = RuntimeConfig {
        archive: Some(Arc::new(archive)),
        start_sector: 3,
        ..RuntimeConfig::default()
    };
    let requests = vec![req("restrict_time(goes-sim.b4-ir, interval(1, 3))", OutputFormat::Stats)];
    let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();

    let r = results[0].as_ref().unwrap();
    assert!(!r.cancelled);
    assert_eq!(r.report.as_ref().unwrap().points_delivered, 2 * 16 * 8);
    let repair = &r.repair[0];
    assert_eq!(repair.stats.completeness(), 1.0, "{:?}", repair.stats);
    assert_eq!(repair.stats.duplicate_frames, 0);
    // No band needed a live subscription, so nothing was ingested.
    assert!(stats.elements_per_band.is_empty(), "{:?}", stats.elements_per_band);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the silent-empty-result bug: without an archive, a
/// query whose interval lies wholly in the past used to register and
/// deliver nothing. It must now be rejected at admission with a
/// diagnostic, while sibling queries keep running.
#[test]
fn wholly_past_query_without_archive_is_rejected() {
    let scanner = goes_like(64, 32, 11);
    let config = RuntimeConfig { start_sector: 3, ..RuntimeConfig::default() };
    let requests = vec![
        req("restrict_time(goes-sim.b4-ir, interval(0, 3))", OutputFormat::Stats),
        req("goes-sim.b4-ir", OutputFormat::Stats),
    ];
    let (results, _stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();

    match &results[0] {
        Err(CoreError::PlanRejected(msg)) => {
            assert!(msg.contains("past-interval-unservable"), "{msg}");
        }
        other => panic!("expected PlanRejected, got {other:?}"),
    }
    // The live sibling was unaffected by the rejection.
    let live = results[1].as_ref().unwrap();
    assert_eq!(live.report.as_ref().unwrap().points_delivered, 2 * 16 * 8);
}

/// Satellite (c): the splice seam under a degraded live downlink.
/// Duplicated elements and dropped rows right after the watermark must
/// not produce duplicate frame ids downstream of repair, and the
/// repair stats must stay honest (completeness < 1 reflects the real
/// damage; the archived prefix stays complete).
#[test]
fn splice_seam_survives_chaos_duplicates_and_drops() {
    let scanner = goes_like(64, 32, 11);
    let dir = tmp_dir("seam");
    let (archive, band) = seed_archive(&dir, &scanner, B4, 2);

    let replay = archive.replay(band, Some(0), Some(2), None).unwrap();
    let watermark = archive.watermark(band).map(|(s, _)| s);
    assert_eq!(watermark, Some(1));
    let plan = FaultPlan::seeded(9).with_duplicates(0.25).with_dropped_rows(0.30);
    let live = ChaosStream::new(scanner.band_stream_from(B4, 2, 2), plan, 0);
    let splice = SpliceStream::new(replay, Box::new(live), watermark, None);
    let probe = Arc::new(RepairProbe::default());
    let mut repaired = StreamRepair::with_probe(splice, Arc::clone(&probe));

    let mut frame_ids = Vec::new();
    while let Some(el) = repaired.next_element() {
        if let Element::FrameStart(info) = el {
            frame_ids.push(info.frame_id);
        }
    }
    // No duplicate frame ids past the repair stage, despite injected
    // duplicates at and after the seam.
    let mut unique = frame_ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), frame_ids.len(), "duplicate frames leaked: {frame_ids:?}");
    // The archived prefix (sectors 0-1 = frames 0..16) is complete.
    for id in 0..16 {
        assert!(frame_ids.contains(&id), "archived frame {id} missing");
    }
    // All ids belong to the 4-sector run.
    assert!(frame_ids.iter().all(|&id| id < 32), "{frame_ids:?}");
    // Honest accounting: the chaos showed up in the stats instead of
    // being papered over.
    let stats = probe.stats();
    assert!(
        stats.duplicate_frames + stats.duplicate_points > 0,
        "injected duplicates must be counted: {stats:?}"
    );
    let completeness = stats.completeness();
    assert!(completeness < 1.0, "30% dropped live rows must show: {stats:?}");
    assert!(completeness > 0.5, "archive half is intact: {stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The server surface: an attached archive answers `GET /archive`
/// with its stats as JSON, `/metrics` carries the
/// `geostreams_store_*` series, and `explain` reports that a
/// past-starting query will be served by archive replay.
#[test]
fn archive_endpoint_and_explain_see_the_attachment() {
    use geostreams::dsms::Dsms;

    let scanner = goes_like(64, 32, 11);
    let dir = tmp_dir("http");
    let (archive, _band) = seed_archive(&dir, &scanner, B4, 3);

    let server = Dsms::over_scanner(&scanner, 2);
    let before = server.handle_http("GET /archive HTTP/1.1");
    assert!(String::from_utf8_lossy(&before).starts_with("HTTP/1.1 404"));
    // A live plan whose window starts in the past, admitted before the
    // archive is attached: nothing classifies its past part yet.
    let reaching_back = "restrict_time(goes-sim.b4-ir, interval(2, 10))";
    let live = server.register(&req(reaching_back, OutputFormat::Stats)).unwrap();
    assert!(live.optimized.report().diagnostics.iter().all(|d| d.code != "replay-hybrid"));

    server.attach_archive(Arc::new(archive), 3);
    let resp = String::from_utf8_lossy(&server.handle_http("GET /archive HTTP/1.1")).into_owned();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"segments\""), "{resp}");
    assert!(resp.contains("\"frames\":24"), "{resp}");

    let metrics =
        String::from_utf8_lossy(&server.handle_http("GET /metrics HTTP/1.1")).into_owned();
    assert!(metrics.contains("geostreams_store_frames_persisted_total"), "{metrics}");

    // The analyzer sees the attached coverage: a wholly-past window is
    // admitted (replay-from-archive) instead of rejected.
    let exp = server
        .explain(&req("restrict_time(goes-sim.b4-ir, interval(0, 3))", OutputFormat::Stats))
        .unwrap();
    let report = format!("{exp:?}");
    assert!(report.contains("replay-from-archive"), "{report}");
    // The same plan, still live, is explained in the new context: the
    // archive backfills sector 2 and the live feed takes over at 3.
    let exp = server.explain(&req(reaching_back, OutputFormat::Stats)).unwrap();
    assert!(exp.cache_hit && exp.shared_with == 1, "{exp:?}");
    assert!(exp.report.diagnostics.iter().any(|d| d.code == "replay-hybrid"), "{exp:?}");
    assert!(exp.report.per_op[0].replay.is_some_and(|r| r.frames > 0), "{exp:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
