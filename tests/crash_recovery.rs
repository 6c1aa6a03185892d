//! Crash-recovery acceptance suite (crash-safe archive ISSUE): the
//! archive's durability contract under kill-point crashes, recovery
//! idempotence, and read-time corruption detection.
//!
//! The wide seeded sweep (and its run-twice determinism diff) is
//! `geostreams-digest crash` behind `scripts/determinism_gate.sh`; this
//! suite keeps a small always-on version in `cargo test`.

mod common;

use common::tmp_dir;
use geostreams::core::model::{Element, GeoStream};
use geostreams::core::obs::Registry;
use geostreams::satsim::goes_like;
use geostreams::store::segment::{scan_segment, segment_path, Record};
use geostreams::store::{Archive, ArchiveConfig, ChaosVfs, DiskFaultPlan, StdVfs, StoreMetrics};
use std::path::Path;
use std::sync::Arc;

const SECTORS: u64 = 2;
const GROUP: u32 = 4;

fn config(dir: &Path) -> ArchiveConfig {
    let mut cfg = ArchiveConfig::new(dir);
    cfg.tile_width = 48;
    cfg.max_segment_bytes = 16 * 1024;
    cfg.group_commit_frames = GROUP;
    cfg
}

fn scanner() -> geostreams::satsim::Scanner {
    goes_like(96, 24, 3)
}

fn fnv1a_u32(v: u32, mut hash: u64) -> u64 {
    for b in v.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Feeds band 0 until the disk dies (or the run completes); returns
/// how many frames the archive accepted.
fn ingest_until_death(archive: &Archive) -> u64 {
    let scanner = scanner();
    let mut stream = scanner.band_stream(0, SECTORS);
    let band = stream.schema().band;
    if archive.bind_band(stream.schema()).is_err() {
        return 0;
    }
    let mut frames_ok = 0u64;
    while let Some(el) = stream.next_element() {
        let is_frame_end = matches!(el, Element::FrameEnd(_));
        match archive.ingest(band, &el) {
            Ok(()) => frames_ok += u64::from(is_frame_end),
            Err(_) => return frames_ok,
        }
    }
    let _ = archive.flush();
    frames_ok
}

/// Full replay of band 0: `(frames, prefix digests, failed)` where
/// `digests[k]` covers every point value of the first `k` frames.
fn replay_digests(archive: &Archive) -> (u64, Vec<u64>, bool) {
    let band = scanner().band_stream(0, 1).schema().band;
    let mut digests = vec![0xcbf2_9ce4_8422_2325u64];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut frames = 0u64;
    let Ok(mut replay) = archive.replay(band, None, None, None) else {
        return (0, digests, false);
    };
    while let Some(el) = replay.next_element() {
        match el {
            Element::Point(p) => hash = fnv1a_u32(p.value.to_bits(), hash),
            Element::FrameEnd(_) => {
                frames += 1;
                digests.push(hash);
            }
            _ => {}
        }
    }
    (frames, digests, replay.failed())
}

/// Kill the disk at five spread byte offsets: every reopen must keep
/// all group-committed frames (loss bounded by one group), replay a
/// byte-identical prefix of the clean run, and never serve a corrupt
/// tile.
#[test]
fn kill_point_sweep_bounds_loss_to_one_group() {
    // Clean reference run: total byte budget + prefix digests.
    let clean_dir = tmp_dir("clean");
    let chaos = ChaosVfs::new(DiskFaultPlan::seeded(7));
    let probe = chaos.probe();
    let mut cfg = config(&clean_dir);
    cfg.vfs = Arc::new(chaos);
    let archive = Archive::create(cfg).unwrap();
    let fed_clean = ingest_until_death(&archive);
    let (clean_frames, clean_digests, clean_failed) = replay_digests(&archive);
    drop(archive);
    assert!(!clean_failed);
    assert_eq!(clean_frames, fed_clean);
    let total_bytes = probe.stats().bytes_written;
    let _ = std::fs::remove_dir_all(&clean_dir);

    for i in 1..=5u64 {
        let kill_at = (total_bytes * i / 6).max(1);
        let dir = tmp_dir(&format!("kill{i}"));
        let mut cfg = config(&dir);
        cfg.vfs = Arc::new(ChaosVfs::new(DiskFaultPlan::seeded(7).with_crash_at(kill_at)));
        let fed = match Archive::create(cfg) {
            Ok(archive) => ingest_until_death(&archive),
            Err(_) => 0,
        };

        let archive = Archive::open(config(&dir)).expect("recovery must succeed");
        let (recovered, digests, failed) = replay_digests(&archive);
        assert!(!failed, "kill@{kill_at}: corrupt tile served");
        assert!(
            recovered + u64::from(GROUP) >= fed,
            "kill@{kill_at}: lost more than one group ({recovered} of {fed})"
        );
        assert!(recovered <= fed, "kill@{kill_at}: phantom frames");
        assert_eq!(
            digests[recovered as usize], clean_digests[recovered as usize],
            "kill@{kill_at}: recovered replay diverges from the clean prefix"
        );
        drop(archive);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery is idempotent: reopening the already-recovered directory
/// changes nothing — same frame count, same digest, and the second
/// open reports a clean recovery.
#[test]
fn recovery_is_idempotent() {
    let dir = tmp_dir("idem");
    let mut cfg = config(&dir);
    cfg.vfs = Arc::new(ChaosVfs::new(DiskFaultPlan::seeded(3).with_crash_at(9_000)));
    let fed = match Archive::create(cfg) {
        Ok(archive) => ingest_until_death(&archive),
        Err(_) => 0,
    };
    assert!(fed > 0, "the crash budget must admit some frames");

    let archive = Archive::open(config(&dir)).unwrap();
    let first_report = archive.recovery_report();
    let (first, first_digests, failed) = replay_digests(&archive);
    assert!(!failed);
    drop(archive);

    let archive = Archive::open(config(&dir)).unwrap();
    let second_report = archive.recovery_report();
    let (second, second_digests, failed) = replay_digests(&archive);
    assert!(!failed);
    assert_eq!(second, first, "second recovery changed the frame count");
    assert_eq!(
        second_digests[second as usize], first_digests[first as usize],
        "second recovery changed the replay digest"
    );
    assert!(second_report.clean(), "second open must find nothing to repair: {second_report:?}");
    assert!(!first_report.clean() || first_report.wal_commits_seen > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping one byte inside a sealed tile payload is caught at read
/// time by the per-tile checksum: the replay ends in failure (never
/// yielding the rotted pixels) and the corruption counter fires.
#[test]
fn flipped_byte_in_sealed_segment_is_detected_at_read_time() {
    let dir = tmp_dir("rot");
    let archive = Archive::create(config(&dir)).unwrap();
    let registry = Registry::new();
    archive.attach_metrics(StoreMetrics::register(&registry));
    let fed = ingest_until_death(&archive);
    assert!(fed > 0);

    // Locate a tile payload in the first segment via the scanner the
    // recovery path uses, then flip one bit in the middle of it while
    // the archive (and its index) stays open.
    let seg_path = segment_path(&dir, 0);
    let scan = scan_segment(&StdVfs, &seg_path).unwrap();
    let (payload_offset, payload_len) = scan
        .records
        .iter()
        .find_map(|r| match r {
            Record::Tile { header, payload_offset } => {
                Some((*payload_offset, u64::from(header.payload_len)))
            }
            _ => None,
        })
        .expect("segment holds a tile");
    let mut bytes = std::fs::read(&seg_path).unwrap();
    let at = (payload_offset + payload_len / 2) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(&seg_path, &bytes).unwrap();

    let band = scanner().band_stream(0, 1).schema().band;
    let mut replay = archive.replay(band, None, None, None).unwrap();
    let mut points = 0u64;
    while let Some(el) = replay.next_element() {
        points += u64::from(el.is_point());
    }
    assert!(replay.failed(), "replay must end in failure, not a clean EOS");
    let rendered = registry.render_prometheus();
    assert!(
        rendered.contains("geostreams_store_corruption_detected_total 1"),
        "corruption metric must fire exactly once: {rendered}"
    );
    // The flipped tile sits in the very first frame of the band, so
    // nothing before it was served either.
    assert_eq!(points, 0, "no pixel of the corrupt frame may be delivered");
    let _ = std::fs::remove_dir_all(&dir);
}
