//! Crash-recovery acceptance suite: the archive's durability contract
//! under a kill at every record boundary, seeded short writes and
//! fsync failures, recovery idempotence, refusal of segment files in
//! another format, and read-time corruption detection.
//!
//! The seeded sweep over a longer ingest (and its run-twice
//! determinism diff) is `geostreams-digest crash` behind
//! `scripts/determinism_gate.sh`.

mod common;

use common::tmp_dir;
use geostreams::core::model::{Element, GeoStream, Marker, DEFAULT_CHUNK_BUDGET};
use geostreams::core::obs::Registry;
use geostreams::core::CoreError;
use geostreams::satsim::goes_like;
use geostreams::store::segment::{scan_segment, segment_path, Record, MAGIC, RECORD_HEADER_BYTES};
use geostreams::store::{
    Archive, ArchiveConfig, ChaosVfs, DiskFaultPlan, DiskFaultProbe, StdVfs, StoreMetrics,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SECTORS: u64 = 1;
const GROUP: u32 = 4;

/// Small segments: the one sector rolls twice.
fn config(dir: &Path) -> ArchiveConfig {
    let mut cfg = ArchiveConfig::new(dir);
    cfg.tile_width = 48;
    cfg.max_segment_bytes = 4 * 1024;
    cfg.group_commit_frames = GROUP;
    cfg
}

fn scanner() -> geostreams::satsim::Scanner {
    goes_like(96, 24, 3)
}

/// A fresh archive in `dir` whose disk follows `plan`.
fn chaos_archive(dir: &Path, plan: DiskFaultPlan) -> (Archive, DiskFaultProbe) {
    let chaos = ChaosVfs::new(plan);
    let probe = chaos.probe();
    let mut cfg = config(dir);
    cfg.vfs = Arc::new(chaos);
    (Archive::create(cfg).unwrap(), probe)
}

fn fnv1a_u32(v: u32, mut hash: u64) -> u64 {
    for b in v.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// What one ingest did before its disk failed.
#[derive(Default)]
struct Fed {
    /// Frames whose closing call returned `Ok` before the first error.
    frames: u64,
    /// The first error any call returned.
    error: Option<CoreError>,
    /// Write calls the disk had seen when that error came back.
    writes_at_error: u64,
}

impl Fed {
    fn note(&mut self, result: geostreams::core::Result<()>, ends_frame: bool, p: &DiskFaultProbe) {
        match (result, &self.error) {
            (Ok(()), None) => self.frames += u64::from(ends_frame),
            (Err(e), None) => {
                self.error = Some(e);
                self.writes_at_error = p.stats().writes;
            }
            (_, Some(_)) => {}
        }
    }
}

/// Feeds band 0 and a final flush, going on past the first error (a
/// caller that ignores it must still not get a write to disk).
fn ingest_until_death(archive: &Archive, probe: &DiskFaultProbe) -> Fed {
    let mut stream = scanner().band_stream(0, SECTORS);
    let band = stream.schema().band;
    let mut fed = Fed::default();
    fed.note(archive.bind_band(stream.schema()), false, probe);
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        let ends_frame = matches!(item.marker(), Some(Marker::FrameEnd(_)));
        fed.note(archive.ingest_chunk(band, &item), ends_frame, probe);
    }
    fed.note(archive.flush(), false, probe);
    fed
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

/// The fault-free reference run, its directory kept for inspection.
struct Clean {
    dir: PathBuf,
    frames: u64,
    digests: Vec<u64>,
    bytes: u64,
}

fn clean_run() -> Clean {
    let dir = tmp_dir("clean");
    let (archive, probe) = chaos_archive(&dir, DiskFaultPlan::seeded(7));
    let fed = ingest_until_death(&archive, &probe);
    let (frames, digests, failed) = replay_digests(&archive);
    drop(archive);
    assert!(fed.error.is_none() && !failed);
    assert_eq!(frames, fed.frames);
    Clean { dir, frames, digests, bytes: probe.stats().bytes_written }
}

/// Reopens a failed ingest's directory on the real disk and checks the
/// durability contract. `phantom` is how many frames past the last
/// acknowledged one may survive: a commit whose fsync failed is on disk
/// all the same, so the frame whose call returned that error may.
fn check_recovery(dir: &Path, fed: &Fed, clean: &Clean, phantom: u64, label: &str) {
    if let Some(e) = &fed.error {
        assert!(matches!(e, CoreError::Storage(_)), "{label}: untyped failure {e:?}");
    }
    let archive = Archive::open(config(dir)).expect("recovery must succeed");
    let (recovered, digests, failed) = replay_digests(&archive);
    assert!(!failed, "{label}: corrupt tile served");
    assert!(
        recovered + u64::from(GROUP) > fed.frames,
        "{label}: lost a whole group or more ({recovered} of {} frames)",
        fed.frames
    );
    assert!(recovered <= fed.frames + phantom, "{label}: phantom frames ({recovered})");
    assert_eq!(
        digests[recovered as usize], clean.digests[recovered as usize],
        "{label}: recovered replay diverges from the clean prefix"
    );
    drop(archive);
    let archive = Archive::open(config(dir)).expect("second recovery must succeed");
    let report = archive.recovery_report();
    assert!(report.clean(), "{label}: second open must find nothing to cut: {report:?}");
    assert_eq!(replay_digests(&archive).0, recovered, "{label}: second open changed the frames");
    drop(archive);
    for name in std::fs::read_dir(dir).unwrap() {
        let name = name.unwrap().file_name().into_string().unwrap();
        assert!(name.starts_with("segment-") && name.ends_with(".seg"), "{label}: stray {name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A `[start, end)` range of global write offsets.
type Span = (u64, u64);

/// Every record boundary of the clean run as a global write offset,
/// plus the spans of its commit records and of its segments' magics.
/// Segments are written one after another, so a boundary in segment k
/// lies past every byte of segments `0..k`.
fn record_boundaries(dir: &Path) -> (Vec<u64>, Vec<Span>, Vec<Span>) {
    let (mut ends, mut commits, mut segments) = (Vec::new(), Vec::new(), Vec::new());
    let mut base = 0u64;
    for id in 0.. {
        let path = segment_path(dir, id);
        let Ok(data) = std::fs::read(&path) else { break };
        let records = scan_segment(&StdVfs, &path).unwrap().records;
        let mut at = MAGIC.len();
        segments.push((base, base + at as u64));
        ends.push(base + at as u64);
        for rec in &records {
            let len = u32::from_le_bytes(data[at + 1..at + 5].try_into().unwrap()) as usize;
            let start = at;
            at += RECORD_HEADER_BYTES + len;
            ends.push(base + at as u64);
            if matches!(rec, Record::Commit(_)) {
                commits.push((base + start as u64, base + at as u64));
            }
        }
        assert_eq!(at, data.len(), "the clean run leaves whole records only");
        base += data.len() as u64;
    }
    (ends, commits, segments)
}

/// Kill the disk at every record boundary of a clean ingest and one
/// byte either side — inside every commit record, at both ends of each
/// segment roll, inside each new segment's magic. At every point the
/// failing call returns a typed error, nothing is written after it,
/// the reopen keeps every committed frame and the clean run's prefix,
/// serves no corrupt tile, and a second open is clean.
#[test]
fn kill_point_sweep_bounds_loss_to_one_group() {
    let clean = clean_run();
    let (ends, commits, segments) = record_boundaries(&clean.dir);
    assert_eq!(*ends.last().unwrap(), clean.bytes);
    assert!(segments.len() >= 3 && commits.len() >= 6, "{segments:?} {commits:?}");
    let mut kills: Vec<u64> = ends
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .filter(|&k| k < clean.bytes)
        .collect();
    kills.dedup();
    let inside = |&(start, end): &Span| kills.iter().any(|&k| k > start && k < end);
    assert!(commits.iter().all(inside) && segments.iter().all(inside));

    for &kill_at in &kills {
        let dir = tmp_dir("kill");
        let (archive, probe) = chaos_archive(&dir, DiskFaultPlan::seeded(7).with_crash_at(kill_at));
        let fed = ingest_until_death(&archive, &probe);
        drop(archive);
        let label = format!("kill@{kill_at}");
        assert!(fed.error.is_some(), "{label}: the crash went unreported");
        assert_eq!(probe.stats().writes, fed.writes_at_error, "{label}: wrote after the failure");
        check_recovery(&dir, &fed, &clean, 0, &label);
    }
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// Seeded transient faults: a short write leaves a torn record and an
/// fsync failure leaves the durability of a commit unknown. Either
/// poisons the writer; recovery keeps the same contract as a kill.
#[test]
fn seeded_short_writes_and_fsync_failures_bound_loss() {
    let clean = clean_run();
    let mut faulted = 0;
    for seed in 0..16 {
        let plans = [
            (DiskFaultPlan::seeded(seed).with_short_writes(0.05), 0),
            (DiskFaultPlan::seeded(seed).with_fsync_failures(0.2), 1),
        ];
        for (plan, phantom) in plans {
            let dir = tmp_dir("fault");
            let label = format!("{plan:?}");
            let (archive, probe) = chaos_archive(&dir, plan);
            let fed = ingest_until_death(&archive, &probe);
            drop(archive);
            if fed.error.is_some() {
                faulted += 1;
                let writes = probe.stats().writes;
                assert_eq!(writes, fed.writes_at_error, "{label}: wrote after the failure");
            } else {
                assert_eq!(fed.frames, clean.frames, "{label}");
            }
            check_recovery(&dir, &fed, &clean, phantom, &label);
        }
    }
    assert!(faulted >= 16, "only {faulted} of 32 seeded runs hit a fault");
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// Recovery is idempotent: reopening the already-recovered directory
/// changes nothing — same frame count, same digest, and the second
/// open reports a clean recovery.
#[test]
fn recovery_is_idempotent() {
    let dir = tmp_dir("idem");
    let (archive, probe) = chaos_archive(&dir, DiskFaultPlan::seeded(3).with_crash_at(5_000));
    let fed = ingest_until_death(&archive, &probe);
    drop(archive);
    assert!(fed.frames > 0, "the crash budget must admit some frames");

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
    assert!(!first_report.clean(), "the kill must leave a tail to cut: {first_report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment file in another format — the previous `GSSTORE1` layout
/// or foreign bytes — fails the open with an error naming it, and the
/// directory stays as it was byte for byte, even a segment beside it
/// that recovery would otherwise remove. One torn before its magic was
/// complete is removed and counted.
#[test]
fn unrecognised_segment_is_refused_and_kept() {
    let torn = &MAGIC[..4];
    let foreign: [&[u8]; 2] = [b"GSSTORE1\x02\x00\x00\x00\x00\x00", b"PK\x03\x04 not a segment"];
    for bytes in foreign {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let (torn_path, path) = (segment_path(&dir, 0), segment_path(&dir, 1));
        std::fs::write(&torn_path, torn).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let err = Archive::open(config(&dir)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Storage(msg) if msg.contains("segment-000001.seg")),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refused file must stay untouched");
        assert_eq!(std::fs::read(&torn_path).unwrap(), torn, "a refused open touches nothing");

        std::fs::remove_file(&path).unwrap();
        let report = Archive::open(config(&dir)).unwrap().recovery_report();
        assert_eq!((report.segments_removed, report.bytes_discarded), (1, 4));
        assert!(!torn_path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flipping one byte inside a sealed tile payload is caught at read
/// time by the per-tile checksum: the replay ends in failure (never
/// yielding the rotted pixels) and the corruption counter fires.
#[test]
fn flipped_byte_in_sealed_segment_is_detected_at_read_time() {
    let dir = tmp_dir("rot");
    let (archive, probe) = chaos_archive(&dir, DiskFaultPlan::seeded(1));
    let registry = Registry::new();
    archive.attach_metrics(StoreMetrics::register(&registry));
    let fed = ingest_until_death(&archive, &probe);
    assert!(fed.frames > 0);

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
