//! `crash`: the kill-point sweep over the tiled raster archive.
//!
//! A clean seeded ingest establishes (a) the total number of bytes the
//! archive writes to disk, (b) its write amplification — those bytes
//! per tile-record byte, in permille; every archived byte is written
//! once, so it stays near 1000 — and (c) a per-frame-prefix digest of
//! the full replay. The sweep then re-runs the same ingest once per
//! kill point under a `ChaosVfs` whose disk dies mid-write at byte `N`,
//! reopens the torn directory with the real filesystem, and checks the
//! durability contract at every point:
//!
//! * recovery restores every group-committed frame — at most one
//!   uncommitted group (`group_commit_frames`) is lost;
//! * the recovered replay is byte-identical to the clean run's prefix
//!   of the same length (no reordering, no phantom frames);
//! * the full recovered replay completes without serving a single
//!   corrupt tile.
//!
//! Output is one deterministic JSON line per kill point (including the
//! serialized `RecoveryReport`): two sweeps that differ show recovery
//! itself to be nondeterministic.

use crate::{fnv1a, scratch_dir, FNV_OFFSET};
use geostreams_core::model::{Element, GeoStream, Marker, DEFAULT_CHUNK_BUDGET};
use geostreams_satsim::goes_like;
use geostreams_store::{Archive, ArchiveConfig, ChaosVfs, DiskFaultPlan};
use std::path::Path;
use std::sync::Arc;

const SECTORS: u64 = 4;
const GROUP: u32 = 4;
const KILL_POINTS: u64 = 12;

/// Small segments force several rolls (each one commits and fsyncs the
/// closing segment) inside the sweep window; a small group keeps the
/// loss bound tight.
fn config(dir: &Path) -> ArchiveConfig {
    let mut cfg = ArchiveConfig::new(dir);
    cfg.tile_width = 48;
    cfg.max_segment_bytes = 24 * 1024;
    cfg.group_commit_frames = GROUP;
    cfg
}

fn scanner() -> geostreams_satsim::Scanner {
    goes_like(96, 24, 3)
}

/// Ingests the seeded band until the disk dies (or the stream ends);
/// returns how many frames were fed with an `Ok` ingest result.
fn ingest_until_death(archive: &Archive) -> u64 {
    let scanner = scanner();
    let mut stream = scanner.band_stream(0, SECTORS);
    let band = stream.schema().band;
    if archive.bind_band(stream.schema()).is_err() {
        return 0;
    }
    let mut frames_ok = 0u64;
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        let ends_frame = matches!(item.marker(), Some(Marker::FrameEnd(_)));
        match archive.ingest_chunk(band, &item) {
            Ok(()) => frames_ok += u64::from(ends_frame),
            Err(_) => return frames_ok,
        }
    }
    let _ = archive.flush();
    frames_ok
}

/// Replays band 0 in full: `(frames, per-frame-prefix digests, failed)`.
/// `digests[k]` hashes every point value of the first `k` frames.
fn replay_digests(archive: &Archive) -> (u64, Vec<u64>, bool) {
    let band = scanner().band_stream(0, 1).schema().band;
    let mut digests = vec![FNV_OFFSET];
    let mut hash = FNV_OFFSET;
    let mut frames = 0u64;
    let mut replay = match archive.replay(band, None, None, None) {
        Ok(r) => r,
        // A band that never reached disk replays as zero frames.
        Err(_) => return (0, digests, false),
    };
    while let Some(el) = replay.next_element() {
        match el {
            Element::Point(p) => hash = fnv1a(&p.value.to_bits().to_le_bytes(), hash),
            Element::FrameEnd(_) => {
                frames += 1;
                digests.push(hash);
            }
            _ => {}
        }
    }
    (frames, digests, replay.failed())
}

pub fn run() {
    // Clean run: byte budget + reference prefix digests.
    let clean_dir = scratch_dir("crash-clean");
    let chaos = ChaosVfs::new(DiskFaultPlan::seeded(7));
    let probe = chaos.probe();
    let mut cfg = config(&clean_dir);
    cfg.vfs = Arc::new(chaos);
    let archive = Archive::create(cfg).expect("create clean archive");
    let frames_fed = ingest_until_death(&archive);
    let (clean_frames, clean_digests, clean_failed) = replay_digests(&archive);
    let tile_bytes = archive.stats().bytes_written;
    drop(archive);
    let total_bytes = probe.stats().bytes_written;
    assert!(!clean_failed, "clean replay must not fail");
    assert_eq!(clean_frames, frames_fed, "clean run must persist every frame");
    let _ = std::fs::remove_dir_all(&clean_dir);
    println!(
        "{{\"run\":\"clean\",\"frames\":{clean_frames},\"bytes\":{total_bytes},\
         \"write_amplification_permille\":{},\"digest\":\"{:016x}\"}}",
        total_bytes * 1000 / tile_bytes.max(1),
        clean_digests[clean_frames as usize]
    );

    // Kill-point sweep: die at evenly spaced byte offsets.
    for i in 1..=KILL_POINTS {
        let kill_at = (total_bytes * i / (KILL_POINTS + 1)).max(1);
        let dir = scratch_dir(&format!("crash-kill-{i}"));
        let mut cfg = config(&dir);
        cfg.vfs = Arc::new(ChaosVfs::new(DiskFaultPlan::seeded(7).with_crash_at(kill_at)));
        let fed = match Archive::create(cfg) {
            Ok(archive) => {
                let fed = ingest_until_death(&archive);
                drop(archive); // Drop flushes; on a dead disk that is a no-op.
                fed
            }
            Err(_) => 0, // died before the first segment was born
        };

        // Reopen the torn directory on the real filesystem.
        let archive = Archive::open(config(&dir)).expect("recovery must succeed");
        let report = archive.recovery_report();
        let (recovered, digests, failed) = replay_digests(&archive);
        assert!(!failed, "kill@{kill_at}: recovered replay served a corrupt tile");
        assert!(
            recovered + u64::from(GROUP) >= fed,
            "kill@{kill_at}: lost more than one group ({recovered} of {fed} frames)"
        );
        assert!(recovered <= fed, "kill@{kill_at}: recovered phantom frames");
        assert_eq!(
            digests[recovered as usize], clean_digests[recovered as usize],
            "kill@{kill_at}: recovered replay diverges from the clean prefix"
        );

        // Recover twice: a second open of the repaired directory must be
        // clean and replay to the identical digest (idempotence).
        drop(archive);
        let archive = Archive::open(config(&dir)).expect("second recovery must succeed");
        let (again, digests2, failed2) = replay_digests(&archive);
        assert!(!failed2 && again == recovered, "kill@{kill_at}: recovery is not idempotent");
        assert_eq!(
            digests2[again as usize], digests[recovered as usize],
            "kill@{kill_at}: second recovery changed the replay digest"
        );
        drop(archive);
        let _ = std::fs::remove_dir_all(&dir);

        let report_json = serde_json::to_string(&report).unwrap_or_else(|_| "null".into());
        println!(
            "{{\"run\":\"kill\",\"kill_at\":{kill_at},\"frames_fed\":{fed},\
             \"frames_recovered\":{recovered},\"digest\":\"{:016x}\",\"report\":{report_json}}}",
            digests[recovered as usize]
        );
    }
}
