//! `store`: archive persist and replay.
//!
//! Ingests a seeded GOES-like visible band into a fresh archive,
//! replays it in full and prints one JSON line with element counts,
//! stored/raw byte totals, the compression ratio in permille (the
//! ISSUE 4 bar is >= 2x versus raw `f32` pixels) and an FNV-1a hash
//! over every replayed pixel value, so any nondeterminism in encoding,
//! segment layout or replay is a diff.

use crate::{fnv1a, scratch_dir, FNV_OFFSET};
use geostreams_core::model::{Element, GeoStream, DEFAULT_CHUNK_BUDGET};
use geostreams_satsim::goes_like;
use geostreams_store::{Archive, ArchiveConfig};

const SECTORS: u64 = 6;

pub fn run() {
    let dir = scratch_dir("store");
    // Wide frames so the fixed per-tile record overhead is amortized,
    // as on a real instrument row (512 px at full resolution).
    let scanner = goes_like(512, 96, 7);
    let mut cfg = ArchiveConfig::new(&dir);
    cfg.tile_width = 256;
    let archive = Archive::create(cfg).expect("create archive");

    let mut stream = scanner.band_stream(0, SECTORS);
    let band = stream.schema().band;
    archive.bind_band(stream.schema()).expect("bind band");
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        archive.ingest_chunk(band, &item).expect("ingest run");
    }
    archive.flush().expect("flush archive");
    let stats = archive.stats();

    let mut replay = archive.replay(band, None, None, None).expect("open replay");
    let mut replay_points = 0u64;
    let mut replay_frames = 0u64;
    let mut value_fnv = FNV_OFFSET;
    while let Some(el) = replay.next_element() {
        match el {
            Element::Point(p) => {
                replay_points += 1;
                value_fnv = fnv1a(&p.value.to_bits().to_le_bytes(), value_fnv);
            }
            Element::FrameStart(_) => replay_frames += 1,
            _ => {}
        }
    }
    drop(replay);
    drop(archive);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{{\"bench\":\"store\",\"sectors\":{SECTORS},\"frames\":{},\"tiles\":{},\"raw_bytes\":{},\"bytes_written\":{},\"compression_permille\":{},\"replay_frames\":{replay_frames},\"replay_points\":{replay_points},\"value_fnv\":\"{value_fnv:016x}\"}}",
        stats.frames,
        stats.tiles,
        stats.raw_bytes,
        stats.bytes_written,
        stats.raw_bytes * 1000 / stats.bytes_written.max(1),
    );
}
