//! # GeoStreams store: a tiled raster archive for streaming image data
//!
//! The paper's temporal restriction `G|T` (§3.1) is only honest for
//! windows that reach into the past if the DSMS retains history. This
//! crate is that history: a compact, chunked time-series store in the
//! spirit of compact raster-time-series representations and tiled image
//! serving layers, built for the GeoStreams element protocol.
//!
//! * **Write path** — [`Archive::ingest_chunk`] consumes live stream
//!   runs and persists frames as fixed-width column stripes (**tiles**),
//!   delta-compressed against the previous frame (quantization + byte
//!   planes + PackBits, see [`codec`]), appended to segment files with a
//!   sparse in-memory index `(band, sector, frame, tile) → offset`.
//! * **Durability** — each segment is its own write-ahead log: every
//!   byte is written once, a CRC-framed `Commit` record seals each group
//!   of frames in the segment itself, and [`Archive::open`] keeps each
//!   segment up to its last valid commit ([`segment`], [`archive`]).
//! * **Read path** — [`ArchiveReplay`] replays any `[t0, t1) × region`
//!   slice in lattice order as a standard `GeoStream`, decoding only
//!   tiles that intersect the spatial restriction.
//! * **Splice** — [`SpliceStream`] runs backfill-from-archive, then
//!   hands off to the live feed exactly once at the recorded frame
//!   watermark; wrapped in `StreamRepair`, the seam is gap- and
//!   duplicate-free even under faulty downlinks.
//! * **Retention** — append-only segments are evicted oldest-first,
//!   segment-granular, under byte and frame budgets
//!   ([`ArchiveConfig::retention_max_bytes`] /
//!   [`ArchiveConfig::retention_max_frames`]).
//! * **Observability** — [`StoreMetrics`] lands `geostreams_store_*`
//!   series on the DSMS `/metrics` endpoint.

#![warn(missing_docs)]
// Tests may unwrap freely; the deny applies to library code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod archive;
pub mod codec;
pub mod metrics;
pub mod replay;
pub mod segment;
pub mod vfs;

pub use archive::{Archive, ArchiveConfig, ArchiveStats, RecoveryReport};
pub use codec::Codec;
pub use metrics::StoreMetrics;
pub use replay::{ArchiveReplay, SpliceStream};
pub use segment::{BandWatermark, FsyncPolicy};
pub use vfs::{ChaosVfs, DiskFaultPlan, DiskFaultProbe, DiskFaultStats, StdVfs, Vfs, VfsFile};

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::model::{Element, GeoStream, DEFAULT_CHUNK_BUDGET};
    use geostreams_core::query::ReplayProvider;
    use geostreams_satsim::{goes_like, Scanner};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gs-store-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scanner() -> Scanner {
        goes_like(96, 48, 7)
    }

    /// Ingests `n_sectors` sectors of band `band_idx` and returns the
    /// drained elements for comparison.
    fn ingest_band(
        archive: &Archive,
        scanner: &Scanner,
        band_idx: usize,
        n_sectors: u64,
    ) -> Vec<Element<f32>> {
        let mut stream = scanner.band_stream(band_idx, n_sectors);
        let band = stream.schema().band;
        archive.bind_band(stream.schema()).unwrap();
        let mut seen = Vec::new();
        while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
            archive.ingest_chunk(band, &item).unwrap();
            item.into_elements(&mut |el| seen.push(el));
        }
        seen
    }

    fn frame_ids(elements: &[Element<f32>]) -> Vec<u64> {
        elements
            .iter()
            .filter_map(|el| match el {
                Element::FrameStart(fi) => Some(fi.frame_id),
                _ => None,
            })
            .collect()
    }

    fn points(elements: &[Element<f32>]) -> Vec<(u32, u32, f32)> {
        elements
            .iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some((p.cell.col, p.cell.row, p.value)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn replay_reproduces_the_ingested_run() {
        let dir = tmp_dir("roundtrip");
        let archive = Archive::create(ArchiveConfig::new(&dir)).unwrap();
        let sc = scanner();
        let live: Vec<Element<f32>> = ingest_band(&archive, &sc, 0, 3);
        let band = sc.band_stream(0, 1).schema().band;

        let got = archive.replay(band, None, None, None).unwrap().drain_elements();
        assert_eq!(frame_ids(&got), frame_ids(&live));
        let (lp, gp) = (points(&live), points(&got));
        assert_eq!(lp.len(), gp.len());
        for ((lc, lr, lv), (gc, gr, gv)) in lp.iter().zip(&gp) {
            assert_eq!((lc, lr), (gc, gr));
            // Quant16 default: within one quantization step of range (0,1).
            assert!((lv - gv).abs() < 1.0 / 65534.0, "{lv} vs {gv}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossless_codec_replays_bitwise() {
        let dir = tmp_dir("lossless");
        let mut cfg = ArchiveConfig::new(&dir);
        cfg.codec = Codec::LosslessF32;
        let archive = Archive::create(cfg).unwrap();
        let sc = scanner();
        let live = ingest_band(&archive, &sc, 1, 2);
        let band = sc.band_stream(1, 1).schema().band;
        let got = archive.replay(band, None, None, None).unwrap().drain_elements();
        let (lp, gp) = (points(&live), points(&got));
        assert_eq!(lp.len(), gp.len());
        for ((lc, lr, lv), (gc, gr, gv)) in lp.iter().zip(&gp) {
            assert_eq!((lc, lr), (gc, gr));
            assert_eq!(lv.to_bits(), gv.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pooled_decode_replays_identically() {
        // Same archive, serial vs pool-decoded replay: the flattened
        // element sequences must match bit for bit (the pool only
        // reorders decode work, never output). Zero cache capacity
        // would force every tile down the decode path, but the default
        // config already misses on first touch — run each replay on a
        // fresh archive handle so neither is warmed by the other.
        let dir = tmp_dir("pooled");
        let mut cfg = ArchiveConfig::new(&dir);
        cfg.codec = Codec::LosslessF32;
        let archive = Archive::create(cfg.clone()).unwrap();
        let sc = scanner();
        ingest_band(&archive, &sc, 0, 3);
        let band = sc.band_stream(0, 1).schema().band;
        let drain = |mut r: ArchiveReplay| {
            let got = r.drain_elements();
            assert!(!r.failed());
            got
        };
        let serial = drain(archive.replay(band, None, None, None).unwrap());
        for workers in [0, 3] {
            let pool = std::sync::Arc::new(geostreams_core::exec::WorkerPool::new(workers));
            let archive2 = Archive::open(cfg.clone()).unwrap();
            let pooled =
                drain(archive2.replay(band, None, None, None).unwrap().with_decode_pool(pool));
            assert_eq!(frame_ids(&serial), frame_ids(&pooled));
            let (sp, pp) = (points(&serial), points(&pooled));
            assert_eq!(sp.len(), pp.len());
            for ((sc_, sr, sv), (pc, pr, pv)) in sp.iter().zip(&pp) {
                assert_eq!((sc_, sr), (pc, pr));
                assert_eq!(sv.to_bits(), pv.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temporal_window_selects_a_slice() {
        let dir = tmp_dir("window");
        let archive = Archive::create(ArchiveConfig::new(&dir)).unwrap();
        let sc = scanner();
        ingest_band(&archive, &sc, 0, 4);
        let band = sc.band_stream(0, 1).schema().band;
        // Sectors are timestamped by id: [1, 3) picks sectors 1 and 2.
        let mut replay = archive.replay(band, Some(1), Some(3), None).unwrap();
        let mut sectors = Vec::new();
        while let Some(el) = replay.next_element() {
            if let Element::SectorStart(s) = el {
                sectors.push(s.sector_id);
            }
        }
        assert_eq!(sectors, vec![1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spatial_pushdown_decodes_fewer_tiles() {
        let dir = tmp_dir("pushdown");
        let mut cfg = ArchiveConfig::new(&dir);
        cfg.tile_width = 16; // 96-wide lattice → 6 stripes
        cfg.tile_cache_tiles = 0; // count decodes via cache misses
        let archive = Archive::create(cfg).unwrap();
        let reg = geostreams_core::obs::Registry::new();
        archive.attach_metrics(StoreMetrics::register(&reg));
        let sc = scanner();
        ingest_band(&archive, &sc, 0, 2);
        let band_stream = sc.band_stream(0, 1);
        let schema = band_stream.schema();
        let band = schema.band;
        let lattice = schema.sector_lattice.unwrap();

        let full_region = lattice.world_bbox();
        let mut narrow = full_region;
        // A thin vertical slice ~1/6 of the width.
        narrow.x_max = narrow.x_min + (narrow.x_max - narrow.x_min) / 6.0;

        let mut r = archive.replay(band, None, None, Some(&full_region)).unwrap();
        while r.next_element().is_some() {}
        let full_misses =
            reg.counter_value("geostreams_store_tile_cache_misses_total", &[]).unwrap();

        let mut r = archive.replay(band, None, None, Some(&narrow)).unwrap();
        let mut narrow_points = 0u64;
        while let Some(el) = r.next_element() {
            if let Element::Point(p) = &el {
                narrow_points += 1;
                assert!(p.cell.col < 32, "point outside the restriction");
            }
        }
        let narrow_misses =
            reg.counter_value("geostreams_store_tile_cache_misses_total", &[]).unwrap()
                - full_misses;
        assert!(narrow_points > 0);
        assert!(
            narrow_misses * 2 < full_misses,
            "pushdown decoded {narrow_misses} tiles vs {full_misses} for the full region"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_segment_granular_and_replay_survives() {
        let dir = tmp_dir("evict");
        let mut cfg = ArchiveConfig::new(&dir);
        cfg.max_segment_bytes = 8 << 10; // small segments → several rolls
        cfg.retention_max_bytes = Some(24 << 10);
        let archive = Archive::create(cfg).unwrap();
        let sc = scanner();
        let band = sc.band_stream(0, 1).schema().band;

        // Snapshot a replay of the earliest data mid-ingest, then keep
        // ingesting until retention has evicted those segments.
        let mut stream = sc.band_stream(0, 6);
        archive.bind_band(stream.schema()).unwrap();
        let mut early_replay = None;
        while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
            archive.ingest_chunk(band, &item).unwrap();
            if early_replay.is_none() && archive.watermark(band).is_some_and(|(s, _)| s >= 1) {
                early_replay = Some(archive.replay(band, Some(0), Some(1), None).unwrap());
            }
        }
        let stats = archive.stats();
        assert!(stats.evicted_segments > 0, "retention never evicted: {stats:?}");
        assert!(stats.live_bytes <= 24 << 10);
        // The oldest sectors are gone from the index…
        let est = archive.estimate("goes-sim.b1-vis", Some(0), Some(1)).unwrap();
        assert_eq!(est.frames, 0, "sector 0 should have been evicted");
        // …but the pre-eviction snapshot still replays (open handles).
        let mut r = early_replay.unwrap();
        let mut n = 0;
        while let Some(el) = r.next_element() {
            if el.is_point() {
                n += 1;
            }
        }
        assert!(n > 0, "snapshot replay lost its data to eviction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_archive_rebuilds_the_index() {
        let dir = tmp_dir("reopen");
        let sc = scanner();
        let band = sc.band_stream(0, 1).schema().band;
        let (stats_before, ids_before) = {
            let archive = Archive::create(ArchiveConfig::new(&dir)).unwrap();
            ingest_band(&archive, &sc, 0, 3);
            let els = archive.replay(band, None, None, None).unwrap().drain_elements();
            (archive.stats(), frame_ids(&els))
        };
        let archive = Archive::open(ArchiveConfig::new(&dir)).unwrap();
        let stats = archive.stats();
        assert_eq!(stats.frames, stats_before.frames);
        assert_eq!(stats.tiles, stats_before.tiles);
        assert_eq!(archive.band_of("goes-sim.b1-vis"), Some(band));
        let els = archive.replay(band, None, None, None).unwrap().drain_elements();
        assert_eq!(frame_ids(&els), ids_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn estimate_reports_bounded_sizes() {
        let dir = tmp_dir("estimate");
        let archive = Archive::create(ArchiveConfig::new(&dir)).unwrap();
        let sc = scanner();
        ingest_band(&archive, &sc, 0, 3);
        let est = archive.estimate("goes-sim.b1-vis", Some(0), Some(2)).unwrap();
        // RowByRow: one frame per row, 48 rows per sector, 2 sectors.
        assert_eq!(est.frames, 96);
        assert!(est.bytes > 0);
        assert!(archive.estimate("unknown.source", None, None).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compression_beats_raw_pixels() {
        let dir = tmp_dir("ratio");
        // Wide frames amortize the fixed per-tile record overhead; a
        // 96-pixel row (the small test fixture) is header-dominated.
        let mut cfg = ArchiveConfig::new(&dir);
        cfg.tile_width = 256;
        let archive = Archive::create(cfg).unwrap();
        let sc = goes_like(512, 48, 7);
        ingest_band(&archive, &sc, 0, 3);
        let stats = archive.stats();
        assert!(
            stats.compression_ratio >= 2.0,
            "compression ratio {} below 2x",
            stats.compression_ratio
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn splice_hands_off_without_gap_or_duplicates() {
        let dir = tmp_dir("splice");
        let archive = Archive::create(ArchiveConfig::new(&dir)).unwrap();
        let sc = scanner();
        // Archive sectors [0, 3), then go live from sector 3.
        ingest_band(&archive, &sc, 0, 3);
        let band = sc.band_stream(0, 1).schema().band;
        let replay = archive.replay(band, Some(0), Some(3), None).unwrap();
        let live = Box::new(sc.band_stream_from(0, 3, 2));
        let wm = archive.watermark(band).map(|(s, _)| s);
        let seen = SpliceStream::new(replay, live, wm, None).drain_elements();
        let ids = frame_ids(&seen);
        let expected = frame_ids(&sc.band_stream(0, 5).drain_elements());
        assert_eq!(ids, expected, "splice must cover exactly the full run's frames");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
