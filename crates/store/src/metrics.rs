//! `geostreams_store_*` metrics, registered on the DSMS's shared
//! [`Registry`] so they render on the same `/metrics` endpoint as the
//! server and pipeline metrics.

use geostreams_core::obs::{Counter, Gauge, HistogramHandle, Registry};

/// Cloneable bundle of store metric handles.
#[derive(Clone)]
pub struct StoreMetrics {
    /// Live (non-evicted) segment files.
    pub segments: Gauge,
    /// Compressed bytes appended to segments (records incl. headers).
    pub bytes_written: Counter,
    /// Raw pixel bytes represented (4 bytes per delivered point).
    pub raw_bytes: Counter,
    /// Frames persisted.
    pub frames_persisted: Counter,
    /// Tile records written.
    pub tiles_written: Counter,
    /// Decoded-tile cache hits.
    pub cache_hits: Counter,
    /// Decoded-tile cache misses.
    pub cache_misses: Counter,
    /// Segments evicted by retention.
    pub evicted_segments: Counter,
    /// Points dropped at ingest (orphans outside any open frame or
    /// outside the frame's declared cell range).
    pub dropped_points: Counter,
    /// Compression ratio ×1000 (raw bytes / written bytes), updated on
    /// every frame flush.
    pub compression_ratio_permille: Gauge,
    /// Backfill latency: nanoseconds from replay start to the live
    /// splice, one observation per hybrid query.
    pub backfill_ns: HistogramHandle,
    /// Committed frames kept in segments whose tail recovery cut.
    pub recovery_frames: Counter,
    /// Bytes discarded at recovery (uncommitted or damaged segment
    /// tails, removed segments).
    pub recovery_bytes_discarded: Counter,
    /// Integrity-check failures: CRC mismatches on segment records or
    /// tile payloads served to readers.
    pub corruption_detected: Counter,
    /// `Commit` records appended to segments (one per sealed group).
    pub wal_commits: Counter,
    /// Bytes of `Commit` records appended to segments (kept separate
    /// from `bytes_written`, which tracks tile records only).
    pub wal_bytes: Counter,
    /// Torn segment tails truncated at recovery.
    pub truncated_tails: Counter,
    /// Splice handoffs refused because backfill replay failed (the gap
    /// between archive and live tail could not be verified).
    pub splice_refused: Counter,
}

impl StoreMetrics {
    /// Registers every store metric (idempotent per registry: handles
    /// alias the same underlying series).
    pub fn register(registry: &Registry) -> StoreMetrics {
        for (name, help) in [
            ("geostreams_store_segments", "Live (non-evicted) segment files."),
            (
                "geostreams_store_bytes_written_total",
                "Compressed bytes appended to archive segments.",
            ),
            (
                "geostreams_store_raw_bytes_total",
                "Raw pixel bytes represented by archived points (4 bytes each).",
            ),
            ("geostreams_store_frames_persisted_total", "Frames persisted to the archive."),
            ("geostreams_store_tiles_written_total", "Tile records written to segments."),
            ("geostreams_store_tile_cache_hits_total", "Decoded-tile cache hits."),
            ("geostreams_store_tile_cache_misses_total", "Decoded-tile cache misses."),
            (
                "geostreams_store_evicted_segments_total",
                "Segments evicted by the retention policy.",
            ),
            (
                "geostreams_store_dropped_points_total",
                "Points dropped at ingest (protocol damage).",
            ),
            (
                "geostreams_store_compression_ratio_permille",
                "Compression ratio x1000 (raw bytes / written bytes).",
            ),
            (
                "geostreams_store_backfill_ns",
                "Backfill latency in nanoseconds per hybrid query splice.",
            ),
            (
                "geostreams_store_recovery_frames_total",
                "Committed frames kept in segments whose tail recovery truncated.",
            ),
            (
                "geostreams_store_recovery_bytes_discarded_total",
                "Bytes discarded at recovery (uncommitted or damaged tails).",
            ),
            (
                "geostreams_store_corruption_detected_total",
                "CRC integrity failures on segment records or tile payloads.",
            ),
            (
                "geostreams_store_wal_commits_total",
                "Commit records appended to segments (one per sealed group).",
            ),
            ("geostreams_store_wal_bytes_total", "Bytes of commit records appended to segments."),
            ("geostreams_store_truncated_tail_total", "Torn segment tails truncated at recovery."),
            (
                "geostreams_store_splice_refused_total",
                "Splice handoffs refused after a failed backfill replay.",
            ),
        ] {
            registry.set_help(name, help);
        }
        StoreMetrics {
            segments: registry.gauge("geostreams_store_segments", &[]),
            bytes_written: registry.counter("geostreams_store_bytes_written_total", &[]),
            raw_bytes: registry.counter("geostreams_store_raw_bytes_total", &[]),
            frames_persisted: registry.counter("geostreams_store_frames_persisted_total", &[]),
            tiles_written: registry.counter("geostreams_store_tiles_written_total", &[]),
            cache_hits: registry.counter("geostreams_store_tile_cache_hits_total", &[]),
            cache_misses: registry.counter("geostreams_store_tile_cache_misses_total", &[]),
            evicted_segments: registry.counter("geostreams_store_evicted_segments_total", &[]),
            dropped_points: registry.counter("geostreams_store_dropped_points_total", &[]),
            compression_ratio_permille: registry
                .gauge("geostreams_store_compression_ratio_permille", &[]),
            backfill_ns: registry.histogram("geostreams_store_backfill_ns", &[]),
            recovery_frames: registry.counter("geostreams_store_recovery_frames_total", &[]),
            recovery_bytes_discarded: registry
                .counter("geostreams_store_recovery_bytes_discarded_total", &[]),
            corruption_detected: registry
                .counter("geostreams_store_corruption_detected_total", &[]),
            wal_commits: registry.counter("geostreams_store_wal_commits_total", &[]),
            wal_bytes: registry.counter("geostreams_store_wal_bytes_total", &[]),
            truncated_tails: registry.counter("geostreams_store_truncated_tail_total", &[]),
            splice_refused: registry.counter("geostreams_store_splice_refused_total", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_on_the_registry() {
        let reg = Registry::new();
        let m = StoreMetrics::register(&reg);
        m.bytes_written.add(100);
        m.raw_bytes.add(400);
        m.segments.set(2);
        m.backfill_ns.record(1_000);
        let text = reg.render_prometheus();
        assert!(text.contains("geostreams_store_bytes_written_total 100"));
        assert!(text.contains("geostreams_store_segments 2"));
        assert!(text.contains("geostreams_store_backfill_ns"));
    }
}
