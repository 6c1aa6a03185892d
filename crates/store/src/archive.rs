//! The tiled raster archive: append-only segment persistence of live
//! GeoStream ingest, a sparse in-memory index, segment-granular
//! retention, and replay planning with spatial restriction pushdown.
//!
//! Frames are buffered per band, split into fixed-width column
//! **stripes** (tiles), delta-compressed against the previous frame's
//! co-located stripe (see [`crate::codec`]) and appended to the active
//! segment. A segment only rolls **between** frames, so every frame's
//! tiles live in exactly one segment, and rolling resets every delta
//! chain — each segment is self-contained, which is what makes
//! segment-granular eviction safe (no surviving frame ever needs an
//! evicted predecessor).
//!
//! ## Durability
//!
//! Each segment is its own write-ahead log. Every record is appended
//! once, CRC-framed; a group of
//! [`ArchiveConfig::group_commit_frames`] frames is sealed by a
//! `Commit` record appended to the same segment, flushed, and fsynced
//! under [`FsyncPolicy::OnCommit`]. A roll commits and fsyncs the
//! closing segment under either policy. Because every record before a
//! commit carries its own CRC, a write that never reached the medium
//! ends the valid prefix ahead of that commit, so the commit is never
//! trusted. [`Archive::open`] keeps each segment up to the end of its
//! last valid commit and cuts the rest, bounding crash loss to at most
//! one open group. Any failed append or sync poisons the writer until
//! the archive is reopened: nothing written after a torn record could
//! be trusted. The outcome of a reopen is summarized in a
//! [`RecoveryReport`].

use crate::codec::{encode_stripe, Codec};
use crate::metrics::StoreMetrics;
use crate::replay::TileCache;
use crate::segment::{
    encode_band_record, encode_commit_record, encode_sector_record, encode_tile_record,
    parse_segment_id, scan_segment, segment_path, BandWatermark, FsyncPolicy, Record,
    SegmentWriter, TileHeader,
};
use crate::vfs::{crc32, StdVfs, Vfs, VfsFile};
use geostreams_core::model::{
    ChunkOrMarker, FrameInfo, Marker, PointRecord, SectorInfo, StreamSchema,
};
use geostreams_core::query::{ReplayEstimate, ReplayProvider};
use geostreams_core::{CoreError, Result};
use geostreams_geo::{CellBox, Rect};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Configuration of an [`Archive`].
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Directory holding the segment files.
    pub dir: PathBuf,
    /// Roll the active segment once it exceeds this many bytes
    /// (checked between frames; default 1 MiB).
    pub max_segment_bytes: u64,
    /// Retention: evict oldest closed segments while the archive
    /// exceeds this many bytes (`None` = unlimited).
    pub retention_max_bytes: Option<u64>,
    /// Retention: evict oldest closed segments while the archive holds
    /// more than this many frames (`None` = unlimited).
    pub retention_max_frames: Option<u64>,
    /// Stripe width in lattice columns (default 64).
    pub tile_width: u32,
    /// A keyframe at least every this many chained frames per stripe
    /// (default 16; bounds replay's chain-prefix decode cost).
    pub keyframe_interval: u32,
    /// Tile payload codec (default [`Codec::Quant16`]).
    pub codec: Codec,
    /// Decoded-tile cache capacity in tiles (default 4096).
    pub tile_cache_tiles: usize,
    /// Frames per commit group (default 8): every this many frames a
    /// `Commit` record seals the group in the active segment, so a
    /// crash loses fewer than this many acknowledged frames.
    pub group_commit_frames: u32,
    /// Whether each commit fsyncs the segment (default
    /// [`FsyncPolicy::OnCommit`]); a segment roll always does.
    pub fsync: FsyncPolicy,
    /// File system the archive talks through — [`StdVfs`] in
    /// production, [`crate::vfs::ChaosVfs`] under fault injection.
    pub vfs: Arc<dyn Vfs>,
}

impl ArchiveConfig {
    /// Defaults for a directory.
    pub fn new(dir: impl Into<PathBuf>) -> ArchiveConfig {
        ArchiveConfig {
            dir: dir.into(),
            max_segment_bytes: 1 << 20,
            retention_max_bytes: None,
            retention_max_frames: None,
            tile_width: 64,
            keyframe_interval: 16,
            codec: Codec::default(),
            tile_cache_tiles: 4096,
            group_commit_frames: 8,
            fsync: FsyncPolicy::OnCommit,
            vfs: Arc::new(StdVfs),
        }
    }
}

/// Index entry for one stored tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileRef {
    pub(crate) segment: u64,
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) tile_x: u32,
    pub(crate) cells: CellBox,
    pub(crate) keyframe: bool,
    pub(crate) codec: Codec,
    /// CRC-32 of the payload, re-verified on every read.
    pub(crate) crc: u32,
}

#[derive(Debug, Clone)]
struct FrameEntry {
    timestamp: i64,
    cells: CellBox,
    tiles: Vec<TileRef>,
}

struct SectorEntry {
    info: SectorInfo,
    frames: BTreeMap<u64, FrameEntry>,
}

struct SegmentMeta {
    path: PathBuf,
    bytes: u64,
    frames: u64,
}

/// Per-stripe delta chain state.
struct StripeState {
    lanes: Vec<u32>,
    since_key: u32,
}

/// Frame under assembly.
struct FrameBuf {
    info: FrameInfo,
    values: Vec<Option<f32>>,
}

/// Per-band ingest state.
#[derive(Default)]
struct BandWriter {
    sector: Option<SectorInfo>,
    frame: Option<FrameBuf>,
    /// Frame ids already persisted for the open sector (duplicate
    /// frames from a faulty downlink are skipped, not re-archived).
    seen_frames: HashSet<u64>,
    /// Duplicate frame currently being skipped (its points are ignored
    /// silently — they are redundant, not lost).
    skipping: Option<u64>,
    chains: HashMap<u32, StripeState>,
}

#[derive(Default)]
struct Totals {
    bytes_written: u64,
    raw_bytes: u64,
    frames: u64,
    tiles: u64,
    evicted_segments: u64,
    dropped_points: u64,
    wal_bytes: u64,
    wal_commits: u64,
}

struct Inner {
    writer: Option<SegmentWriter>,
    next_segment: u64,
    /// Set by the first failed append or sync: a torn record may end
    /// the active segment, so no later write is accepted until reopen.
    poisoned: bool,
    /// Frames appended since the last commit.
    group_open_frames: u32,
    /// True when the active segment holds records not yet sealed by a
    /// commit.
    dirty: bool,
    segments: BTreeMap<u64, SegmentMeta>,
    index: BTreeMap<(u16, u64), SectorEntry>,
    band_meta: HashMap<u16, StreamSchema>,
    writers: HashMap<u16, BandWriter>,
    watermarks: HashMap<u16, (u64, u64)>,
    frames_indexed: u64,
    totals: Totals,
    recovery: RecoveryReport,
}

/// What [`Archive::open`] had to do to bring the directory back to a
/// consistent state (all-zero on a clean open). Served on `/archive`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RecoveryReport {
    /// Committed frames kept in the segments whose tail was truncated.
    pub frames_recovered: u64,
    /// Valid but uncommitted frames discarded (the open group at crash
    /// time).
    pub frames_discarded: u64,
    /// Bytes discarded across truncated tails and removed segments
    /// (torn, corrupt, or uncommitted).
    pub bytes_discarded: u64,
    /// Segments truncated to the end of their last commit.
    pub segments_truncated: u64,
    /// Segment files removed outright (no commit survived, or torn
    /// before their magic was complete).
    pub segments_removed: u64,
    /// Torn (incomplete trailing) records seen across segments.
    pub torn_tails: u64,
    /// CRC-failed or unparseable records seen across segments.
    pub corrupt_records: u64,
    /// Per-band watermarks after recovery (the rebuilt index max-merged
    /// with the watermarks the commits carry) — what the runtime
    /// re-anchors to.
    pub watermarks: Vec<BandWatermark>,
}

impl RecoveryReport {
    /// True when recovery found nothing to discard.
    pub fn clean(&self) -> bool {
        self.bytes_discarded == 0
            && self.segments_truncated == 0
            && self.segments_removed == 0
            && self.torn_tails == 0
            && self.corrupt_records == 0
    }
}

/// Aggregate archive statistics (the `GET /archive` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchiveStats {
    /// Live (non-evicted) segment files.
    pub segments: u64,
    /// Bytes currently on disk across live segments.
    pub live_bytes: u64,
    /// Compressed tile-record bytes ever appended (monotone; commit
    /// records are accounted separately in `wal_bytes`).
    pub bytes_written: u64,
    /// Raw pixel bytes represented by archived points (4 bytes each).
    pub raw_bytes: u64,
    /// Frames currently indexed.
    pub frames: u64,
    /// Frames ever persisted (monotone).
    pub frames_persisted: u64,
    /// Tile records ever written (monotone).
    pub tiles: u64,
    /// Segments evicted by retention.
    pub evicted_segments: u64,
    /// Points dropped at ingest (protocol damage).
    pub dropped_points: u64,
    /// Raw bytes / written bytes (0 when nothing written).
    pub compression_ratio: f64,
    /// Bytes of `Commit` records ever appended to segments (monotone;
    /// the segment is the write-ahead log, so this is all the log costs
    /// beyond the tiles and metadata themselves).
    pub wal_bytes: u64,
    /// `Commit` records ever appended (monotone).
    pub wal_commits: u64,
    /// What the last [`Archive::open`] recovered.
    pub recovery: RecoveryReport,
}

/// The tiled raster archive.
pub struct Archive {
    cfg: ArchiveConfig,
    inner: Mutex<Inner>,
    pub(crate) cache: Arc<Mutex<TileCache>>,
    metrics: OnceLock<StoreMetrics>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for Archive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Archive").field("dir", &self.cfg.dir).finish_non_exhaustive()
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        // Graceful close seals the open group; a real crash skips this
        // and recovery bounds the loss instead.
        let _ = self.flush();
    }
}

impl Archive {
    /// Creates a fresh archive; refuses a directory that already holds
    /// segments (use [`Archive::open`] for those).
    pub fn create(cfg: ArchiveConfig) -> Result<Archive> {
        cfg.vfs
            .create_dir_all(&cfg.dir)
            .map_err(|e| CoreError::Storage(format!("create {}: {e}", cfg.dir.display())))?;
        if !existing_segments(cfg.vfs.as_ref(), &cfg.dir)?.is_empty() {
            return Err(CoreError::Storage(format!(
                "{} already holds segments; use Archive::open",
                cfg.dir.display()
            )));
        }
        Ok(Archive::empty(cfg))
    }

    fn empty(cfg: ArchiveConfig) -> Archive {
        let cache = Arc::new(Mutex::new(TileCache::new(cfg.tile_cache_tiles)));
        Archive {
            cfg,
            inner: Mutex::new(Inner {
                writer: None,
                next_segment: 0,
                poisoned: false,
                group_open_frames: 0,
                dirty: false,
                segments: BTreeMap::new(),
                index: BTreeMap::new(),
                band_meta: HashMap::new(),
                writers: HashMap::new(),
                watermarks: HashMap::new(),
                frames_indexed: 0,
                totals: Totals::default(),
                recovery: RecoveryReport::default(),
            }),
            cache,
            metrics: OnceLock::new(),
        }
    }

    /// Opens an existing archive directory: cuts every segment back to
    /// the end of its last commit (reporting every discarded byte —
    /// nothing is thrown away silently) and rebuilds the in-memory
    /// index from the committed records. A segment file in another
    /// format is refused with an error naming it and left on disk. The
    /// outcome is available via [`Archive::recovery_report`].
    pub fn open(cfg: ArchiveConfig) -> Result<Archive> {
        cfg.vfs
            .create_dir_all(&cfg.dir)
            .map_err(|e| CoreError::Storage(format!("create {}: {e}", cfg.dir.display())))?;
        let archive = Archive::empty(cfg);
        archive.recover()?;
        Ok(archive)
    }

    /// Attaches metric handles (first call wins; typically right after
    /// the DSMS registers its metrics registry). The last recovery's
    /// counters are applied on first attach, so a restart's repairs are
    /// visible on `/metrics`.
    pub fn attach_metrics(&self, metrics: StoreMetrics) {
        if self.metrics.set(metrics).is_ok() {
            if let Some(m) = self.metrics.get() {
                let inner = lock(&self.inner);
                let r = &inner.recovery;
                m.recovery_frames.add(r.frames_recovered);
                m.recovery_bytes_discarded.add(r.bytes_discarded);
                m.truncated_tails.add(r.torn_tails);
                m.corruption_detected.add(r.corrupt_records);
            }
        }
    }

    pub(crate) fn metrics(&self) -> Option<&StoreMetrics> {
        self.metrics.get()
    }

    /// The archive configuration.
    pub fn config(&self) -> &ArchiveConfig {
        &self.cfg
    }

    /// What the last [`Archive::open`] had to recover (all-zero for an
    /// archive created fresh or opened clean).
    pub fn recovery_report(&self) -> RecoveryReport {
        lock(&self.inner).recovery.clone()
    }

    /// Declares a band's stream schema (persisted so reopened archives
    /// and replays know the value range and CRS).
    pub fn bind_band(&self, schema: &StreamSchema) -> Result<()> {
        let mut inner = lock(&self.inner);
        if inner.band_meta.get(&schema.band).is_some_and(|s| s == schema) {
            return Ok(());
        }
        inner.band_meta.insert(schema.band, schema.clone());
        self.append_record(&mut inner, &encode_band_record(schema)?)?;
        Ok(())
    }

    /// Consumes one chunked item (a run of points with an optional
    /// trailing marker, or a standalone marker) for `band`, taking the
    /// archive lock once per item.
    ///
    /// Tolerates protocol damage from a faulty downlink: duplicate
    /// frames are skipped, a missing `FrameEnd` is flushed by the next
    /// boundary, orphan points are dropped and counted.
    pub fn ingest_chunk(&self, band: u16, item: &ChunkOrMarker<f32>) -> Result<()> {
        let mut inner = lock(&self.inner);
        match item {
            ChunkOrMarker::Marker(m) => self.ingest_marker(&mut inner, band, m),
            ChunkOrMarker::Chunk(c) => {
                self.ingest_points(&mut inner, band, &c.points);
                match &c.end {
                    Some(m) => self.ingest_marker(&mut inner, band, m),
                    None => Ok(()),
                }
            }
        }
    }

    /// Sets a run's points into the band's open frame buffer; a point
    /// outside it is dropped and counted.
    fn ingest_points(&self, inner: &mut Inner, band: u16, points: &[PointRecord<f32>]) {
        let bw = inner.writers.entry(band).or_default();
        if bw.skipping.is_some() {
            return;
        }
        let mut dropped = 0u64;
        match &mut bw.frame {
            Some(f) => {
                let c = f.info.cells;
                for p in points {
                    if c.contains(p.cell) {
                        let idx = (p.cell.row - c.row_min) as usize * c.width() as usize
                            + (p.cell.col - c.col_min) as usize;
                        f.values[idx] = Some(p.value);
                    } else {
                        dropped += 1;
                    }
                }
            }
            None => dropped = points.len() as u64,
        }
        if dropped > 0 {
            inner.totals.dropped_points += dropped;
            if let Some(m) = self.metrics() {
                m.dropped_points.add(dropped);
            }
        }
    }

    fn ingest_marker(&self, inner: &mut Inner, band: u16, marker: &Marker) -> Result<()> {
        match marker {
            Marker::SectorStart(info) => {
                self.flush_open_frame(inner, band)?;
                let bw = inner.writers.entry(band).or_default();
                bw.sector = Some(info.clone());
                bw.seen_frames.clear();
                bw.skipping = None;
                // Delta chains never cross a sector boundary.
                bw.chains.clear();
                inner
                    .index
                    .entry((band, info.sector_id))
                    .or_insert_with(|| SectorEntry { info: info.clone(), frames: BTreeMap::new() })
                    .info = info.clone();
                self.append_record(inner, &encode_sector_record(info)?)?;
            }
            Marker::FrameStart(fi) => {
                self.flush_open_frame(inner, band)?;
                let bw = inner.writers.entry(band).or_default();
                bw.skipping = None;
                if bw.sector.is_none() {
                    // No sector context (its SectorStart was lost):
                    // the frame cannot be georeferenced, drop it.
                    bw.skipping = Some(fi.frame_id);
                } else if bw.seen_frames.contains(&fi.frame_id) {
                    bw.skipping = Some(fi.frame_id);
                } else {
                    let n = fi.cells.len() as usize;
                    bw.frame = Some(FrameBuf { info: *fi, values: vec![None; n] });
                }
            }
            Marker::FrameEnd(_) => {
                let bw = inner.writers.entry(band).or_default();
                if bw.skipping.take().is_some() {
                    return Ok(());
                }
                self.flush_open_frame(inner, band)?;
            }
            Marker::SectorEnd(_) => {
                self.flush_open_frame(inner, band)?;
                let bw = inner.writers.entry(band).or_default();
                bw.sector = None;
                bw.skipping = None;
            }
        }
        Ok(())
    }

    /// Seals the open group with a commit (a graceful flush is a
    /// durability point).
    pub fn flush(&self) -> Result<()> {
        let mut inner = lock(&self.inner);
        self.commit_locked(&mut inner, false)
    }

    /// Runs one write on the active segment, creating the next segment
    /// (magic first) when none is open. Any error poisons the writer:
    /// a torn record may now end the segment, and a commit appended
    /// after it would never be trusted, so the archive refuses every
    /// later write until it is reopened.
    fn write<T>(
        &self,
        inner: &mut Inner,
        op: impl FnOnce(&mut SegmentWriter) -> Result<T>,
    ) -> Result<T> {
        if inner.poisoned {
            return Err(CoreError::Storage(
                "archive writer failed earlier; reopen the archive".into(),
            ));
        }
        if inner.writer.is_none() {
            let id = inner.next_segment;
            match SegmentWriter::create(self.cfg.vfs.as_ref(), &self.cfg.dir, id) {
                Ok(w) => {
                    inner.next_segment = id + 1;
                    let path = segment_path(&self.cfg.dir, id);
                    inner.segments.insert(id, SegmentMeta { path, bytes: w.bytes(), frames: 0 });
                    inner.writer = Some(w);
                }
                Err(e) => {
                    inner.poisoned = true;
                    return Err(e);
                }
            }
        }
        let Some(w) = inner.writer.as_mut() else {
            return Err(CoreError::Storage("no active segment writer".into()));
        };
        let res = op(w);
        let (id, bytes) = (w.id(), w.bytes());
        // Byte retention accounting sees the in-progress segment.
        if let Some(meta) = inner.segments.get_mut(&id) {
            meta.bytes = bytes;
        }
        inner.poisoned = res.is_err();
        res
    }

    /// Appends one encoded record to the active segment, returning the
    /// offset it starts at; it stays unsealed until the next commit.
    fn append_record(&self, inner: &mut Inner, rec: &[u8]) -> Result<u64> {
        let at = self.write(inner, |w| w.append_raw(rec))?;
        inner.dirty = true;
        Ok(at)
    }

    /// Seals the open group: appends a `Commit` carrying the current
    /// per-band watermarks, flushes it, and fsyncs under
    /// [`FsyncPolicy::OnCommit`]. `durable` (a segment roll) fsyncs
    /// under either policy, even with nothing left to commit.
    fn commit_locked(&self, inner: &mut Inner, durable: bool) -> Result<()> {
        if !inner.dirty && !durable {
            return Ok(());
        }
        let rec =
            if inner.dirty { Some(encode_commit_record(&band_watermarks(inner))?) } else { None };
        let sync = durable || self.cfg.fsync == FsyncPolicy::OnCommit;
        self.write(inner, |w| {
            if let Some(rec) = &rec {
                w.append_raw(rec)?;
                w.flush()?;
            }
            if sync {
                w.sync()?;
            }
            Ok(())
        })?;
        if let Some(rec) = rec {
            let n = rec.len() as u64;
            inner.totals.wal_bytes += n;
            inner.totals.wal_commits += 1;
            inner.dirty = false;
            inner.group_open_frames = 0;
            if let Some(m) = self.metrics() {
                m.wal_bytes.add(n);
                m.wal_commits.inc();
            }
        }
        Ok(())
    }

    /// Encodes and persists the band's open frame, if any. The whole
    /// frame is encoded into one buffer and appended in one write.
    fn flush_open_frame(&self, inner: &mut Inner, band: u16) -> Result<()> {
        let Some(bw) = inner.writers.get_mut(&band) else { return Ok(()) };
        let Some(frame) = bw.frame.take() else { return Ok(()) };
        let Some(sector) = bw.sector.clone() else { return Ok(()) };
        let schema_range = inner.band_meta.get(&band).map(|s| s.value_range).unwrap_or((0.0, 1.0));
        let cfg = self.cfg.clone();

        // Roll between frames so a frame's tiles share one segment.
        let must_roll = inner.writer.as_ref().is_some_and(|w| w.bytes() >= cfg.max_segment_bytes);
        if must_roll {
            self.roll_segment(inner)?;
        }

        let fi = frame.info;
        let cells = fi.cells;
        let ts = fi.timestamp.value();
        let tw = cfg.tile_width.max(1);
        let tx0 = cells.col_min / tw;
        let tx1 = cells.col_max / tw;
        let mut buf: Vec<u8> = Vec::new();
        // Tile refs staged with payload offsets relative to `buf`.
        let mut staged: Vec<(u64, TileRef)> = Vec::new();
        let mut frame_points = 0u64;
        for tx in tx0..=tx1 {
            let col_lo = (tx * tw).max(cells.col_min);
            let col_hi = ((tx + 1) * tw - 1).min(cells.col_max);
            let stripe_box = CellBox::new(col_lo, cells.row_min, col_hi, cells.row_max);
            let stripe_w = stripe_box.width() as usize;
            let mut vals = Vec::with_capacity(stripe_box.len() as usize);
            for row in cells.row_min..=cells.row_max {
                let base = (row - cells.row_min) as usize * cells.width() as usize;
                let off = (col_lo - cells.col_min) as usize;
                vals.extend_from_slice(&frame.values[base + off..base + off + stripe_w]);
            }
            if vals.iter().all(Option::is_none) {
                continue; // nothing delivered in this stripe
            }
            let bw2 = inner.writers.entry(band).or_default();
            let state = bw2.chains.get(&tx);
            let keyframe = match state {
                None => true,
                Some(s) => {
                    s.lanes.len() != vals.len() || s.since_key + 1 >= cfg.keyframe_interval.max(1)
                }
            };
            let enc = encode_stripe(
                cfg.codec,
                schema_range,
                &vals,
                state.map(|s| s.lanes.as_slice()),
                keyframe,
            )?;
            let since_key = if keyframe { 0 } else { state.map_or(0, |s| s.since_key + 1) };
            bw2.chains.insert(tx, StripeState { lanes: enc.lanes, since_key });
            let header = TileHeader {
                band,
                sector_id: sector.sector_id,
                frame_id: fi.frame_id,
                timestamp: ts,
                tile_x: tx,
                cells: stripe_box,
                codec: cfg.codec,
                keyframe,
                n_points: enc.n_points,
                payload_len: 0, // filled by encode_tile_record
                payload_crc: 0, // filled by encode_tile_record
            };
            let crc = crc32(&enc.payload);
            let (rec, payload_in_rec) = encode_tile_record(&header, &enc.payload)?;
            staged.push((
                buf.len() as u64 + payload_in_rec,
                TileRef {
                    segment: 0, // patched after the append
                    offset: 0,
                    len: enc.payload.len() as u32,
                    tile_x: tx,
                    cells: stripe_box,
                    keyframe,
                    codec: cfg.codec,
                    crc,
                },
            ));
            buf.extend_from_slice(&rec);
            frame_points += u64::from(enc.n_points);
        }
        if staged.is_empty() {
            // An empty frame (all gaps) still counts as seen.
            if let Some(bw) = inner.writers.get_mut(&band) {
                bw.seen_frames.insert(fi.frame_id);
            }
            return Ok(());
        }

        let base = self.append_record(inner, &buf)?;
        let Some(seg_id) = inner.writer.as_ref().map(SegmentWriter::id) else {
            return Err(CoreError::Storage("no active segment writer".into()));
        };
        let frame_bytes = buf.len() as u64;
        let mut tile_refs = Vec::with_capacity(staged.len());
        for (rel, mut t) in staged {
            t.segment = seg_id;
            t.offset = base + rel;
            tile_refs.push(t);
        }

        if let Some(seg) = inner.segments.get_mut(&seg_id) {
            seg.frames += 1;
        }
        let n_tiles = tile_refs.len() as u64;
        inner
            .index
            .entry((band, sector.sector_id))
            .or_insert_with(|| SectorEntry { info: sector.clone(), frames: BTreeMap::new() })
            .frames
            .insert(fi.frame_id, FrameEntry { timestamp: ts, cells, tiles: tile_refs });
        if let Some(bw) = inner.writers.get_mut(&band) {
            bw.seen_frames.insert(fi.frame_id);
        }
        inner.frames_indexed += 1;
        inner.totals.frames += 1;
        inner.totals.tiles += n_tiles;
        inner.totals.bytes_written += frame_bytes;
        inner.totals.raw_bytes += frame_points * 4;
        let wm = inner.watermarks.entry(band).or_insert((0, 0));
        *wm = (*wm).max((sector.sector_id, fi.frame_id));
        if let Some(m) = self.metrics() {
            m.frames_persisted.inc();
            m.tiles_written.add(n_tiles);
            m.bytes_written.add(frame_bytes);
            m.raw_bytes.add(frame_points * 4);
            if let Some(permille) =
                (inner.totals.raw_bytes * 1000).checked_div(inner.totals.bytes_written)
            {
                m.compression_ratio_permille.set(permille);
            }
        }
        inner.group_open_frames += 1;
        if inner.group_open_frames >= cfg.group_commit_frames.max(1) {
            self.commit_locked(inner, false)?;
        }
        self.enforce_retention(inner)?;
        Ok(())
    }

    /// Closes the active segment and opens the next one, re-emitting
    /// band and open-sector metadata so the new segment is
    /// self-describing, and resetting every delta chain so chains never
    /// cross segment boundaries. The closing segment ends on a commit
    /// and is fsynced under either policy before the next one begins.
    fn roll_segment(&self, inner: &mut Inner) -> Result<()> {
        self.commit_locked(inner, true)?;
        inner.writer = None;
        for bw in inner.writers.values_mut() {
            bw.chains.clear();
        }
        let metas: Vec<StreamSchema> = inner.band_meta.values().cloned().collect();
        let sectors: Vec<SectorInfo> =
            inner.writers.values().filter_map(|bw| bw.sector.clone()).collect();
        for schema in &metas {
            self.append_record(inner, &encode_band_record(schema)?)?;
        }
        for info in &sectors {
            self.append_record(inner, &encode_sector_record(info)?)?;
        }
        Ok(())
    }

    /// Evicts oldest closed segments while over the retention budget.
    fn enforce_retention(&self, inner: &mut Inner) -> Result<()> {
        loop {
            let live_bytes: u64 = inner.segments.values().map(|s| s.bytes).sum();
            let over_bytes = self.cfg.retention_max_bytes.is_some_and(|max| live_bytes > max);
            let over_frames =
                self.cfg.retention_max_frames.is_some_and(|max| inner.frames_indexed > max);
            if !over_bytes && !over_frames {
                return Ok(());
            }
            let active = inner.writer.as_ref().map(SegmentWriter::id);
            let Some((&victim, _)) = inner.segments.iter().find(|(id, _)| Some(**id) != active)
            else {
                return Ok(()); // only the active segment remains
            };
            let Some(meta) = inner.segments.remove(&victim) else { return Ok(()) };
            // Replays opened before this point hold their own file
            // handles; unlinking is safe for them (unix semantics).
            self.cfg
                .vfs
                .remove_file(&meta.path)
                .map_err(|e| CoreError::Storage(format!("evict {}: {e}", meta.path.display())))?;
            let mut removed_frames = 0u64;
            inner.index.retain(|_, entry| {
                entry.frames.retain(|_, fe| {
                    let gone = fe.tiles.first().is_some_and(|t| t.segment == victim);
                    if gone {
                        removed_frames += 1;
                    }
                    !gone
                });
                !entry.frames.is_empty()
            });
            inner.frames_indexed = inner.frames_indexed.saturating_sub(removed_frames);
            inner.totals.evicted_segments += 1;
            if let Some(m) = self.metrics() {
                m.evicted_segments.inc();
                m.segments.set(inner.segments.len() as u64);
            }
        }
    }

    /// Highest `(sector_id, frame_id)` persisted for a band: the splice
    /// watermark a hybrid query hands off at.
    pub fn watermark(&self, band: u16) -> Option<(u64, u64)> {
        lock(&self.inner).watermarks.get(&band).copied()
    }

    /// The schema bound to a band, if any.
    pub fn band_schema(&self, band: u16) -> Option<StreamSchema> {
        lock(&self.inner).band_meta.get(&band).cloned()
    }

    /// Resolves a stream name to its band id.
    pub fn band_of(&self, source: &str) -> Option<u16> {
        lock(&self.inner).band_meta.values().find(|s| s.name == source).map(|s| s.band)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ArchiveStats {
        let inner = lock(&self.inner);
        let live_closed: u64 = inner.segments.values().map(|s| s.bytes).sum();
        let t = &inner.totals;
        ArchiveStats {
            segments: inner.segments.len() as u64,
            live_bytes: live_closed,
            bytes_written: t.bytes_written,
            raw_bytes: t.raw_bytes,
            frames: inner.frames_indexed,
            frames_persisted: t.frames,
            tiles: t.tiles,
            evicted_segments: t.evicted_segments,
            dropped_points: t.dropped_points,
            compression_ratio: if t.bytes_written == 0 {
                0.0
            } else {
                t.raw_bytes as f64 / t.bytes_written as f64
            },
            wal_bytes: t.wal_bytes,
            wal_commits: t.wal_commits,
            recovery: inner.recovery.clone(),
        }
    }

    /// Plans a replay: snapshots the index slice for `band` over the
    /// half-open timestamp window `[lo, hi)` and optional `region`
    /// (source CRS), selecting only tiles whose stripes intersect the
    /// region (restriction pushdown) plus the chain prefixes needed to
    /// decode them, and opens the referenced segment files (so eviction
    /// cannot invalidate the snapshot).
    pub(crate) fn plan_replay(
        &self,
        band: u16,
        lo: Option<i64>,
        hi: Option<i64>,
        region: Option<&Rect>,
    ) -> Result<ReplayPlan> {
        let inner = lock(&self.inner);
        let schema = inner.band_meta.get(&band).cloned().ok_or_else(|| {
            CoreError::Storage(format!("band {band} is not bound to the archive"))
        })?;
        let (lo, hi) = (lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX));
        let mut sectors = Vec::new();
        let mut files: HashMap<u64, Arc<dyn VfsFile>> = HashMap::new();
        for ((b, _), entry) in inner.index.range((band, 0)..=(band, u64::MAX)) {
            debug_assert_eq!(*b, band);
            let emit_box = match region {
                None => None,
                Some(r) => match entry.info.lattice.footprint(r) {
                    Some(fb) => Some(fb),
                    None => continue, // sector disjoint from the region
                },
            };
            let frames: Vec<(&u64, &FrameEntry)> = entry.frames.iter().collect();
            let emit_flags: Vec<bool> =
                frames.iter().map(|(_, fe)| fe.timestamp >= lo && fe.timestamp < hi).collect();
            let Some(first_emit) = emit_flags.iter().position(|&e| e) else { continue };
            let Some(last_emit) = emit_flags.iter().rposition(|&e| e) else { continue };
            let selected = |t: &TileRef| match emit_box {
                None => true,
                Some(eb) => t.cells.col_min <= eb.col_max && t.cells.col_max >= eb.col_min,
            };
            // Chain prefix: per selected stripe, back up from the first
            // emitted frame to its latest keyframe.
            let mut start = first_emit;
            let stripes: HashSet<u32> = frames[..=last_emit]
                .iter()
                .flat_map(|(_, fe)| fe.tiles.iter())
                .filter(|t| selected(t))
                .map(|t| t.tile_x)
                .collect();
            for &tx in &stripes {
                let mut key_at = None;
                for (i, (_, fe)) in frames[..=first_emit].iter().enumerate().rev() {
                    if let Some(t) = fe.tiles.iter().find(|t| t.tile_x == tx) {
                        if t.keyframe {
                            key_at = Some(i);
                            break;
                        }
                    }
                }
                start = start.min(key_at.unwrap_or(0));
            }
            let mut planned_frames = Vec::new();
            for (i, (fid, fe)) in frames.iter().enumerate().skip(start) {
                if i > last_emit {
                    break;
                }
                let tiles: Vec<TileRef> = {
                    let mut ts: Vec<TileRef> =
                        fe.tiles.iter().filter(|t| selected(t)).copied().collect();
                    ts.sort_by_key(|t| t.tile_x);
                    ts
                };
                if tiles.is_empty() {
                    continue;
                }
                for t in &tiles {
                    if let std::collections::hash_map::Entry::Vacant(v) = files.entry(t.segment) {
                        let Some(seg) = inner.segments.get(&t.segment) else {
                            return Err(CoreError::Storage(format!(
                                "segment {} referenced by index but unknown",
                                t.segment
                            )));
                        };
                        let f = self.cfg.vfs.open_read(&seg.path).map_err(|e| {
                            CoreError::Storage(format!("open {}: {e}", seg.path.display()))
                        })?;
                        v.insert(Arc::from(f));
                    }
                }
                planned_frames.push(PlannedFrame {
                    frame_id: **fid,
                    timestamp: fe.timestamp,
                    cells: fe.cells,
                    tiles,
                    emit: emit_flags[i],
                });
            }
            if planned_frames.iter().any(|f| f.emit) {
                sectors.push(PlannedSector {
                    info: entry.info.clone(),
                    emit_box,
                    frames: planned_frames,
                });
            }
        }
        // Buffered appends must be visible to the opened read handles
        // (and the flush commits the open group).
        drop(inner);
        self.flush()?;
        Ok(ReplayPlan { band, schema, sectors, files })
    }

    /// Crash recovery, run by [`Archive::open`]. One rule per segment:
    /// keep the CRC-valid prefix up to the end of its last `Commit`,
    /// truncate the rest and fsync the cut; remove a segment with no
    /// commit (born inside the open group, or torn before its magic was
    /// complete). A file in another format fails the open and is left
    /// untouched. The index is rebuilt from the committed records, and
    /// per-band watermarks are max-merged with the commits' watermarks
    /// (the newest dominates: they only grow). A second open finds
    /// every segment ending on a commit, so recovery is idempotent.
    fn recover(&self) -> Result<()> {
        let vfs = self.cfg.vfs.as_ref();
        let mut inner = lock(&self.inner);
        let mut report = RecoveryReport::default();
        let err = |op: &str, p: &Path, e: std::io::Error| {
            CoreError::Storage(format!("recovery: {op} {}: {e}", p.display()))
        };
        // Scan everything before touching anything: a refused file
        // leaves the whole directory as it was.
        let scans = existing_segments(vfs, &self.cfg.dir)?
            .into_iter()
            .map(|(id, path)| Ok((id, scan_segment(vfs, &path)?, path)))
            .collect::<Result<Vec<_>>>()?;
        for (id, scan, path) in scans {
            let file_len = scan.valid_len + scan.discarded_bytes;
            let mut records = scan.records;
            let uncommitted = records.split_off(scan.committed_records);
            report.frames_discarded += count_frames(&uncommitted);
            report.torn_tails += u64::from(scan.torn_tail);
            report.corrupt_records += scan.corrupt_records;
            report.bytes_discarded += file_len - scan.committed_len;
            if scan.committed_len == 0 {
                report.segments_removed += 1;
                vfs.remove_file(&path).map_err(|e| err("remove", &path, e))?;
                continue;
            }
            if file_len > scan.committed_len {
                report.segments_truncated += 1;
                report.frames_recovered += count_frames(&records);
                vfs.truncate(&path, scan.committed_len).map_err(|e| err("truncate", &path, e))?;
                vfs.open_append(&path)
                    .and_then(|mut f| f.sync())
                    .map_err(|e| err("sync", &path, e))?;
            }
            let mut seg_frames = 0u64;
            for rec in records {
                match rec {
                    Record::Band(schema) => {
                        inner.band_meta.insert(schema.band, schema);
                    }
                    Record::Sector(info) => {
                        inner.index.entry((info.band, info.sector_id)).or_insert_with(|| {
                            SectorEntry { info: info.clone(), frames: BTreeMap::new() }
                        });
                    }
                    Record::Tile { header: h, payload_offset } => {
                        let entry = inner.index.entry((h.band, h.sector_id)).or_insert_with(|| {
                            SectorEntry {
                                // Orphan tile (its SectorMeta was in a
                                // corrupted record): synthesize minimal
                                // info so the tile stays reachable.
                                info: SectorInfo {
                                    sector_id: h.sector_id,
                                    lattice: geostreams_geo::LatticeGeoref::north_up(
                                        geostreams_geo::Crs::LatLon,
                                        Rect::new(0.0, 0.0, 1.0, 1.0),
                                        h.cells.col_max + 1,
                                        h.cells.row_max + 1,
                                    ),
                                    band: h.band,
                                    organization: geostreams_core::Organization::RowByRow,
                                    timestamp: geostreams_core::model::Timestamp::new(h.timestamp),
                                },
                                frames: BTreeMap::new(),
                            }
                        });
                        let tref = TileRef {
                            segment: id,
                            offset: payload_offset,
                            len: h.payload_len,
                            tile_x: h.tile_x,
                            cells: h.cells,
                            keyframe: h.keyframe,
                            codec: h.codec,
                            crc: h.payload_crc,
                        };
                        let frame = entry.frames.entry(h.frame_id).or_insert_with(|| {
                            seg_frames += 1;
                            FrameEntry { timestamp: h.timestamp, cells: h.cells, tiles: Vec::new() }
                        });
                        frame.cells = union_cells(frame.cells, h.cells);
                        frame.tiles.push(tref);
                        inner.totals.tiles += 1;
                        inner.totals.raw_bytes += u64::from(h.n_points) * 4;
                        let wm = inner.watermarks.entry(h.band).or_insert((0, 0));
                        *wm = (*wm).max((h.sector_id, h.frame_id));
                    }
                    // A commit's watermark runs ahead of the rebuilt
                    // index only when retention evicted the frames
                    // after the commit; the max keeps splice handoff
                    // monotone.
                    Record::Commit(wms) => {
                        for w in wms {
                            let entry = inner.watermarks.entry(w.band).or_insert((0, 0));
                            *entry = (*entry).max((w.sector, w.frame));
                        }
                    }
                }
            }
            inner.totals.bytes_written += scan.committed_len;
            inner.frames_indexed += seg_frames;
            inner.totals.frames += seg_frames;
            inner
                .segments
                .insert(id, SegmentMeta { path, bytes: scan.committed_len, frames: seg_frames });
            inner.next_segment = inner.next_segment.max(id + 1);
        }

        report.watermarks = band_watermarks(&inner);
        inner.recovery = report;
        Ok(())
    }
}

impl ReplayProvider for Archive {
    fn estimate(&self, source: &str, lo: Option<i64>, hi: Option<i64>) -> Option<ReplayEstimate> {
        let inner = lock(&self.inner);
        let band = inner.band_meta.values().find(|s| s.name == source)?.band;
        let (lo, hi) = (lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX));
        let mut est = ReplayEstimate::default();
        for (_, entry) in inner.index.range((band, 0)..=(band, u64::MAX)) {
            for fe in entry.frames.values() {
                if fe.timestamp >= lo && fe.timestamp < hi {
                    est.frames += 1;
                    est.tiles += fe.tiles.len() as u64;
                    est.bytes += fe.tiles.iter().map(|t| u64::from(t.len)).sum::<u64>();
                }
            }
        }
        Some(est)
    }
}

/// Replay snapshot handed to [`crate::replay::ArchiveReplay`].
pub(crate) struct ReplayPlan {
    pub(crate) band: u16,
    pub(crate) schema: StreamSchema,
    pub(crate) sectors: Vec<PlannedSector>,
    pub(crate) files: HashMap<u64, Arc<dyn VfsFile>>,
}

pub(crate) struct PlannedSector {
    pub(crate) info: SectorInfo,
    pub(crate) emit_box: Option<CellBox>,
    pub(crate) frames: Vec<PlannedFrame>,
}

pub(crate) struct PlannedFrame {
    pub(crate) frame_id: u64,
    pub(crate) timestamp: i64,
    pub(crate) cells: CellBox,
    pub(crate) tiles: Vec<TileRef>,
    pub(crate) emit: bool,
}

fn union_cells(a: CellBox, b: CellBox) -> CellBox {
    CellBox::new(
        a.col_min.min(b.col_min),
        a.row_min.min(b.row_min),
        a.col_max.max(b.col_max),
        a.row_max.max(b.row_max),
    )
}

fn existing_segments(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let names = vfs
        .read_dir_names(dir)
        .map_err(|e| CoreError::Storage(format!("read {}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for name in names {
        if let Some(id) = parse_segment_id(&name) {
            out.push((id, dir.join(&name)));
        }
    }
    out.sort();
    Ok(out)
}

/// The per-band watermarks, in band order.
fn band_watermarks(inner: &Inner) -> Vec<BandWatermark> {
    let mut wms: Vec<BandWatermark> = inner
        .watermarks
        .iter()
        .map(|(&band, &(sector, frame))| BandWatermark { band, sector, frame })
        .collect();
    wms.sort_by_key(|w| w.band);
    wms
}

/// Distinct frames among a run of records (a frame's tiles are
/// appended contiguously).
fn count_frames(records: &[Record]) -> u64 {
    let mut last = None;
    let mut n = 0;
    for rec in records {
        if let Record::Tile { header: h, .. } = rec {
            let key = (h.band, h.sector_id, h.frame_id);
            n += u64::from(last != Some(key));
            last = Some(key);
        }
    }
    n
}
