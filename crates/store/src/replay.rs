//! The archive's read path: [`ArchiveReplay`], a `GeoStream`-compatible
//! source that replays an indexed `[t0, t1) × region` slice in lattice
//! order, and [`SpliceStream`], which splices such a backfill onto the
//! live feed exactly once at the recorded watermark.

use crate::archive::{Archive, PlannedFrame, PlannedSector, ReplayPlan};
use crate::codec::decode_stripe;
use crate::vfs::{crc32, VfsFile};
use geostreams_core::exec::{OrderedCollector, WorkerPool};
use geostreams_core::model::chunk::RunQueue;
use geostreams_core::model::{
    ChunkOrMarker, FrameEnd, FrameInfo, Marker, PointRecord, SectorEnd, StreamSchema,
};
use geostreams_core::stats::OpStats;
use geostreams_core::{GeoStream, Result};
use geostreams_geo::{Cell, CellBox, Rect};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// A decoded tile kept in the shared cache: presence flags plus lanes.
pub(crate) struct TileData {
    pub(crate) present: Vec<bool>,
    pub(crate) lanes: Vec<u32>,
}

/// Shared decoded-tile cache with tick-based LRU eviction, keyed by
/// `(band, sector, frame, tile_x)`. Overlapping replays (many
/// late-joining subscribers over one downlink) hit instead of
/// re-reading and re-decoding the chain.
pub(crate) struct TileCache {
    cap: usize,
    tick: u64,
    map: HashMap<TileKey, (u64, Arc<TileData>)>,
}

/// `(band, sector, frame, tile_x)`.
type TileKey = (u16, u64, u64, u32);

impl TileCache {
    pub(crate) fn new(cap: usize) -> TileCache {
        TileCache { cap, tick: 0, map: HashMap::new() }
    }

    fn get(&mut self, key: TileKey) -> Option<Arc<TileData>> {
        self.tick += 1;
        let tick = self.tick;
        let (t, data) = self.map.get_mut(&key)?;
        *t = tick;
        Some(Arc::clone(data))
    }

    fn put(&mut self, key: TileKey, data: Arc<TileData>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, data));
        while self.map.len() > self.cap {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (t, _))| *t) else {
                return;
            };
            self.map.remove(&victim);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `GeoStream` source replaying an archived slice in lattice order.
///
/// Construction snapshots the index and opens the referenced segment
/// files, so concurrent ingest and even segment eviction cannot corrupt
/// the replay. Only tiles intersecting the requested region are decoded
/// (restriction pushdown into the store); cells the downlink never
/// delivered replay as honest gaps.
pub struct ArchiveReplay {
    band: u16,
    schema: StreamSchema,
    value_range: (f64, f64),
    sectors: VecDeque<PlannedSector>,
    current: Option<SectorCursor>,
    files: HashMap<u64, Arc<dyn VfsFile>>,
    cache: Arc<Mutex<TileCache>>,
    metrics: Option<crate::metrics::StoreMetrics>,
    pool: Option<Arc<WorkerPool>>,
    out: RunQueue<f32>,
    stats: OpStats,
    done: bool,
    failed: bool,
}

struct SectorCursor {
    sector_id: u64,
    emit_box: Option<CellBox>,
    frames: VecDeque<PlannedFrame>,
    chains: HashMap<u32, Arc<TileData>>,
}

impl Archive {
    /// Opens a replay of `band` over `[lo, hi)` (`None` = unbounded)
    /// restricted to `region` in the source CRS.
    pub fn replay(
        &self,
        band: u16,
        lo: Option<i64>,
        hi: Option<i64>,
        region: Option<&Rect>,
    ) -> Result<ArchiveReplay> {
        let plan = self.plan_replay(band, lo, hi, region)?;
        Ok(ArchiveReplay::from_plan(plan, Arc::clone(&self.cache), self.metrics().cloned()))
    }
}

impl ArchiveReplay {
    pub(crate) fn from_plan(
        plan: ReplayPlan,
        cache: Arc<Mutex<TileCache>>,
        metrics: Option<crate::metrics::StoreMetrics>,
    ) -> ArchiveReplay {
        let value_range = plan.schema.value_range;
        ArchiveReplay {
            band: plan.band,
            schema: plan.schema,
            value_range,
            sectors: plan.sectors.into(),
            current: None,
            files: plan.files,
            cache,
            metrics,
            pool: None,
            out: RunQueue::default(),
            stats: OpStats::default(),
            done: false,
            failed: false,
        }
    }

    /// True when the replay ended on an error rather than exhaustion.
    /// A splice must check this before handing off to live: a failed
    /// backfill means the gap below the watermark was never delivered.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Number of sectors the replay will visit.
    pub fn planned_sectors(&self) -> usize {
        self.sectors.len() + usize::from(self.current.is_some())
    }

    /// Decodes independent tiles of each frame on `pool`. A frame's
    /// tiles share no delta-chain state (chains link equal `tile_x`
    /// across frames), so cache-missed stripes decode concurrently and
    /// merge back in tile order. Payload reads and CRC checks stay on
    /// the replay thread; output and error selection are byte-identical
    /// to the serial path.
    pub fn with_decode_pool(mut self, pool: Arc<WorkerPool>) -> ArchiveReplay {
        self.pool = Some(pool);
        self
    }

    /// Decodes one frame's selected tiles, advancing the delta chains;
    /// returns the decoded stripes when the frame should be emitted.
    ///
    /// Three passes: (1) serial cache probes, payload reads and CRC
    /// checks; (2) chain decodes of the misses — fanned out to the
    /// decode pool when one is attached and more than one tile missed,
    /// inline otherwise (a frame's stripes are chain-independent:
    /// chains link equal `tile_x` across frames, and `tile_x` is
    /// unique within a frame); (3) serial chain advance and stripe
    /// assembly in tile order. Errors surface for the first failing
    /// tile in tile order on both decode paths.
    fn decode_frame(
        &mut self,
        cursor_sector: u64,
        chains: &mut HashMap<u32, Arc<TileData>>,
        frame: &PlannedFrame,
    ) -> Result<Vec<(CellBox, Arc<TileData>)>> {
        struct PendingDecode {
            idx: usize,
            payload: Vec<u8>,
            prev: Option<Arc<TileData>>,
        }
        let mut decoded: Vec<Option<Arc<TileData>>> = vec![None; frame.tiles.len()];
        let mut pending: Vec<PendingDecode> = Vec::new();
        for (idx, t) in frame.tiles.iter().enumerate() {
            let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
            if let Some(d) = lock(&self.cache).get(key) {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                decoded[idx] = Some(d);
                continue;
            }
            if let Some(m) = &self.metrics {
                m.cache_misses.inc();
            }
            let Some(file) = self.files.get(&t.segment) else {
                return Err(geostreams_core::CoreError::Storage(format!(
                    "replay references unopened segment {}",
                    t.segment
                )));
            };
            let mut payload = vec![0u8; t.len as usize];
            file.read_exact_at(&mut payload, t.offset).map_err(|e| {
                geostreams_core::CoreError::Storage(format!(
                    "read segment {} @{}: {e}",
                    t.segment, t.offset
                ))
            })?;
            // Verify the payload against the checksum recorded at
            // write time: a rotted tile must never be decoded into
            // pixels.
            if crc32(&payload) != t.crc {
                if let Some(m) = &self.metrics {
                    m.corruption_detected.inc();
                }
                return Err(geostreams_core::CoreError::Corruption(format!(
                    "tile payload CRC mismatch in segment {} @{} ({} bytes, band {} \
                     sector {} frame {} tile {})",
                    t.segment, t.offset, t.len, self.band, cursor_sector, frame.frame_id, t.tile_x
                )));
            }
            pending.push(PendingDecode { idx, payload, prev: chains.get(&t.tile_x).cloned() });
        }
        match &self.pool {
            Some(pool) if pending.len() > 1 => {
                let order: Vec<usize> = pending.iter().map(|p| p.idx).collect();
                let collector: Arc<OrderedCollector<Result<TileData>>> =
                    Arc::new(OrderedCollector::new());
                for (seq, p) in pending.into_iter().enumerate() {
                    let t = &frame.tiles[p.idx];
                    let (codec, n, keyframe) = (t.codec, t.cells.len() as usize, t.keyframe);
                    let collector = Arc::clone(&collector);
                    pool.submit(move |_| {
                        let res = decode_stripe(
                            codec,
                            &p.payload,
                            n,
                            p.prev.as_deref().map(|d| d.lanes.as_slice()),
                            keyframe,
                        );
                        collector.push(
                            seq as u64,
                            res.map(|d| TileData { present: d.present, lanes: d.lanes }),
                        );
                    });
                }
                for idx in order {
                    let data = Arc::new(collector.wait_next()?);
                    let t = &frame.tiles[idx];
                    let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
                    lock(&self.cache).put(key, Arc::clone(&data));
                    decoded[idx] = Some(data);
                }
            }
            _ => {
                for p in pending {
                    let t = &frame.tiles[p.idx];
                    let dec = decode_stripe(
                        t.codec,
                        &p.payload,
                        t.cells.len() as usize,
                        p.prev.as_deref().map(|d| d.lanes.as_slice()),
                        t.keyframe,
                    )?;
                    let data = Arc::new(TileData { present: dec.present, lanes: dec.lanes });
                    let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
                    lock(&self.cache).put(key, Arc::clone(&data));
                    decoded[p.idx] = Some(data);
                }
            }
        }
        let mut stripes = Vec::with_capacity(frame.tiles.len());
        for (idx, t) in frame.tiles.iter().enumerate() {
            let Some(data) = decoded[idx].take() else {
                return Err(geostreams_core::CoreError::Storage(
                    "tile decode produced no stripe (driver bug)".into(),
                ));
            };
            chains.insert(t.tile_x, Arc::clone(&data));
            stripes.push((t.cells, data));
        }
        Ok(stripes)
    }

    /// Decodes frames into the output queue until its front item can go
    /// out at `budget`: a sector's markers, or a frame's run with the
    /// `FrameEnd` after it.
    fn refill(&mut self, budget: usize) -> Result<()> {
        while !self.out.ready(budget) {
            let Some(cursor) = self.current.as_mut() else {
                let Some(sector) = self.sectors.pop_front() else {
                    self.done = true;
                    return Ok(());
                };
                self.out.push(ChunkOrMarker::Marker(Marker::SectorStart(sector.info.clone())));
                self.current = Some(SectorCursor {
                    sector_id: sector.info.sector_id,
                    emit_box: sector.emit_box,
                    frames: sector.frames.into(),
                    chains: HashMap::new(),
                });
                continue;
            };
            let Some(frame) = cursor.frames.pop_front() else {
                let sector_id = cursor.sector_id;
                self.current = None;
                self.out.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd { sector_id })));
                continue;
            };
            let sector_id = cursor.sector_id;
            let emit_box = cursor.emit_box;
            let mut chains = std::mem::take(&mut cursor.chains);
            let stripes = self.decode_frame(sector_id, &mut chains, &frame)?;
            if let Some(cursor) = self.current.as_mut() {
                cursor.chains = chains;
            }
            if !frame.emit {
                continue; // chain prefix only
            }
            let emit_cells = match emit_box {
                None => Some(frame.cells),
                Some(eb) => frame.cells.intersect(&eb),
            };
            let Some(emit_cells) = emit_cells else { continue };
            self.out.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                frame_id: frame.frame_id,
                sector_id,
                timestamp: geostreams_core::model::Timestamp::new(frame.timestamp),
                cells: emit_cells,
                // The segment format persists no synthesis tick, so a
                // replayed frame is "fresh as of replay": lag measures
                // replay → delivery.
                synth_ns: geostreams_core::obs::now_ns(),
            })));
            let codec = frame.tiles.first().map_or(crate::codec::Codec::Quant16, |t| t.codec);
            // Lattice (row-major) order across the frame's stripes: each
            // stripe row's present cells go straight into the open run,
            // which is opened only for a present cell.
            for row in emit_cells.row_min..=emit_cells.row_max {
                for (cells, data) in &stripes {
                    if row < cells.row_min || row > cells.row_max {
                        continue;
                    }
                    let lo = cells.col_min.max(emit_cells.col_min);
                    let hi = cells.col_max.min(emit_cells.col_max);
                    let start = (row - cells.row_min) as usize * cells.width() as usize
                        + (lo - cells.col_min) as usize;
                    let span = start..start + (hi + 1).saturating_sub(lo) as usize;
                    let (present, lanes) = (&data.present[span.clone()], &data.lanes[span]);
                    let Some(first) = present.iter().position(|&p| p) else { continue };
                    self.out.open_run().extend(
                        (lo..)
                            .zip(present.iter().zip(lanes))
                            .skip(first)
                            .filter(|(_, (&p, _))| p)
                            .map(|(col, (_, &lane))| PointRecord {
                                cell: Cell::new(col, row),
                                value: codec.value(lane, self.value_range),
                            }),
                    );
                }
            }
            self.out.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd {
                frame_id: frame.frame_id,
                sector_id,
            })));
            self.stats.frames_out += 1;
        }
        Ok(())
    }
}

impl GeoStream for ArchiveReplay {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let budget = budget.max(1);
        if !self.done {
            if let Err(e) = self.refill(budget) {
                self.done = true;
                self.failed = true;
                self.out = RunQueue::default();
                self.stats.stalls += 1;
                eprintln!("archive replay error: {e}");
                return None;
            }
        }
        // Tiles decode frame-at-a-time into the queue's runs, so the
        // per-point stats are one add per item.
        let item = self.out.pop(budget)?;
        self.stats.points_out += item.point_count() as u64;
        Some(item)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Splices an archive backfill onto the live feed: emits the whole
/// replay first, then live elements, skipping any live sector at or
/// below the recorded watermark so the seam has no overlap. Wrap the
/// result in `StreamRepair` to also deduplicate frame ids under faulty
/// downlinks.
pub struct SpliceStream {
    replay: Option<ArchiveReplay>,
    live: Box<dyn GeoStream<V = f32> + Send>,
    schema: StreamSchema,
    /// Skip live sectors with `sector_id <= watermark_sector`.
    watermark_sector: Option<u64>,
    skipping_live_sector: bool,
    started: std::time::Instant,
    on_switch: Option<Box<dyn FnOnce(u64) + Send>>,
    stats: OpStats,
    /// Set when the backfill failed: the splice ends rather than hand
    /// off across an unverified gap (live data would silently paper
    /// over the frames the replay never delivered).
    refused: bool,
}

impl SpliceStream {
    /// Builds a splice; `watermark_sector` is the last archived sector
    /// (from [`Archive::watermark`]) and `on_switch` observes the
    /// backfill latency in nanoseconds at the handoff.
    pub fn new(
        replay: ArchiveReplay,
        live: Box<dyn GeoStream<V = f32> + Send>,
        watermark_sector: Option<u64>,
        on_switch: Option<Box<dyn FnOnce(u64) + Send>>,
    ) -> SpliceStream {
        let schema = live.schema().clone();
        SpliceStream {
            replay: Some(replay),
            live,
            schema,
            watermark_sector,
            skipping_live_sector: false,
            started: std::time::Instant::now(),
            on_switch,
            stats: OpStats::default(),
            refused: false,
        }
    }

    /// True when the splice ended by refusing the live handoff after a
    /// failed backfill.
    pub fn refused_handoff(&self) -> bool {
        self.refused
    }

    /// Retires the exhausted replay half. Returns `true` when the
    /// handoff to live is refused because the backfill failed.
    fn finish_replay(&mut self) -> bool {
        let Some(replay) = self.replay.take() else {
            return false;
        };
        if replay.failed() {
            if let Some(m) = &replay.metrics {
                m.splice_refused.inc();
            }
            eprintln!(
                "splice refused: backfill replay of band {} failed before the watermark; \
                 not handing off to live across an unrecovered gap",
                replay.band
            );
            self.refused = true;
            return true;
        }
        if let Some(f) = self.on_switch.take() {
            let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            f(ns);
        }
        false
    }
}

impl GeoStream for SpliceStream {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        if self.refused {
            return None;
        }
        if let Some(replay) = self.replay.as_mut() {
            if let Some(item) = replay.next_chunk(budget) {
                self.stats.points_out += item.point_count() as u64;
                return Some(item);
            }
            if self.finish_replay() {
                return None;
            }
        }
        loop {
            match self.live.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    match &m {
                        Marker::SectorStart(info) => {
                            self.skipping_live_sector =
                                self.watermark_sector.is_some_and(|wm| info.sector_id <= wm);
                        }
                        Marker::SectorEnd(_) if self.skipping_live_sector => {
                            self.skipping_live_sector = false;
                            continue;
                        }
                        _ => {}
                    }
                    if self.skipping_live_sector {
                        continue;
                    }
                    return Some(ChunkOrMarker::Marker(m));
                }
                ChunkOrMarker::Chunk(mut c) => {
                    if self.skipping_live_sector {
                        // The run belongs to a sector at or below the
                        // watermark: drop its points; only a boundary
                        // marker can change the skip state.
                        match c.end.take() {
                            Some(Marker::SectorEnd(_)) => {
                                self.skipping_live_sector = false;
                                c.recycle();
                                continue;
                            }
                            Some(Marker::SectorStart(info)) => {
                                self.skipping_live_sector =
                                    self.watermark_sector.is_some_and(|wm| info.sector_id <= wm);
                                c.recycle();
                                if self.skipping_live_sector {
                                    continue;
                                }
                                return Some(ChunkOrMarker::Marker(Marker::SectorStart(info)));
                            }
                            _ => {
                                c.recycle();
                                continue;
                            }
                        }
                    }
                    // Live sector passes; a trailing SectorStart at or
                    // below the watermark starts a skip and is swallowed.
                    if let Some(Marker::SectorStart(info)) = &c.end {
                        if self.watermark_sector.is_some_and(|wm| info.sector_id <= wm) {
                            self.skipping_live_sector = true;
                            c.end = None;
                        }
                    }
                    self.stats.points_out += c.points.len() as u64;
                    return Some(ChunkOrMarker::Chunk(c));
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}
