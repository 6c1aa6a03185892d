//! Spatio-temporal aggregates over raster streams.
//!
//! §6 of the paper: "We are also investigating the full integration of a
//! spatio-temporal aggregate operator for streaming image data. This
//! operator has been proposed in \[27\] (Zhang, Gertz, Aksoy, ACM-GIS
//! 2004)." This module implements that extension:
//!
//! * [`TemporalAggregate`] — per-cell aggregates over a sliding window of
//!   the last `W` images (sectors); its buffer is `W` grids, which
//!   experiment E6 sweeps;
//! * [`SpatialAggregate`] — one aggregate value per sector over a region
//!   of interest (O(1) state), emitted as a 1×1-lattice GeoStream so the
//!   algebra stays closed.

use crate::model::chunk::RunQueue;
use crate::model::sector::{SectorImage, SectorOut};
use crate::model::{
    ChunkOrMarker, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord, SectorEnd, SectorInfo,
    StreamSchema, Timestamp, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, LatticeGeoref, Region};
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Count of present points.
    Count,
}

impl AggFunc {
    /// Parses the textual name used by the query language.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        Some(match s.to_ascii_lowercase().as_str() {
            "mean" | "avg" => AggFunc::Mean,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "sum" => AggFunc::Sum,
            "count" => AggFunc::Count,
            _ => return None,
        })
    }

    /// Reduces a slice of observations.
    pub fn reduce(self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        match self {
            AggFunc::Mean => values.iter().sum::<f64>() / values.len() as f64,
            AggFunc::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Sum => values.iter().sum(),
            AggFunc::Count => values.len() as f64,
        }
    }
}

/// Sliding-window per-cell temporal aggregate: after each incoming image
/// (sector), emits an image whose cell values aggregate the last `W`
/// images at that cell. Input runs are written into the open sector's
/// image; at `SectorEnd` the window's cells are reduced, oldest image
/// first, a pull budget of them at a time, before the next input is
/// read.
pub struct TemporalAggregate<S: GeoStream> {
    input: S,
    func: AggFunc,
    window: usize,
    lattice: Option<LatticeGeoref>,
    current: Option<SectorImage<f64>>,
    /// The window: front = oldest.
    history: VecDeque<SectorImage<f64>>,
    pending_sector: Option<SectorInfo>,
    /// The window's aggregate going out.
    out: Option<SectorOut>,
    /// One cell's observations, oldest first.
    obs: Vec<f64>,
    queue: RunQueue<f32>,
    next_frame_id: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> TemporalAggregate<S> {
    /// Creates the aggregate over a window of `window ≥ 1` images.
    pub fn new(input: S, func: AggFunc, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one image");
        let schema = input.schema().renamed(format!("agg_time[{func:?} w={window}]"));
        TemporalAggregate {
            input,
            func,
            window,
            lattice: None,
            current: None,
            history: VecDeque::new(),
            pending_sector: None,
            out: None,
            obs: Vec::with_capacity(window),
            queue: RunQueue::default(),
            next_frame_id: 0,
            stats: OpStats::default(),
            schema,
        }
    }

    /// Reports the window's cells and the bytes of its images and the
    /// open one.
    fn hold(&mut self) {
        let images = self.history.iter().chain(&self.current);
        let bytes = images.map(SectorImage::bytes).sum();
        self.stats.hold(self.history.iter().map(SectorImage::cells).sum(), bytes);
    }

    /// Takes one input item: its points into the open image, then its
    /// marker.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        let marker = item.take_run(|run| {
            self.stats.points_in += run.len() as u64;
            if let Some(cur) = &mut self.current {
                cur.ingest(run, Pixel::to_f64);
            }
        });
        match marker {
            Some(Marker::SectorStart(si)) => {
                // Lattice changes reset the window (different geometry
                // cannot aggregate cell-wise).
                if self.lattice != Some(si.lattice) {
                    self.history.clear();
                    self.lattice = Some(si.lattice);
                }
                self.current = Some(SectorImage::new(si.lattice));
                // Remember sector metadata for the emission.
                self.schema.sector_lattice = Some(si.lattice);
                self.pending_sector = Some(si);
            }
            Some(Marker::FrameStart(_)) => self.stats.frames_in += 1,
            Some(Marker::FrameEnd(_)) | None => return,
            Some(Marker::SectorEnd(_)) => {
                if let Some(cur) = self.current.take() {
                    // Evict before inserting so the live buffer never
                    // exceeds `window` images.
                    if self.history.len() == self.window {
                        self.history.pop_front();
                    }
                    self.history.push_back(cur);
                    if let (Some(si), Some(lattice)) = (self.pending_sector.take(), self.lattice) {
                        // The window's aggregate under the identity of `si`.
                        let frame_id = self.next_frame_id;
                        self.next_frame_id += 1;
                        self.stats.frames_out += 1;
                        self.out = Some(SectorOut::open(&mut self.queue, &si, lattice, frame_id));
                    }
                }
            }
        }
        self.hold();
    }
}

impl<S: GeoStream> GeoStream for TemporalAggregate<S> {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            if let Some(out) = &mut self.out {
                let (func, history, obs, stats) =
                    (self.func, &self.history, &mut self.obs, &mut self.stats);
                let done = out.fill(&mut self.queue, budget, |idx| {
                    obs.clear();
                    obs.extend(history.iter().filter_map(|img| img.get(idx)));
                    stats.points_out += u64::from(!obs.is_empty());
                    (!obs.is_empty()).then(|| func.reduce(obs) as f32)
                });
                if done {
                    self.out = None;
                }
                continue;
            }
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            self.ingest_item(item);
        }
        self.queue.pop(budget)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Constant-space accumulator for a spatial aggregate.
#[derive(Debug, Clone, Copy, Default)]
struct ScalarAcc {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl ScalarAcc {
    fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.count += 1;
    }

    fn reduce(&self, func: AggFunc) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match func {
            AggFunc::Mean => self.sum / self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
        }
    }
}

/// Per-sector spatial aggregate over a region of interest: emits one
/// point per sector on a 1×1 lattice centered at the region. Each input
/// run is folded into the sector's accumulator.
pub struct SpatialAggregate<S: GeoStream> {
    input: S,
    func: AggFunc,
    region: Region,
    footprint: Option<geostreams_geo::CellBox>,
    lattice: Option<LatticeGeoref>,
    exact: bool,
    acc: ScalarAcc,
    sector: Option<(u64, Timestamp)>,
    queue: RunQueue<f32>,
    next_frame_id: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> SpatialAggregate<S> {
    /// Creates the aggregate over `region` (stream CRS).
    pub fn new(input: S, func: AggFunc, region: Region) -> Self {
        let schema = input.schema().renamed(format!("agg_space[{func:?}]"));
        let exact = !region.is_rectangular();
        SpatialAggregate {
            input,
            func,
            region,
            footprint: None,
            lattice: None,
            exact,
            acc: ScalarAcc::default(),
            sector: None,
            queue: RunQueue::default(),
            next_frame_id: 0,
            stats: OpStats::default(),
            schema,
        }
    }

    /// Folds a run's points inside the region into the accumulator.
    fn fold_run(&mut self, run: &[PointRecord<S::V>]) {
        self.stats.points_in += run.len() as u64;
        let Some(fp) = self.footprint else { return };
        let exact = match (self.exact, &self.lattice) {
            (false, _) => None,
            (true, Some(lat)) => Some(lat),
            (true, None) => return,
        };
        for p in run {
            if !fp.contains(p.cell)
                || exact.is_some_and(|lat| !self.region.contains(lat.cell_to_world(p.cell)))
            {
                continue;
            }
            self.acc.push(p.value.to_f64());
        }
    }

    /// Takes one input item: its points into the accumulator, then its
    /// marker.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        let marker = item.take_run(|run| self.fold_run(run));
        match marker {
            Some(Marker::SectorStart(si)) => {
                self.footprint = si.lattice.footprint_of_region(&self.region);
                self.lattice = Some(si.lattice);
                self.sector = Some((si.sector_id, si.timestamp));
                self.acc = ScalarAcc::default();
                // Output lattice: a single cell at the region center.
                let bbox = self.region.bbox_clamped(si.lattice.world_bbox());
                let out_lattice = LatticeGeoref::north_up(
                    si.lattice.crs,
                    if bbox.is_empty() { si.lattice.world_bbox() } else { bbox },
                    1,
                    1,
                );
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(SectorInfo {
                    lattice: out_lattice,
                    ..si
                })));
            }
            Some(Marker::FrameStart(_)) => self.stats.frames_in += 1,
            Some(Marker::FrameEnd(_)) | None => {}
            Some(Marker::SectorEnd(se)) => {
                if let Some((sector_id, ts)) = self.sector.take() {
                    let frame_id = self.next_frame_id;
                    self.next_frame_id += 1;
                    self.stats.frames_out += 1;
                    self.queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                        frame_id,
                        sector_id,
                        timestamp: ts,
                        cells: CellBox::new(0, 0, 0, 0),
                        synth_ns: crate::obs::now_ns(),
                    })));
                    let v = self.acc.reduce(self.func);
                    self.stats.points_out += 1;
                    self.queue
                        .open_run()
                        .push(PointRecord { cell: Cell::new(0, 0), value: v as f32 });
                    self.queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd {
                        frame_id,
                        sector_id,
                    })));
                    self.acc = ScalarAcc::default();
                }
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd {
                    sector_id: se.sector_id,
                })));
            }
        }
    }
}

impl<S: GeoStream> GeoStream for SpatialAggregate<S> {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            self.ingest_item(item);
        }
        self.queue.pop(budget)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Aggregates accumulate per-cell or per-sector state that advances on
/// frame boundaries: they need bracketed input and re-emit a fresh
/// marker sequence, but accumulation itself is order-insensitive.
pub fn aggregate_contract(operator: &str) -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{ChunkDiscipline, MarkerEffect, OrderEffect, ProtocolContract};
    ProtocolContract {
        operator: operator.to_string(),
        markers: MarkerEffect::Resynthesize,
        order: OrderEffect::Preserve,
        chunks: ChunkDiscipline::Repack,
        requires_bracketing: true,
        requires_order: false,
        // Windows and accumulators merge state across morsel
        // boundaries: aggregates bound the parallel region.
        parallelism: crate::ops::protocol::Parallelism::BlockingMerge,
        granularity: crate::ops::protocol::Granularity::Sector,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::{Crs, Rect};

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    fn sectors(n: u64) -> VecStream<f32> {
        // Sector s has constant value s at every cell.
        VecStream::sectors("src", lattice(), n, |s, _, _| s as f64)
    }

    #[test]
    fn agg_func_reduction() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(AggFunc::Mean.reduce(&vals), 2.5);
        assert_eq!(AggFunc::Min.reduce(&vals), 1.0);
        assert_eq!(AggFunc::Max.reduce(&vals), 4.0);
        assert_eq!(AggFunc::Sum.reduce(&vals), 10.0);
        assert_eq!(AggFunc::Count.reduce(&vals), 4.0);
        assert_eq!(AggFunc::Mean.reduce(&[]), 0.0);
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Mean));
        assert_eq!(AggFunc::from_name("MAX"), Some(AggFunc::Max));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn temporal_mean_over_window() {
        // Sectors 0,1,2,3 with constant values; window 2 → means 0, .5,
        // 1.5, 2.5.
        let mut op = TemporalAggregate::new(sectors(4), AggFunc::Mean, 2);
        let els = op.drain_elements();
        let mut sector_means = Vec::new();
        let mut acc: Vec<f32> = Vec::new();
        for el in els {
            match el {
                Element::Point(p) => acc.push(p.value),
                Element::SectorEnd(_) => {
                    let mean = acc.iter().sum::<f32>() / acc.len() as f32;
                    sector_means.push(mean);
                    acc.clear();
                }
                _ => {}
            }
        }
        assert_eq!(sector_means.len(), 4);
        assert!((sector_means[0] - 0.0).abs() < 1e-6);
        assert!((sector_means[1] - 0.5).abs() < 1e-6);
        assert!((sector_means[2] - 1.5).abs() < 1e-6);
        assert!((sector_means[3] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn temporal_window_buffer_scales_with_w() {
        let mut w2 = TemporalAggregate::new(sectors(6), AggFunc::Max, 2);
        let _ = w2.drain_points();
        let mut w4 = TemporalAggregate::new(sectors(6), AggFunc::Max, 4);
        let _ = w4.drain_points();
        let p2 = w2.op_stats().buffered_points_peak;
        let p4 = w4.op_stats().buffered_points_peak;
        assert_eq!(p2, 2 * 16);
        assert_eq!(p4, 4 * 16);
    }

    #[test]
    fn temporal_max_tracks_window_maximum() {
        let mut op = TemporalAggregate::new(sectors(5), AggFunc::Max, 3);
        let pts = op.drain_points();
        // Last sector's aggregate equals max(2,3,4)=4 everywhere.
        let last: Vec<f32> = pts[pts.len() - 16..].iter().map(|p| p.value).collect();
        assert!(last.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn spatial_aggregate_single_value_per_sector() {
        // Value = col; region covers cols 0..1 (lon < 2), mean of
        // {0,1} = 0.5 regardless of the sector.
        let src = VecStream::<f32>::sectors("src", lattice(), 3, |_, c, _| f64::from(c));
        let region = Region::Rect(Rect::new(0.0, 0.0, 2.0, 4.0));
        let mut op = SpatialAggregate::new(src, AggFunc::Mean, region);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 3);
        assert!(pts.iter().all(|p| (p.value - 0.5).abs() < 1e-6));
        assert!(pts.iter().all(|p| p.cell == Cell::new(0, 0)));
    }

    #[test]
    fn spatial_aggregate_count_in_region() {
        let src = VecStream::<f32>::sectors("src", lattice(), 1, |_, c, _| f64::from(c));
        let region = Region::Rect(Rect::new(0.0, 0.0, 2.0, 2.0)); // 2x2 cells
        let mut op = SpatialAggregate::new(src, AggFunc::Count, region);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].value, 4.0);
    }

    #[test]
    fn spatial_aggregate_state_is_constant() {
        let src = VecStream::<f32>::sectors("src", lattice(), 4, |_, c, _| f64::from(c));
        let region = Region::Rect(Rect::new(0.0, 0.0, 4.0, 4.0));
        let mut op = SpatialAggregate::new(src, AggFunc::Sum, region);
        let _ = op.drain_points();
        assert_eq!(op.op_stats().buffered_points_peak, 0, "accumulators are O(1)-ish");
    }
}
