//! Neighborhood (focal) operations (§1: "perform different types of
//! neighborhood operations and spatial transforms on image data").
//!
//! A focal transform recomputes every point from its `k × k`
//! neighborhood — smoothing, edge detection, morphological filters. Like
//! the 1/k downsampler, a streaming implementation over a row-by-row
//! stream needs to buffer only a band of rows (the kernel height), never
//! the frame: the operator emits row `r` once row `r + k/2` has
//! completed, using the scan-sector metadata to flush the trailing rows
//! at `SectorEnd` with clamped borders. The band is the row window of
//! `model::rows`, which re-projection runs too; input is read
//! a run at a time and each output row leaves as one run.

use crate::model::chunk::RunQueue;
use crate::model::rows::{RowSchedule, RowWindow};
use crate::model::{
    Chunk, ChunkOrMarker, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord, SectorInfo,
    StreamSchema, Timestamp, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox};
use geostreams_raster::resample::SampleSource;
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};

/// The focal function applied to each neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FocalFunc {
    /// Box mean (smoothing).
    Mean,
    /// Neighborhood minimum (morphological erosion).
    Min,
    /// Neighborhood maximum (morphological dilation).
    Max,
    /// Neighborhood median (despeckling).
    Median,
    /// Gradient magnitude via Sobel operators (always 3×3).
    Sobel,
    /// Discrete Laplacian (always 3×3), shifted so flat areas map to 0.
    Laplacian,
}

impl FocalFunc {
    /// Parses the textual name used by the query language.
    pub fn from_name(s: &str) -> Option<FocalFunc> {
        Some(match s.to_ascii_lowercase().as_str() {
            "mean" | "smooth" | "box" => FocalFunc::Mean,
            "min" | "erode" => FocalFunc::Min,
            "max" | "dilate" => FocalFunc::Max,
            "median" => FocalFunc::Median,
            "sobel" | "edges" => FocalFunc::Sobel,
            "laplacian" => FocalFunc::Laplacian,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            FocalFunc::Mean => "mean",
            FocalFunc::Min => "min",
            FocalFunc::Max => "max",
            FocalFunc::Median => "median",
            FocalFunc::Sobel => "sobel",
            FocalFunc::Laplacian => "laplacian",
        }
    }

    /// Whether the kernel size is fixed at 3 regardless of the request.
    pub fn fixed_3x3(self) -> bool {
        matches!(self, FocalFunc::Sobel | FocalFunc::Laplacian)
    }

    /// The kernel size the operator runs for a requested `k`: 3 for
    /// Sobel and Laplacian, else `k` made odd and at least 3.
    pub fn kernel_size(self, k: u32) -> u32 {
        if self.fixed_3x3() {
            3
        } else {
            k.max(3) | 1
        }
    }
}

/// The streaming focal operator.
pub struct FocalTransform<S: GeoStream> {
    input: S,
    func: FocalFunc,
    /// Kernel size (odd; ≥ 3).
    k: u32,
    /// The band schedule of the last sector height seen.
    schedule: Option<RowSchedule>,
    window: RowWindow<S::V>,
    /// The open sector.
    sector: Option<SectorInfo>,
    /// Timestamp of the last input frame opened: the output frames'.
    timestamp: Timestamp,
    queue: RunQueue<S::V>,
    scratch: Vec<f64>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> FocalTransform<S> {
    /// Creates a focal transform with kernel size `k` (forced odd, ≥ 3;
    /// Sobel/Laplacian always use 3).
    pub fn new(input: S, func: FocalFunc, k: u32) -> Self {
        let k = func.kernel_size(k);
        let mut schema = input.schema().renamed(format!("focal[{} {k}x{k}]", func.name()));
        if matches!(func, FocalFunc::Sobel) {
            schema.value_range = (0.0, schema.value_range.1 - schema.value_range.0);
        } else if matches!(func, FocalFunc::Laplacian) {
            let span = schema.value_range.1 - schema.value_range.0;
            schema.value_range = (-4.0 * span, 4.0 * span);
        }
        FocalTransform {
            input,
            func,
            k,
            schedule: None,
            window: RowWindow::new(),
            sector: None,
            timestamp: Timestamp::default(),
            queue: RunQueue::new(),
            scratch: Vec::new(),
            stats: OpStats::default(),
            schema,
        }
    }

    fn on_marker(&mut self, marker: Marker) {
        match marker {
            Marker::SectorStart(si) => {
                let (width, height) = (si.lattice.width, si.lattice.height);
                if self.schedule.as_ref().is_none_or(|s| s.in_height() != height) {
                    self.schedule = Some(RowSchedule::band(height, self.k / 2));
                }
                self.window.open(width, height, &mut self.stats);
                self.timestamp = si.timestamp;
                self.sector = Some(si.clone());
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(si)));
            }
            Marker::FrameStart(fi) => {
                self.timestamp = fi.timestamp;
                self.window.frame_start(&fi.cells, &mut self.stats);
            }
            Marker::FrameEnd(_) => {
                self.window.frame_end();
                self.emit_ready_rows(false);
            }
            Marker::SectorEnd(se) => {
                self.emit_ready_rows(true);
                self.window.close(&mut self.stats);
                self.sector = None;
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(se)));
            }
        }
    }

    /// Emits every output row whose neighborhood is complete (all the
    /// remaining rows when `force`, at sector end, with the trailing
    /// border clamped), each as `FrameStart`, one run and `FrameEnd`.
    /// Output frame ids are `sector_id × height + row`: they depend only
    /// on this sector's input, the property that makes focal
    /// sector-partitionable (a fresh per-morsel instance emits the ids
    /// the serial instance would).
    fn emit_ready_rows(&mut self, force: bool) {
        let (Some(sector), Some(schedule)) = (&self.sector, &self.schedule) else { return };
        let (sector_id, width, height) =
            (sector.sector_id, sector.lattice.width, sector.lattice.height);
        while let Some(row) = self.window.next_ready_row(schedule, force, &mut self.stats) {
            let frame_id = sector_id * u64::from(height) + u64::from(row);
            self.stats.frames_out += 1;
            self.stats.points_out += u64::from(width);
            self.queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                frame_id,
                sector_id,
                timestamp: self.timestamp,
                cells: CellBox::new(0, row, width.saturating_sub(1), row),
                synth_ns: crate::obs::now_ns(),
            })));
            if width > 0 {
                let mut run = Chunk::with_budget(width as usize);
                let rows = &self.window;
                run.points.extend((0..width).map(|col| {
                    let v = evaluate(self.func, self.k, rows, &mut self.scratch, col, row);
                    PointRecord { cell: Cell::new(col, row), value: S::V::from_f64(v) }
                }));
                self.queue.push(ChunkOrMarker::Chunk(run));
            }
            let end = FrameEnd { frame_id, sector_id };
            self.queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(end)));
        }
    }
}

/// The focal function `func` of kernel size `k` at one cell of `rows`.
fn evaluate<V: Pixel>(
    func: FocalFunc,
    k: u32,
    rows: &RowWindow<V>,
    scratch: &mut Vec<f64>,
    col: u32,
    row: u32,
) -> f64 {
    let (c, r, h) = (i64::from(col), i64::from(row), i64::from(k / 2));
    let at = |dc: i64, dr: i64| rows.at(c + dc, r + dr);
    match func {
        FocalFunc::Sobel => {
            let gx = (at(1, -1) + 2.0 * at(1, 0) + at(1, 1))
                - (at(-1, -1) + 2.0 * at(-1, 0) + at(-1, 1));
            let gy = (at(-1, 1) + 2.0 * at(0, 1) + at(1, 1))
                - (at(-1, -1) + 2.0 * at(0, -1) + at(1, -1));
            gx.hypot(gy)
        }
        FocalFunc::Laplacian => at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1) - 4.0 * at(0, 0),
        FocalFunc::Mean => {
            let mut acc = 0.0;
            for dr in -h..=h {
                for dc in -h..=h {
                    acc += at(dc, dr);
                }
            }
            acc / ((k * k) as f64)
        }
        FocalFunc::Min | FocalFunc::Max => {
            let min = matches!(func, FocalFunc::Min);
            let mut best = if min { f64::INFINITY } else { f64::NEG_INFINITY };
            for dr in -h..=h {
                for dc in -h..=h {
                    let v = at(dc, dr);
                    best = if min { best.min(v) } else { best.max(v) };
                }
            }
            best
        }
        FocalFunc::Median => {
            scratch.clear();
            for dr in -h..=h {
                for dc in -h..=h {
                    scratch.push(at(dc, dr));
                }
            }
            scratch.sort_by(f64::total_cmp);
            scratch[scratch.len() / 2]
        }
    }
}

impl<S: GeoStream> GeoStream for FocalTransform<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            if let Some(marker) = self.window.ingest(item, &mut self.stats) {
                self.on_marker(marker);
            }
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

/// A focal operator's k-row sliding band assumes rows arrive in lattice
/// order within well-bracketed frames; the output frame is re-emitted
/// from the band, markers and all.
pub fn focal_contract() -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{Granularity, Parallelism};
    // The row band flushes at `SectorEnd` and output frame ids are
    // seeded from the sector id, so a fresh instance fed one whole
    // sector reproduces the serial output: sector-partitionable.
    crate::ops::ProtocolContract::resynthesizing("focal")
        .with_parallelism(Parallelism::Partitionable, Granularity::Sector)
}

impl<S: GeoStream> FocalTransform<S> {
    /// §3.2: a k×k neighborhood operator buffers a k-row sliding band.
    pub fn declared_blocking(&self) -> crate::ops::BlockingClass {
        crate::ops::BlockingClass::BoundedRows(self.k)
    }

    /// Protocol contract (see [`focal_contract`]).
    pub fn declared_contract(&self) -> crate::ops::ProtocolContract {
        focal_contract()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 16.0, 16.0), w, h)
    }

    fn constant(w: u32, h: u32, v: f64) -> VecStream<f32> {
        VecStream::single_sector("c", lattice(w, h), 0, move |_, _| v)
    }

    fn ramp(w: u32, h: u32) -> VecStream<f32> {
        VecStream::single_sector("r", lattice(w, h), 0, |c, _| f64::from(c))
    }

    #[test]
    fn focal_names_parse() {
        assert_eq!(FocalFunc::from_name("smooth"), Some(FocalFunc::Mean));
        assert_eq!(FocalFunc::from_name("SOBEL"), Some(FocalFunc::Sobel));
        assert_eq!(FocalFunc::from_name("dilate"), Some(FocalFunc::Max));
        assert_eq!(FocalFunc::from_name("nope"), None);
    }

    #[test]
    fn mean_of_constant_is_constant() {
        let mut op = FocalTransform::new(constant(8, 8, 3.5), FocalFunc::Mean, 3);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 64);
        assert!(pts.iter().all(|p| (p.value - 3.5).abs() < 1e-6));
    }

    #[test]
    fn mean_preserves_linear_interior() {
        // Box mean of a linear ramp equals the ramp away from borders.
        let mut op = FocalTransform::new(ramp(10, 6), FocalFunc::Mean, 3);
        let pts = op.drain_points();
        for p in pts.iter().filter(|p| p.cell.col >= 1 && p.cell.col <= 8) {
            assert!(
                (f64::from(p.value) - f64::from(p.cell.col)).abs() < 1e-6,
                "{:?} -> {}",
                p.cell,
                p.value
            );
        }
    }

    #[test]
    fn sobel_detects_a_vertical_edge() {
        let src =
            VecStream::<f32>::single_sector(
                "e",
                lattice(10, 6),
                0,
                |c, _| {
                    if c < 5 {
                        0.0
                    } else {
                        1.0
                    }
                },
            );
        let mut op = FocalTransform::new(src, FocalFunc::Sobel, 3);
        let pts = op.drain_points();
        for p in &pts {
            let on_edge = p.cell.col == 4 || p.cell.col == 5;
            if on_edge {
                assert!(p.value > 2.0, "edge response at {:?}: {}", p.cell, p.value);
            } else if p.cell.col >= 1 && p.cell.col <= 8 {
                assert!(p.value < 1e-6, "flat response at {:?}: {}", p.cell, p.value);
            }
        }
    }

    #[test]
    fn laplacian_of_linear_field_is_zero() {
        let mut op = FocalTransform::new(ramp(10, 6), FocalFunc::Laplacian, 3);
        let pts = op.drain_points();
        for p in pts.iter().filter(|p| p.cell.col >= 1 && p.cell.col <= 8) {
            assert!(p.value.abs() < 1e-6, "{:?}: {}", p.cell, p.value);
        }
    }

    #[test]
    fn min_max_are_morphological() {
        let src = VecStream::<f32>::single_sector("m", lattice(8, 8), 0, |c, r| {
            if c == 4 && r == 4 {
                10.0
            } else {
                1.0
            }
        });
        let mut dilate = FocalTransform::new(src, FocalFunc::Max, 3);
        let pts = dilate.drain_points();
        let hot = pts.iter().filter(|p| p.value == 10.0).count();
        assert_eq!(hot, 9, "dilation grows the peak to its 3x3 neighborhood");
    }

    #[test]
    fn median_removes_salt_noise() {
        let src = VecStream::<f32>::single_sector("n", lattice(9, 9), 0, |c, r| {
            if (c + r) % 7 == 3 && c % 4 == 1 {
                99.0
            } else {
                1.0
            }
        });
        let mut op = FocalTransform::new(src, FocalFunc::Median, 3);
        let pts = op.drain_points();
        assert!(pts.iter().all(|p| p.value == 1.0), "isolated spikes vanish");
    }

    #[test]
    fn buffer_is_a_row_band_not_the_frame() {
        let mut short = FocalTransform::new(ramp(64, 8), FocalFunc::Mean, 5);
        let _ = short.drain_points();
        let mut tall = FocalTransform::new(ramp(64, 64), FocalFunc::Mean, 5);
        let _ = tall.drain_points();
        let ps = short.op_stats().buffered_points_peak;
        let pt = tall.op_stats().buffered_points_peak;
        assert_eq!(ps, pt, "peak buffer independent of frame height");
        assert!(pt <= 64 * 7, "≈ k+2 rows, got {pt}");
    }

    #[test]
    fn output_covers_every_cell_exactly_once() {
        let mut op = FocalTransform::new(ramp(12, 7), FocalFunc::Mean, 3);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 12 * 7);
        let mut seen = std::collections::HashSet::new();
        for p in pts {
            assert!(seen.insert((p.cell.col, p.cell.row)));
        }
    }

    #[test]
    fn even_kernel_is_rounded_up_to_odd() {
        let op = FocalTransform::new(ramp(8, 8), FocalFunc::Mean, 4);
        assert_eq!(op.k, 5);
        let op = FocalTransform::new(ramp(8, 8), FocalFunc::Sobel, 9);
        assert_eq!(op.k, 3, "sobel is fixed 3x3");
    }

    #[test]
    fn multi_sector_state_resets() {
        let src = VecStream::<f32>::sectors("s", lattice(6, 6), 3, |s, _, _| s as f64);
        let mut op = FocalTransform::new(src, FocalFunc::Mean, 3);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 3 * 36);
        // Each sector is constant, so means equal the sector value.
        for (i, p) in pts.iter().enumerate() {
            let sector = i / 36;
            assert!((f64::from(p.value) - sector as f64).abs() < 1e-6);
        }
        assert_eq!(op.op_stats().buffered_points, 0);
    }
}
