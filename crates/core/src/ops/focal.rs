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
    Chunk, ChunkOrMarker, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord, SectorEnd,
    SectorInfo, StreamSchema, Timestamp, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_geo::{Cell, CellBox};
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
    /// The open sector has ended: its remaining rows go out, then this.
    closing: Option<SectorEnd>,
    queue: RunQueue<S::V>,
    kernel: RowKernel,
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
            closing: None,
            queue: RunQueue::default(),
            kernel: RowKernel::default(),
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
                self.window.open(width, height);
                self.timestamp = si.timestamp;
                self.sector = Some(si.clone());
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(si)));
            }
            Marker::FrameStart(fi) => {
                self.timestamp = fi.timestamp;
                self.window.frame_start(&fi.cells, &mut self.stats);
            }
            Marker::FrameEnd(_) => self.window.frame_end(),
            Marker::SectorEnd(se) => self.closing = Some(se),
        }
    }

    /// Emits the next output row whose neighborhood is complete (any
    /// remaining row once the sector is closing, with the trailing
    /// border clamped) as `FrameStart`, one run and `FrameEnd`; once
    /// none is left of a closing sector, its `SectorEnd`. Returns
    /// whether it emitted anything. Output frame ids are `sector_id ×
    /// height + row`: they depend only on this sector's input, the
    /// property that makes focal sector-partitionable (a fresh
    /// per-morsel instance emits the ids the serial instance would).
    fn emit_next(&mut self) -> bool {
        let force = self.closing.is_some();
        let ready = match (&self.sector, &self.schedule) {
            (Some(sector), Some(schedule)) => {
                self.window.next_ready_row(schedule, force).map(|row| {
                    let (w, h) = (sector.lattice.width, sector.lattice.height);
                    (row, sector.sector_id, w, h)
                })
            }
            _ => None,
        };
        if let Some((row, sector_id, width, height)) = ready {
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
                let values = self.kernel.evaluate(self.func, self.k, &self.window, width, row);
                run.points.extend((0..width).zip(values).map(|(col, &v)| PointRecord {
                    cell: Cell::new(col, row),
                    value: S::V::from_f64(v),
                }));
                self.queue.push(ChunkOrMarker::Chunk(run));
            }
            let end = FrameEnd { frame_id, sector_id };
            self.queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(end)));
        } else if let Some(se) = self.closing.take() {
            self.window.close();
            self.sector = None;
            self.queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(se)));
        } else {
            return false;
        }
        self.hold();
        true
    }

    /// Reports what the window, its schedule and the row kernel hold.
    fn hold(&mut self) {
        let schedule = self.schedule.as_ref().map_or(0, RowSchedule::bytes);
        let bytes = self.window.bytes() + schedule + self.kernel.bytes();
        self.stats.hold(self.window.points(), bytes);
    }
}

/// The buffers of the row kernel: the `k` input rows of one output row
/// as border-padded `f64` rows, one accumulator per output column and
/// the taps of one median.
#[derive(Default)]
pub(crate) struct RowKernel {
    padded: Vec<f64>,
    acc: Vec<f64>,
    taps: Vec<f64>,
}

impl RowKernel {
    /// Bytes the kernel's buffers have allocated.
    fn bytes(&self) -> u64 {
        bytes_of::<f64>(self.padded.capacity() + self.acc.capacity() + self.taps.capacity())
    }

    /// Bytes of the buffers of `func` at kernel size `k` (as the operator
    /// runs it) over rows of `width` cells.
    pub(crate) fn bytes_for(func: FocalFunc, k: u32, width: u32) -> u64 {
        let (k, w) = (k as usize, width as usize);
        let taps = if func == FocalFunc::Median { k * k } else { 0 };
        bytes_of::<f64>(k * (w + k - 1) + w + taps)
    }

    /// The focal function `func` of kernel size `k` over output row `row`
    /// of `rows`, `width` input cells wide: one value per column. Each
    /// input row is converted to `f64` once, padded `k / 2` cells each
    /// side with its edge values; a row that never arrived reads as
    /// zeros. Every cell sums, and compares, its taps in one order, `dr`
    /// outer and `dc` inner, so the values keep their bits.
    fn evaluate<V: Pixel>(
        &mut self,
        func: FocalFunc,
        k: u32,
        rows: &RowWindow<V>,
        width: u32,
        row: u32,
    ) -> &[f64] {
        let (w, h, k) = (width as usize, k as usize / 2, k as usize);
        let stride = w + 2 * h;
        self.padded.resize(k * stride, 0.0);
        for (dst, dr) in self.padded.chunks_exact_mut(stride).zip(-(h as i64)..) {
            match rows.row(i64::from(row) + dr) {
                Some(values) => {
                    for (d, v) in dst[h..h + w].iter_mut().zip(values) {
                        *d = v.to_f64();
                    }
                    let (first, last) = (dst[h], dst[h + w - 1]);
                    dst[..h].fill(first);
                    dst[h + w..].fill(last);
                }
                None => dst.fill(0.0),
            }
        }
        // Padded row `i` holds input row `row + i - h`; the tap
        // `(i - h, j - h)` of every column starts at its cell `j`. Sobel
        // and Laplacian are always 3 × 3 (`FocalFunc::kernel_size`).
        let padded = |i: usize| &self.padded[i * stride..][..stride];
        let tap = |i: usize, j: usize| &padded(i)[j..][..w];
        self.acc.clear();
        match func {
            FocalFunc::Sobel => {
                let (n, m, s) = (padded(0), padded(1), padded(2));
                self.acc.extend((0..w).map(|c| {
                    let gx = (n[c + 2] + 2.0 * m[c + 2] + s[c + 2]) - (n[c] + 2.0 * m[c] + s[c]);
                    let gy =
                        (s[c] + 2.0 * s[c + 1] + s[c + 2]) - (n[c] + 2.0 * n[c + 1] + n[c + 2]);
                    gx.hypot(gy)
                }));
            }
            FocalFunc::Laplacian => {
                let (n, m, s) = (padded(0), padded(1), padded(2));
                self.acc
                    .extend((0..w).map(|c| m[c] + m[c + 2] + n[c + 1] + s[c + 1] - 4.0 * m[c + 1]));
            }
            FocalFunc::Mean => {
                self.acc.resize(w, 0.0);
                for i in 0..k {
                    for j in 0..k {
                        for (acc, v) in self.acc.iter_mut().zip(tap(i, j)) {
                            *acc += v;
                        }
                    }
                }
                let n = (k * k) as f64;
                self.acc.iter_mut().for_each(|acc| *acc /= n);
            }
            FocalFunc::Min | FocalFunc::Max => {
                let min = matches!(func, FocalFunc::Min);
                self.acc.resize(w, if min { f64::INFINITY } else { f64::NEG_INFINITY });
                for i in 0..k {
                    for j in 0..k {
                        for (best, &v) in self.acc.iter_mut().zip(tap(i, j)) {
                            *best = if min { best.min(v) } else { best.max(v) };
                        }
                    }
                }
            }
            FocalFunc::Median => {
                let taps = &mut self.taps;
                taps.reserve_exact(k * k);
                self.acc.extend((0..w).map(|c| {
                    taps.clear();
                    for i in 0..k {
                        taps.extend_from_slice(&padded(i)[c..][..k]);
                    }
                    taps.sort_by(f64::total_cmp);
                    taps[taps.len() / 2]
                }));
            }
        }
        &self.acc
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
            // What the last input made ready goes out before the next.
            if self.emit_next() {
                continue;
            }
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            let marker = self.window.ingest(item, &mut self.stats);
            self.hold();
            if let Some(marker) = marker {
                self.on_marker(marker);
                self.hold();
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
