//! Neighborhood (focal) operations (§1: "perform different types of
//! neighborhood operations and spatial transforms on image data").
//!
//! A focal transform recomputes every point from its `k × k`
//! neighborhood — smoothing, edge detection, morphological filters. Like
//! the 1/k downsampler, a streaming implementation over a row-by-row
//! stream needs to buffer only a band of rows (the kernel height), never
//! the frame: the operator emits row `r` once row `r + k/2` has
//! completed, using the scan-sector metadata to flush the trailing rows
//! at `SectorEnd` with clamped borders.

use crate::model::{
    pack_elements, ChunkInput, ChunkOrMarker, Element, FrameEnd, FrameInfo, GeoStream, SectorEnd,
    StreamSchema,
};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, LatticeGeoref};
use geostreams_raster::resample::SampleSource;
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
}

/// Sliding band of buffered input rows for the focal window.
struct RowBand<V> {
    rows: VecDeque<Option<Vec<V>>>,
    first_row: u32,
    width: u32,
    height: u32,
}

impl<V: Pixel> RowBand<V> {
    fn new(width: u32, height: u32) -> Self {
        RowBand { rows: VecDeque::new(), first_row: 0, width, height }
    }

    fn set(&mut self, cell: Cell, v: V) -> u64 {
        if cell.row < self.first_row || cell.col >= self.width {
            return 0;
        }
        let mut grown = 0;
        while self.first_row + (self.rows.len() as u32) <= cell.row {
            self.rows.push_back(None);
        }
        let idx = (cell.row - self.first_row) as usize;
        let width = self.width;
        let row_vals = self.rows[idx].get_or_insert_with(|| {
            grown = u64::from(width);
            vec![V::default(); width as usize]
        });
        row_vals[cell.col as usize] = v;
        grown
    }

    fn evict_below(&mut self, row: u32) -> u64 {
        let mut freed = 0;
        while self.first_row < row {
            match self.rows.pop_front() {
                Some(Some(r)) => freed += r.len() as u64,
                Some(None) => {}
                None => break,
            }
            self.first_row += 1;
        }
        freed
    }

    fn buffered(&self) -> u64 {
        self.rows.iter().flatten().map(|r| r.len() as u64).sum()
    }
}

impl<V: Pixel> SampleSource for RowBand<V> {
    fn at(&self, col: i64, row: i64) -> f64 {
        let col = col.clamp(0, i64::from(self.width) - 1) as usize;
        let row = row.clamp(0, i64::from(self.height) - 1) as u32;
        let last = self.first_row + (self.rows.len().max(1) as u32) - 1;
        let row = row.clamp(self.first_row, last);
        match self.rows.get((row - self.first_row) as usize) {
            Some(Some(r)) => r[col].to_f64(),
            _ => 0.0,
        }
    }
}

/// The streaming focal operator.
pub struct FocalTransform<S: GeoStream> {
    input: ChunkInput<S>,
    func: FocalFunc,
    /// Kernel size (odd; ≥ 3).
    k: u32,
    band: Option<RowBand<S::V>>,
    lattice: Option<LatticeGeoref>,
    /// Rows of input fully received (prefix).
    rows_complete: u32,
    /// Next output row to emit.
    cursor: u32,
    sector_id: u64,
    timestamp: crate::model::Timestamp,
    next_frame_id: u64,
    queue: VecDeque<Element<S::V>>,
    scratch: Vec<f64>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> FocalTransform<S> {
    /// Creates a focal transform with kernel size `k` (forced odd, ≥ 3;
    /// Sobel/Laplacian always use 3).
    pub fn new(input: S, func: FocalFunc, k: u32) -> Self {
        let k = if func.fixed_3x3() { 3 } else { (k.max(3)) | 1 };
        let mut schema = input.schema().renamed(format!("focal[{} {k}x{k}]", func.name()));
        if matches!(func, FocalFunc::Sobel) {
            schema.value_range = (0.0, schema.value_range.1 - schema.value_range.0);
        } else if matches!(func, FocalFunc::Laplacian) {
            let span = schema.value_range.1 - schema.value_range.0;
            schema.value_range = (-4.0 * span, 4.0 * span);
        }
        FocalTransform {
            input: ChunkInput::new(input),
            func,
            k,
            band: None,
            lattice: None,
            rows_complete: 0,
            cursor: 0,
            sector_id: 0,
            timestamp: crate::model::Timestamp::default(),
            next_frame_id: 0,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            stats: OpStats::default(),
            schema,
        }
    }

    /// Kernel half-width.
    fn half(&self) -> u32 {
        self.k / 2
    }

    /// Evaluates the focal function at one cell.
    fn evaluate(&mut self, col: u32, row: u32) -> f64 {
        let Some(band) = self.band.as_ref() else { return 0.0 };
        let (c, r) = (i64::from(col), i64::from(row));
        match self.func {
            FocalFunc::Sobel => {
                let g = |dc: i64, dr: i64| band.at(c + dc, r + dr);
                let gx =
                    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1));
                let gy =
                    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1));
                gx.hypot(gy)
            }
            FocalFunc::Laplacian => {
                band.at(c - 1, r) + band.at(c + 1, r) + band.at(c, r - 1) + band.at(c, r + 1)
                    - 4.0 * band.at(c, r)
            }
            FocalFunc::Mean => {
                let h = i64::from(self.half());
                let mut acc = 0.0;
                for dr in -h..=h {
                    for dc in -h..=h {
                        acc += band.at(c + dc, r + dr);
                    }
                }
                acc / ((self.k * self.k) as f64)
            }
            FocalFunc::Min | FocalFunc::Max => {
                let h = i64::from(self.half());
                let mut best = if matches!(self.func, FocalFunc::Min) {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                for dr in -h..=h {
                    for dc in -h..=h {
                        let v = band.at(c + dc, r + dr);
                        best = if matches!(self.func, FocalFunc::Min) {
                            best.min(v)
                        } else {
                            best.max(v)
                        };
                    }
                }
                best
            }
            FocalFunc::Median => {
                let h = i64::from(self.half());
                self.scratch.clear();
                for dr in -h..=h {
                    for dc in -h..=h {
                        self.scratch.push(band.at(c + dc, r + dr));
                    }
                }
                self.scratch.sort_by(f64::total_cmp);
                self.scratch[self.scratch.len() / 2]
            }
        }
    }

    /// Emits every output row whose neighborhood is complete (`force` at
    /// sector end clamps the trailing border).
    fn emit_ready_rows(&mut self, force: bool) {
        let Some(lattice) = self.lattice else { return };
        let h = self.half();
        while self.cursor < lattice.height {
            let needed_last = self.cursor + h;
            let ready =
                force || self.rows_complete > needed_last || self.rows_complete >= lattice.height;
            if !ready {
                break;
            }
            let row = self.cursor;
            let frame_id = self.next_frame_id;
            self.next_frame_id += 1;
            self.stats.frames_out += 1;
            self.queue.push_back(Element::FrameStart(FrameInfo {
                frame_id,
                sector_id: self.sector_id,
                timestamp: self.timestamp,
                cells: CellBox::new(0, row, lattice.width.saturating_sub(1), row),
                synth_ns: crate::obs::now_ns(),
            }));
            for col in 0..lattice.width {
                let v = self.evaluate(col, row);
                self.stats.points_out += 1;
                self.queue.push_back(Element::point(Cell::new(col, row), S::V::from_f64(v)));
            }
            self.queue
                .push_back(Element::FrameEnd(FrameEnd { frame_id, sector_id: self.sector_id }));
            self.cursor += 1;
            // Rows below cursor-h are no longer needed.
            if self.cursor > h {
                if let Some(band) = &mut self.band {
                    let freed = band.evict_below(self.cursor - h);
                    self.stats.buffer_shrink(freed, freed * S::V::BYTES as u64);
                }
            }
        }
    }

    /// The next output element; `next_chunk` packs these into runs.
    fn step(&mut self) -> Option<Element<S::V>> {
        loop {
            if let Some(el) = self.queue.pop_front() {
                return Some(el);
            }
            let el = self.input.pull()?;
            match el {
                Element::SectorStart(si) => {
                    self.lattice = Some(si.lattice);
                    self.band = Some(RowBand::new(si.lattice.width, si.lattice.height));
                    self.rows_complete = 0;
                    self.cursor = 0;
                    self.sector_id = si.sector_id;
                    self.timestamp = si.timestamp;
                    // Output frame ids are seeded from the sector id so
                    // they depend only on this sector's input — the
                    // property that makes focal sector-partitionable
                    // (a fresh per-morsel instance emits the same ids
                    // the serial instance would).
                    self.next_frame_id = si.sector_id * u64::from(si.lattice.height);
                    return Some(Element::SectorStart(si));
                }
                Element::FrameStart(fi) => {
                    self.stats.frames_in += 1;
                    self.timestamp = fi.timestamp;
                    self.stats.stalls += 1;
                }
                Element::Point(p) => {
                    self.stats.points_in += 1;
                    if let Some(band) = &mut self.band {
                        let grown = band.set(p.cell, p.value);
                        if grown > 0 {
                            self.stats.buffer_grow(grown, grown * S::V::BYTES as u64);
                        }
                    }
                }
                Element::FrameEnd(_) => {
                    // Advance the complete-prefix watermark.
                    if let (Some(band), Some(lat)) = (&self.band, &self.lattice) {
                        let mut complete = self.rows_complete;
                        while complete < lat.height {
                            match complete.checked_sub(band.first_row) {
                                None => complete += 1, // already evicted
                                Some(i) => {
                                    if band.rows.get(i as usize).map(|r| r.is_some()) == Some(true)
                                    {
                                        complete += 1;
                                    } else {
                                        break;
                                    }
                                }
                            }
                        }
                        self.rows_complete = complete;
                    }
                    self.emit_ready_rows(false);
                }
                Element::SectorEnd(se) => {
                    self.emit_ready_rows(true);
                    if let Some(band) = &mut self.band {
                        let freed = band.buffered();
                        self.stats.buffer_shrink(freed, freed * S::V::BYTES as u64);
                    }
                    self.band = None;
                    self.lattice = None;
                    self.queue.push_back(Element::SectorEnd(SectorEnd { sector_id: se.sector_id }));
                }
            }
        }
    }
}

impl<S: GeoStream> GeoStream for FocalTransform<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        pack_elements(budget, || self.step())
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.stream().collect_stats(out);
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
    use geostreams_geo::{Crs, Rect};

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
