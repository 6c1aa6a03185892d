//! Re-projection between coordinate systems (§3.2, Fig. 2b).
//!
//! "From a geographic application point of view, an important
//! functionality is to re-project geospatial data from one coordinate
//! system to another one … such types of spatial transform operators may
//! block for a considerable amount of time, as the computation of the
//! value of a point y ∈ Y may require any number of points from X. An
//! implementation … can be again tailored by utilizing metadata about the
//! spatial extent of the current scan sector."
//!
//! This operator implements both behaviors:
//!
//! * **metadata-assisted** (default): on `SectorStart` it derives the
//!   output lattice and, per output row, the input-row window required to
//!   interpolate it; it then emits each output row as soon as its window
//!   of input rows has arrived and evicts rows no longer needed. Peak
//!   buffering is a narrow band of input rows.
//! * **blocking** (`use_sector_metadata = false`): it holds *all* input
//!   rows until `SectorEnd`, the behavior the paper warns about; the F2
//!   experiment contrasts the two buffer profiles.

use crate::model::{
    pack_elements, ChunkInput, ChunkOrMarker, Element, FrameEnd, FrameInfo, GeoStream, SectorEnd,
    SectorInfo, StreamSchema,
};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, Crs, LatticeGeoref, Projection, Rect};
use geostreams_raster::resample::{sample_source, Kernel, SampleSource};
use geostreams_raster::Pixel;
use std::collections::VecDeque;

/// Configuration for [`Reproject`].
#[derive(Debug, Clone)]
pub struct ReprojectConfig {
    /// Target coordinate system.
    pub to: Crs,
    /// Interpolation kernel.
    pub kernel: Kernel,
    /// Use scan-sector metadata to bound buffering (§3.2). When `false`
    /// the operator blocks until `SectorEnd`.
    pub use_sector_metadata: bool,
    /// Explicit output lattice; when `None` one is derived per sector
    /// "corresponding in size and aspect to the lattice of the original
    /// point set".
    pub output_lattice: Option<LatticeGeoref>,
    /// Extra input rows of safety margin around each output row's window.
    pub safety_rows: u32,
}

impl ReprojectConfig {
    /// Default configuration targeting `to`.
    pub fn new(to: Crs) -> Self {
        ReprojectConfig {
            to,
            kernel: Kernel::Bilinear,
            use_sector_metadata: true,
            output_lattice: None,
            safety_rows: 2,
        }
    }

    /// Sets the kernel (builder style).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Disables sector-metadata assistance (the blocking variant).
    pub fn blocking(mut self) -> Self {
        self.use_sector_metadata = false;
        self
    }
}

/// Streaming window of buffered input rows.
struct RowWindow<V> {
    /// `rows[i]` = input row `first_row + i`, when still buffered.
    rows: VecDeque<Option<Vec<V>>>,
    first_row: u32,
    width: u32,
    height: u32,
}

impl<V: Pixel> RowWindow<V> {
    fn new(width: u32, height: u32) -> Self {
        RowWindow { rows: VecDeque::new(), first_row: 0, width, height }
    }

    fn ensure_row(&mut self, row: u32) -> &mut Vec<V> {
        while self.first_row + (self.rows.len() as u32) <= row {
            self.rows.push_back(None);
        }
        let idx = (row - self.first_row) as usize;
        self.rows[idx].get_or_insert_with(|| vec![V::default(); self.width as usize])
    }

    fn set(&mut self, cell: Cell, v: V) {
        if cell.row < self.first_row || cell.col >= self.width {
            return; // row already evicted (out-of-order input) or OOB
        }
        let col = cell.col as usize;
        self.ensure_row(cell.row)[col] = v;
    }

    /// Drops buffered rows strictly below `row`. Returns points freed.
    fn evict_below(&mut self, row: u32) -> u64 {
        let mut freed = 0u64;
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

    fn buffered_points(&self) -> u64 {
        self.rows.iter().flatten().map(|r| r.len() as u64).sum()
    }
}

impl<V: Pixel> SampleSource for RowWindow<V> {
    fn at(&self, col: i64, row: i64) -> f64 {
        let col = col.clamp(0, i64::from(self.width) - 1) as usize;
        let row = row.clamp(0, i64::from(self.height) - 1) as u32;
        // Clamp the row into the buffered window.
        let last = self.first_row + (self.rows.len().max(1) as u32) - 1;
        let row = row.clamp(self.first_row, last);
        match self.rows.get((row - self.first_row) as usize) {
            Some(Some(r)) => r[col].to_f64(),
            _ => 0.0,
        }
    }
}

/// Per-sector plan for the metadata-assisted emission schedule.
struct SectorPlan {
    in_lattice: LatticeGeoref,
    out_lattice: LatticeGeoref,
    /// For each output row: inclusive input-row window `(lo, hi)` needed
    /// to interpolate it, or `None` when the row is entirely unmappable.
    needed: Vec<Option<(u32, u32)>>,
    /// `min_needed_from[i]` = smallest `needed.lo` over output rows
    /// `i..` — the eviction watermark once row `i` is next to emit.
    min_needed_from: Vec<u32>,
    /// Next output row to emit.
    cursor: u32,
    /// Number of leading input rows fully received.
    rows_complete: u32,
    sector_id: u64,
    timestamp: crate::model::Timestamp,
}

/// The re-projection operator `G ∘ f_spat` across coordinate systems.
pub struct Reproject<S: GeoStream> {
    input: ChunkInput<S>,
    config: ReprojectConfig,
    from_proj: Box<dyn Projection>,
    to_proj: Box<dyn Projection>,
    plan: Option<SectorPlan>,
    window: Option<RowWindow<S::V>>,
    queue: VecDeque<Element<S::V>>,
    next_frame_id: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Reproject<S> {
    /// Creates the re-projection; fails if either CRS has no projection.
    pub fn new(input: S, config: ReprojectConfig) -> crate::Result<Self> {
        let from_crs = input.schema().crs;
        let from_proj = from_crs.projection()?;
        let to_proj = config.to.projection()?;
        let mut schema = input.schema().renamed(format!("reproject[{}->{}]", from_crs, config.to));
        schema.crs = config.to;
        schema.sector_lattice = None;
        Ok(Reproject {
            input: ChunkInput::new(input),
            config,
            from_proj,
            to_proj,
            plan: None,
            window: None,
            queue: VecDeque::new(),
            next_frame_id: 0,
            stats: OpStats::default(),
            schema,
        })
    }

    /// Maps an output-lattice cell to fractional input-lattice
    /// coordinates; `None` when the point is unmappable (e.g. beyond the
    /// geostationary limb).
    fn out_cell_to_in_frac(&self, plan: &SectorPlan, cell: Cell) -> Option<(f64, f64)> {
        let w = plan.out_lattice.cell_to_world(cell);
        let ll = self.to_proj.inverse(w).ok()?;
        let xy = self.from_proj.forward(ll).ok()?;
        Some(plan.in_lattice.world_to_fractional(xy))
    }

    /// Derives the output lattice for a sector: the input extent mapped
    /// into the target CRS, gridded at the input dimensions.
    fn derive_out_lattice(&self, in_lattice: &LatticeGeoref) -> Option<LatticeGeoref> {
        if let Some(explicit) = self.config.output_lattice {
            return Some(explicit);
        }
        let bbox = in_lattice.world_bbox();
        let mut out = Rect::empty();
        let samples = bbox.boundary_samples(16);
        for s in samples {
            let Ok(ll) = self.from_proj.inverse(s) else { continue };
            let Ok(p) = self.to_proj.forward(ll) else { continue };
            out = out.union(&Rect::new(p.x, p.y, p.x, p.y));
        }
        if out.is_empty() || out.area() <= 0.0 {
            return None;
        }
        Some(LatticeGeoref::north_up(self.config.to, out, in_lattice.width, in_lattice.height))
    }

    /// Computes the per-output-row input windows.
    fn compute_needed(&self, plan: &mut SectorPlan) {
        let support = self.config.kernel.support() + self.config.safety_rows;
        let w = plan.out_lattice.width;
        let step = (w / 16).max(1);
        let in_h = plan.in_lattice.height;
        for out_row in 0..plan.out_lattice.height {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut col = 0;
            while col < w {
                if let Some((_, fr)) = self.out_cell_to_in_frac(plan, Cell::new(col, out_row)) {
                    lo = lo.min(fr);
                    hi = hi.max(fr);
                }
                col += step;
            }
            // Always include the last column.
            if w > 0 {
                if let Some((_, fr)) = self.out_cell_to_in_frac(plan, Cell::new(w - 1, out_row)) {
                    lo = lo.min(fr);
                    hi = hi.max(fr);
                }
            }
            plan.needed.push(if lo.is_finite() {
                let lo_row = (lo.floor() as i64 - i64::from(support)).max(0) as u32;
                let hi_row = ((hi.ceil() as i64 + i64::from(support)).max(0) as u32)
                    .min(in_h.saturating_sub(1));
                Some((lo_row.min(in_h.saturating_sub(1)), hi_row))
            } else {
                None
            });
        }
        // Suffix minima for eviction.
        plan.min_needed_from = vec![0; plan.needed.len() + 1];
        let mut running = in_h; // nothing needed after the last row
        plan.min_needed_from[plan.needed.len()] = running;
        for i in (0..plan.needed.len()).rev() {
            if let Some((lo, _)) = plan.needed[i] {
                running = running.min(lo);
            }
            plan.min_needed_from[i] = running;
        }
    }

    /// Emits every output row whose input window is satisfied (or all
    /// remaining rows when `force` at sector end).
    fn emit_ready_rows(&mut self, force: bool) {
        let Some(mut plan) = self.plan.take() else { return };
        let Some(window) = self.window.take() else {
            self.plan = Some(plan);
            return;
        };
        let mut window = window;
        while (plan.cursor as usize) < plan.needed.len() {
            let idx = plan.cursor as usize;
            let ready = match plan.needed[idx] {
                None => true, // nothing mappable: emit an empty row (skip)
                Some((_, hi)) => force || plan.rows_complete > hi,
            };
            if !ready {
                break;
            }
            if let Some((_, _)) = plan.needed[idx] {
                self.emit_out_row(&plan, &window, plan.cursor);
            }
            plan.cursor += 1;
            // Evict input rows no longer needed by any remaining out row.
            let watermark = plan.min_needed_from[plan.cursor as usize];
            let freed = window.evict_below(watermark);
            self.stats.buffer_shrink(freed, freed * S::V::BYTES as u64);
        }
        self.plan = Some(plan);
        self.window = Some(window);
    }

    /// Emits one output row as a frame.
    fn emit_out_row(&mut self, plan: &SectorPlan, window: &RowWindow<S::V>, out_row: u32) {
        let w = plan.out_lattice.width;
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;
        let mut emitted_any = false;
        let mut row_elems: Vec<Element<S::V>> = Vec::with_capacity(w as usize + 2);
        for col in 0..w {
            let Some((fc, fr)) = self.out_cell_to_in_frac(plan, Cell::new(col, out_row)) else {
                continue;
            };
            // Outside the input lattice entirely: no data for this cell.
            if fc < -0.5
                || fr < -0.5
                || fc > f64::from(plan.in_lattice.width) - 0.5
                || fr > f64::from(plan.in_lattice.height) - 0.5
            {
                continue;
            }
            let v = sample_source(window, fc, fr, self.config.kernel);
            row_elems.push(Element::point(Cell::new(col, out_row), S::V::from_f64(v)));
            emitted_any = true;
        }
        if emitted_any {
            self.stats.frames_out += 1;
            self.queue.push_back(Element::FrameStart(FrameInfo {
                frame_id,
                sector_id: plan.sector_id,
                timestamp: plan.timestamp,
                cells: CellBox::new(0, out_row, w.saturating_sub(1), out_row),
                synth_ns: crate::obs::now_ns(),
            }));
            self.stats.points_out += row_elems.len() as u64;
            self.queue.extend(row_elems);
            self.queue
                .push_back(Element::FrameEnd(FrameEnd { frame_id, sector_id: plan.sector_id }));
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
                    let out_lattice = match self.derive_out_lattice(&si.lattice) {
                        Some(l) => l,
                        None => {
                            // Sector invisible in the target CRS.
                            self.plan = None;
                            self.window = None;
                            continue;
                        }
                    };
                    let mut plan = SectorPlan {
                        in_lattice: si.lattice,
                        out_lattice,
                        needed: Vec::new(),
                        min_needed_from: Vec::new(),
                        cursor: 0,
                        rows_complete: 0,
                        sector_id: si.sector_id,
                        timestamp: si.timestamp,
                    };
                    if self.config.use_sector_metadata {
                        self.compute_needed(&mut plan);
                    } else {
                        // Blocking variant: every out row "needs" the
                        // whole sector.
                        let last = si.lattice.height.saturating_sub(1);
                        plan.needed = vec![Some((0, last)); plan.out_lattice.height as usize];
                        plan.min_needed_from = vec![0; plan.needed.len() + 1];
                        if let Some(slot) = plan.min_needed_from.last_mut() {
                            *slot = si.lattice.height;
                        }
                    }
                    self.window = Some(RowWindow::new(si.lattice.width, si.lattice.height));
                    self.queue.push_back(Element::SectorStart(SectorInfo {
                        lattice: plan.out_lattice,
                        ..si.clone()
                    }));
                    self.plan = Some(plan);
                }
                Element::FrameStart(_) => {
                    self.stats.frames_in += 1;
                    self.stats.stalls += 1;
                }
                Element::Point(p) => {
                    self.stats.points_in += 1;
                    if let Some(w) = &mut self.window {
                        let before = w.buffered_points();
                        w.set(p.cell, p.value);
                        let after = w.buffered_points();
                        if after > before {
                            self.stats
                                .buffer_grow(after - before, (after - before) * S::V::BYTES as u64);
                        }
                    }
                }
                Element::FrameEnd(fe) => {
                    let _ = fe;
                    if let Some(plan) = &mut self.plan {
                        if let Some(w) = &self.window {
                            // Rows complete in arrival order: advance the
                            // completion watermark to the highest fully
                            // buffered prefix.
                            let mut complete = plan.rows_complete;
                            while complete < plan.in_lattice.height {
                                let idx = complete.checked_sub(w.first_row);
                                match idx {
                                    None => {
                                        complete += 1; // already evicted
                                    }
                                    Some(i) => {
                                        if w.rows.get(i as usize).map(|r| r.is_some()) == Some(true)
                                        {
                                            complete += 1;
                                        } else {
                                            break;
                                        }
                                    }
                                }
                            }
                            plan.rows_complete = complete;
                        }
                    }
                    self.emit_ready_rows(false);
                }
                Element::SectorEnd(se) => {
                    self.emit_ready_rows(true);
                    if let Some(w) = &mut self.window {
                        let freed = w.buffered_points();
                        self.stats.buffer_shrink(freed, freed * S::V::BYTES as u64);
                    }
                    self.plan = None;
                    self.window = None;
                    self.queue.push_back(Element::SectorEnd(SectorEnd { sector_id: se.sector_id }));
                }
            }
        }
    }
}

impl<S: GeoStream> GeoStream for Reproject<S> {
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

/// Re-projection resamples into a brand-new output lattice: it emits a
/// fresh marker sequence and its row-band window assumes bracketed,
/// lattice-ordered input.
pub fn reproject_contract() -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract::resynthesizing("reproject")
}

impl<S: GeoStream> Reproject<S> {
    /// Protocol contract (see [`reproject_contract`]).
    pub fn declared_contract(&self) -> crate::ops::ProtocolContract {
        reproject_contract()
    }

    /// §3.2: re-projection "may block arbitrarily" unless scan-sector
    /// metadata bounds the needed input neighborhood to a narrow row
    /// band around the current scanline.
    pub fn declared_blocking(&self) -> crate::ops::BlockingClass {
        if self.config.use_sector_metadata {
            crate::ops::BlockingClass::BoundedRows(
                2 * (self.config.kernel.support() + self.config.safety_rows) + 1,
            )
        } else {
            crate::ops::BlockingClass::Unbounded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::Coord as GeoCoord;

    /// A lat/lon sector over Northern California.
    fn latlon_lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), w, h)
    }

    /// Value = longitude in degrees (a smooth geographic field we can
    /// check after re-projection).
    fn lon_field(lattice: LatticeGeoref) -> VecStream<f32> {
        VecStream::single_sector("src", lattice, 0, move |c, r| {
            lattice.cell_to_world(Cell::new(c, r)).x
        })
    }

    #[test]
    fn latlon_to_utm_preserves_field_values() {
        let lattice = latlon_lattice(32, 32);
        let src = lon_field(lattice);
        let cfg = ReprojectConfig::new(Crs::utm(10, true)).kernel(Kernel::Bilinear);
        let mut op = Reproject::new(src, cfg).unwrap();
        let mut out_lattice = None;
        let mut pts = Vec::new();
        while let Some(el) = op.next_element() {
            match el {
                Element::SectorStart(si) => out_lattice = Some(si.lattice),
                Element::Point(p) => pts.push(p),
                _ => {}
            }
        }
        let out_lattice = out_lattice.expect("sector emitted");
        assert_eq!(out_lattice.crs, Crs::utm(10, true));
        assert!(!pts.is_empty());
        // Every output point's value must equal (approximately) the
        // longitude of its own location — the field is preserved.
        let utm = Crs::utm(10, true);
        let mut checked = 0;
        for p in &pts {
            let w = out_lattice.cell_to_world(p.cell);
            let ll = utm.inverse(w).unwrap();
            // Ignore cells near the input border (clamping effects).
            if ll.x < -123.8 || ll.x > -120.2 || ll.y < 36.2 || ll.y > 39.8 {
                continue;
            }
            assert!(
                (f64::from(p.value) - ll.x).abs() < 0.05,
                "cell {:?}: value {} vs lon {}",
                p.cell,
                p.value,
                ll.x
            );
            checked += 1;
        }
        assert!(checked > 200, "checked {checked} interior points");
    }

    #[test]
    fn streaming_buffer_smaller_than_blocking() {
        let lattice = latlon_lattice(48, 48);
        let streaming = {
            let mut op =
                Reproject::new(lon_field(lattice), ReprojectConfig::new(Crs::utm(10, true)))
                    .unwrap();
            let _ = op.drain_points();
            op.op_stats()
        };
        let blocking = {
            let mut op = Reproject::new(
                lon_field(lattice),
                ReprojectConfig::new(Crs::utm(10, true)).blocking(),
            )
            .unwrap();
            let _ = op.drain_points();
            op.op_stats()
        };
        assert_eq!(blocking.buffered_points_peak, 48 * 48, "blocking buffers the whole sector");
        assert!(
            streaming.buffered_points_peak < blocking.buffered_points_peak / 2,
            "metadata-assisted ({}) should be well below blocking ({})",
            streaming.buffered_points_peak,
            blocking.buffered_points_peak
        );
        // Both produce the same number of output points.
        assert_eq!(streaming.points_out, blocking.points_out);
    }

    #[test]
    fn identity_reprojection_roundtrips_values() {
        let lattice = latlon_lattice(16, 16);
        let src = VecStream::<f32>::single_sector("src", lattice, 0, |c, r| f64::from(c + r));
        let cfg = ReprojectConfig {
            to: Crs::LatLon,
            kernel: Kernel::Nearest,
            use_sector_metadata: true,
            output_lattice: Some(lattice),
            safety_rows: 1,
        };
        let mut op = Reproject::new(src, cfg).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 256);
        for p in pts {
            assert_eq!(f64::from(p.value), f64::from(p.cell.col + p.cell.row));
        }
    }

    #[test]
    fn geostationary_to_latlon_recovers_geography() {
        // Simulate a GOES-style sector in geostationary coordinates whose
        // value encodes latitude; after re-projection to lat/lon, values
        // must match each output cell's latitude.
        let geos = Crs::geostationary(-75.0);
        // A sector covering the south-eastern US viewed from GOES-East.
        let corner_a = geos.forward(GeoCoord::new(-90.0, 25.0)).unwrap();
        let corner_b = geos.forward(GeoCoord::new(-80.0, 35.0)).unwrap();
        let bounds = Rect::new(corner_a.x, corner_a.y, corner_b.x, corner_b.y);
        let lattice = LatticeGeoref::north_up(geos, bounds, 40, 40);
        let src = VecStream::<f32>::single_sector("goes", lattice, 0, move |c, r| {
            let w = lattice.cell_to_world(Cell::new(c, r));
            geos.inverse(w).map(|ll| ll.y).unwrap_or(0.0)
        });
        let mut op =
            Reproject::new(src, ReprojectConfig::new(Crs::LatLon).kernel(Kernel::Bilinear))
                .unwrap();
        let mut out_lattice = None;
        let mut pts = Vec::new();
        while let Some(el) = op.next_element() {
            match el {
                Element::SectorStart(si) => out_lattice = Some(si.lattice),
                Element::Point(p) => pts.push(p),
                _ => {}
            }
        }
        let out = out_lattice.unwrap();
        let mut checked = 0;
        for p in &pts {
            let w = out.cell_to_world(p.cell);
            // Interior only.
            if w.x < -89.5 || w.x > -80.5 || w.y < 25.5 || w.y > 34.5 {
                continue;
            }
            assert!(
                (f64::from(p.value) - w.y).abs() < 0.2,
                "cell {:?}: value {} vs lat {}",
                p.cell,
                p.value,
                w.y
            );
            checked += 1;
        }
        assert!(checked > 300, "checked {checked}");
    }

    #[test]
    fn invisible_sector_is_dropped() {
        // A lat/lon sector on the far side of the Earth from GOES-East.
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(100.0, -5.0, 110.0, 5.0), 8, 8);
        let src = VecStream::<f32>::single_sector("src", lattice, 0, |_, _| 1.0);
        let mut op = Reproject::new(src, ReprojectConfig::new(Crs::geostationary(-75.0))).unwrap();
        let els = op.drain_elements();
        assert!(els.iter().all(|e| !e.is_point()), "no points should map");
    }

    #[test]
    fn schema_crs_is_target() {
        let src = lon_field(latlon_lattice(4, 4));
        let op = Reproject::new(src, ReprojectConfig::new(Crs::utm(10, true))).unwrap();
        assert_eq!(op.schema().crs, Crs::utm(10, true));
        assert!(op.schema().name.contains("reproject"));
    }
}
