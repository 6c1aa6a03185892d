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
//!   interpolate it (its row schedule); it then emits each output row
//!   as soon as its window of input rows has arrived and evicts rows no
//!   longer needed. Peak buffering is a narrow band of input rows.
//! * **blocking** (`use_sector_metadata = false`): it holds *all* input
//!   rows until `SectorEnd`, the behavior the paper warns about; the F2
//!   experiment contrasts the two buffer profiles.
//!
//! Everything derived from a sector's lattice — the output lattice, the
//! row schedule and each output cell's fractional source coordinates —
//! depends on that lattice and the configuration alone, so it is built
//! once and reused while the next sector arrives on an equal lattice (a
//! scanner repeats its sector geometry). A row's source coordinates are
//! projected the first time the row is emitted, so a one-sector run
//! projects no more than it emits, and a whole row at a time: the
//! source projection's batch path shares the work of a parallel. Input runs are written into a
//! row-major ring of input rows; each output row leaves as one
//! `FrameStart`, one run and one `FrameEnd`.

use crate::model::chunk::RunQueue;
use crate::model::rows::{RowSchedule, RowWindow};
use crate::model::{
    Chunk, ChunkOrMarker, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord, SectorEnd,
    SectorInfo, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, Crs, LatticeGeoref, Projection, Rect};
use geostreams_raster::resample::{sample_source, Kernel};
use geostreams_raster::Pixel;

/// The mapping-table entry of an output cell without a source
/// (unmappable, or off the input lattice). An infinite coordinate fails
/// the lattice test as well, so the sentinel hides no cell that has one.
const NO_SOURCE: [f64; 2] = [f64::INFINITY, f64::INFINITY];

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

    /// The output lattice of a sector on `in_lattice`: the explicit one,
    /// or [`CrsPair::out_lattice`]. `None` when the sector is invisible
    /// in the target CRS.
    pub(crate) fn out_lattice(
        &self,
        pair: &CrsPair,
        in_lattice: &LatticeGeoref,
    ) -> Option<LatticeGeoref> {
        self.output_lattice.or_else(|| pair.out_lattice(in_lattice))
    }

    /// The row schedule of one sector: the sampled windows widened by
    /// the kernel support and the safety rows or, blocking, the whole
    /// sector for every output row.
    pub(crate) fn schedule(
        &self,
        pair: &CrsPair,
        in_lattice: &LatticeGeoref,
        out_lattice: &LatticeGeoref,
    ) -> RowSchedule {
        if self.use_sector_metadata {
            let margin = self.kernel.support() + self.safety_rows;
            pair.sampled_schedule(in_lattice, out_lattice, margin)
        } else {
            let last = in_lattice.height.saturating_sub(1);
            RowSchedule::new(vec![Some((0, last)); out_lattice.height as usize], in_lattice.height)
        }
    }
}

/// The projections a re-projection maps through: an output cell is
/// inverted out of the target CRS and projected into the source CRS.
pub(crate) struct CrsPair {
    from: Box<dyn Projection>,
    to: Box<dyn Projection>,
    to_crs: Crs,
}

impl CrsPair {
    /// The pair re-projecting `from` into `to`; fails if either CRS has
    /// no projection.
    pub(crate) fn new(from: Crs, to: Crs) -> crate::Result<Self> {
        Ok(CrsPair { from: from.projection()?, to: to.projection()?, to_crs: to })
    }

    /// The derived output lattice of a sector: the input extent mapped
    /// into the target CRS (16 samples per edge), gridded at the input
    /// dimensions; `None` when no sample maps.
    fn out_lattice(&self, in_lattice: &LatticeGeoref) -> Option<LatticeGeoref> {
        let mut out = Rect::empty();
        for s in in_lattice.world_bbox().boundary_samples(16) {
            let Ok(ll) = self.from.inverse(s) else { continue };
            let Ok(p) = self.to.forward(ll) else { continue };
            out = out.union(&Rect::new(p.x, p.y, p.x, p.y));
        }
        if out.is_empty() || out.area() <= 0.0 {
            return None;
        }
        Some(LatticeGeoref::north_up(self.to_crs, out, in_lattice.width, in_lattice.height))
    }

    /// Fractional input-lattice coordinates `(col, fc, fr)` of the cells
    /// `cols` of output row `row` that map (those beyond the
    /// geostationary limb, say, do not), in column order. Each cell is
    /// inverted out of the target CRS, then the row is projected into
    /// the source CRS in one [`Projection::forward_batch`]: the cells of
    /// a north-up lat/lon row share their latitude.
    fn row_sources(
        &self,
        in_lattice: &LatticeGeoref,
        out_lattice: &LatticeGeoref,
        row: u32,
        cols: impl Iterator<Item = u32>,
    ) -> impl Iterator<Item = (u32, f64, f64)> {
        let (mut mapped, mut lonlat) = (Vec::new(), Vec::new());
        for col in cols {
            if let Ok(ll) = self.to.inverse(out_lattice.cell_to_world(Cell::new(col, row))) {
                mapped.push(col);
                lonlat.push(ll);
            }
        }
        let mut xy = Vec::with_capacity(lonlat.len());
        self.from.forward_batch(&lonlat, &mut xy);
        let in_lattice = *in_lattice;
        mapped.into_iter().zip(xy).filter_map(move |(col, xy)| {
            let (fc, fr) = in_lattice.world_to_fractional(xy?);
            Some((col, fc, fr))
        })
    }

    /// The metadata-assisted schedule: per output row, the source rows
    /// of 17 sampled columns (every `width / 16`-th and the last),
    /// widened by `margin` rows each side and clamped to the input.
    fn sampled_schedule(
        &self,
        in_lattice: &LatticeGeoref,
        out_lattice: &LatticeGeoref,
        margin: u32,
    ) -> RowSchedule {
        let (w, in_h) = (out_lattice.width, in_lattice.height);
        let step = (w / 16).max(1) as usize;
        let needed = (0..out_lattice.height)
            .map(|row| {
                let cols = (0..w).step_by(step).chain(w.checked_sub(1));
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for (_, _, fr) in self.row_sources(in_lattice, out_lattice, row, cols) {
                    lo = lo.min(fr);
                    hi = hi.max(fr);
                }
                lo.is_finite().then(|| {
                    let lo_row = (lo.floor() as i64 - i64::from(margin)).max(0) as u32;
                    let hi_row = ((hi.ceil() as i64 + i64::from(margin)).max(0) as u32)
                        .min(in_h.saturating_sub(1));
                    (lo_row.min(in_h.saturating_sub(1)), hi_row)
                })
            })
            .collect();
        RowSchedule::new(needed, in_h)
    }
}

/// The mapping-table entry of source coordinates `(fc, fr)`: the
/// coordinates, or [`NO_SOURCE`] outside the input lattice.
fn table_entry(in_lattice: &LatticeGeoref, fc: f64, fr: f64) -> [f64; 2] {
    if fc < -0.5
        || fr < -0.5
        || fc > f64::from(in_lattice.width) - 0.5
        || fr > f64::from(in_lattice.height) - 0.5
    {
        return NO_SOURCE;
    }
    [fc, fr]
}

/// Everything the operator derives from one sector lattice: a constant
/// while the geometry repeats.
pub(crate) struct Mapping {
    /// The input lattice the mapping was built for (the cache key).
    in_lattice: LatticeGeoref,
    out_lattice: LatticeGeoref,
    schedule: RowSchedule,
    /// Fractional source `[col, row]` of each output cell, row-major, or
    /// [`NO_SOURCE`]: the rows emitted so far. Room for every output
    /// cell is reserved, and counted, up front.
    table: Vec<[f64; 2]>,
}

impl Mapping {
    fn new(
        config: &ReprojectConfig,
        pair: &CrsPair,
        in_lattice: LatticeGeoref,
        out: LatticeGeoref,
    ) -> Self {
        Mapping {
            in_lattice,
            out_lattice: out,
            schedule: config.schedule(pair, &in_lattice, &out),
            table: Vec::with_capacity(out.len() as usize),
        }
    }

    /// Bytes the table and the schedule have allocated.
    fn bytes(&self) -> u64 {
        bytes_of::<[f64; 2]>(self.table.capacity()) + self.schedule.bytes()
    }

    /// Bytes of the mapping onto `out` run by `schedule`: a table entry
    /// per output cell, reserved up front, and the schedule.
    pub(crate) fn bytes_for(out: &LatticeGeoref, schedule: &RowSchedule) -> u64 {
        bytes_of::<[f64; 2]>(out.len() as usize) + schedule.bytes()
    }

    /// The table row of output row `row`, projecting the rows up to it
    /// the first time. Rows the schedule skips are never read; they
    /// hold [`NO_SOURCE`] without a projection.
    fn table_row(&mut self, pair: &CrsPair, row: u32) -> &[[f64; 2]] {
        let (in_lattice, out_lattice) = (self.in_lattice, self.out_lattice);
        let w = out_lattice.width as usize;
        while self.table.len() < (row as usize + 1) * w {
            let r = (self.table.len() / w) as u32;
            let start = self.table.len();
            self.table.resize(start + w, NO_SOURCE);
            if self.schedule.emits(r) {
                let cols = 0..w as u32;
                for (col, fc, fr) in pair.row_sources(&in_lattice, &out_lattice, r, cols) {
                    self.table[start + col as usize] = table_entry(&in_lattice, fc, fr);
                }
            }
        }
        &self.table[row as usize * w..][..w]
    }

    /// The points of output row `row`: every cell with a source,
    /// interpolated over the buffered input rows.
    fn gather<V: Pixel>(
        &mut self,
        pair: &CrsPair,
        rows: &RowWindow<V>,
        kernel: Kernel,
        row: u32,
    ) -> Chunk<V> {
        let table = self.table_row(pair, row);
        let mut run = Chunk::with_budget(table.len());
        for (col, &[fc, fr]) in (0u32..).zip(table) {
            if fc == NO_SOURCE[0] {
                continue;
            }
            let value = V::from_f64(sample_source(rows, fc, fr, kernel));
            run.points.push(PointRecord { cell: Cell::new(col, row), value });
        }
        run
    }
}

/// The re-projection operator `G ∘ f_spat` across coordinate systems.
pub struct Reproject<S: GeoStream> {
    input: S,
    config: ReprojectConfig,
    pair: CrsPair,
    /// The mapping of the last visible sector geometry.
    mapping: Option<Mapping>,
    /// The open sector, while it is visible in the target CRS.
    sector: Option<SectorInfo>,
    /// The open sector is invisible in the target CRS: it is dropped
    /// whole, `SectorEnd` included.
    dropping: bool,
    window: RowWindow<S::V>,
    /// The open sector has ended: its remaining rows go out, then this.
    closing: Option<SectorEnd>,
    queue: RunQueue<S::V>,
    next_frame_id: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Reproject<S> {
    /// Creates the re-projection; fails if either CRS has no projection.
    pub fn new(input: S, config: ReprojectConfig) -> crate::Result<Self> {
        let from_crs = input.schema().crs;
        let pair = CrsPair::new(from_crs, config.to)?;
        let mut schema = input.schema().renamed(format!("reproject[{}->{}]", from_crs, config.to));
        schema.crs = config.to;
        schema.sector_lattice = None;
        Ok(Reproject {
            input,
            config,
            pair,
            mapping: None,
            sector: None,
            dropping: false,
            window: RowWindow::new(),
            closing: None,
            queue: RunQueue::default(),
            next_frame_id: 0,
            stats: OpStats::default(),
            schema,
        })
    }

    fn on_marker(&mut self, marker: Marker) {
        match marker {
            Marker::SectorStart(si) => self.open_sector(si),
            Marker::FrameStart(fi) => self.window.frame_start(&fi.cells, &mut self.stats),
            Marker::FrameEnd(_) => self.window.frame_end(),
            Marker::SectorEnd(se) => self.closing = Some(se),
        }
    }

    /// Opens a sector, reusing the mapping when its lattice repeats.
    fn open_sector(&mut self, si: SectorInfo) {
        let cached = self.mapping.as_ref().is_some_and(|m| m.in_lattice == si.lattice);
        if !cached {
            let Some(out_lattice) = self.config.out_lattice(&self.pair, &si.lattice) else {
                // Invisible in the target CRS: the sector is dropped.
                self.sector = None;
                self.window.close();
                self.dropping = true;
                return;
            };
            // The old table goes before the new one is reserved.
            self.mapping = None;
            let mapping = Mapping::new(&self.config, &self.pair, si.lattice, out_lattice);
            self.mapping = Some(mapping);
        }
        let Some(mapping) = &self.mapping else { return };
        self.dropping = false;
        self.window.open(si.lattice.width, si.lattice.height);
        let out = SectorInfo { lattice: mapping.out_lattice, ..si.clone() };
        self.sector = Some(si);
        self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(out)));
    }

    /// Emits the next output row whose input window is satisfied (any
    /// remaining row once the sector is closing) that has points, as
    /// `FrameStart`, one run and `FrameEnd`; once none is left of a
    /// closing sector, its `SectorEnd`. Returns whether it emitted
    /// anything.
    fn emit_next(&mut self) -> bool {
        let force = self.closing.is_some();
        if let (Some(sector), Some(mapping)) = (&self.sector, &mut self.mapping) {
            while let Some(row) = self.window.next_ready_row(&mapping.schedule, force) {
                let frame_id = self.next_frame_id;
                self.next_frame_id += 1;
                let run = mapping.gather(&self.pair, &self.window, self.config.kernel, row);
                if run.is_empty() {
                    run.recycle();
                    continue;
                }
                self.stats.frames_out += 1;
                self.stats.points_out += run.len() as u64;
                let (sector_id, width) = (sector.sector_id, mapping.out_lattice.width);
                self.queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                    frame_id,
                    sector_id,
                    timestamp: sector.timestamp,
                    cells: CellBox::new(0, row, width.saturating_sub(1), row),
                    synth_ns: crate::obs::now_ns(),
                })));
                self.queue.push(ChunkOrMarker::Chunk(run));
                let end = FrameEnd { frame_id, sector_id };
                self.queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(end)));
                self.hold();
                return true;
            }
        }
        let Some(se) = self.closing.take() else { return false };
        self.sector = None;
        self.window.close();
        if !std::mem::take(&mut self.dropping) {
            self.queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(se)));
        }
        self.hold();
        true
    }
}

impl<S: GeoStream> Reproject<S> {
    /// Reports what the window and the mapping hold.
    fn hold(&mut self) {
        let mapping = self.mapping.as_ref().map_or(0, Mapping::bytes);
        self.stats.hold(self.window.points(), self.window.bytes() + mapping);
    }
}

impl<S: GeoStream> GeoStream for Reproject<S> {
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

/// Re-projection resamples into a brand-new output lattice: it emits a
/// fresh marker sequence and its row-band window assumes bracketed,
/// lattice-ordered input.
pub fn reproject_contract() -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract::resynthesizing("reproject")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::projection::Geostationary;
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
        // A lat/lon sector on the far side of the Earth from GOES-East:
        // nothing of it comes out, not even its markers.
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(100.0, -5.0, 110.0, 5.0), 8, 8);
        let src = VecStream::<f32>::single_sector("src", lattice, 0, |_, _| 1.0);
        let mut op = Reproject::new(src, ReprojectConfig::new(Crs::geostationary(-75.0))).unwrap();
        let els = op.drain_elements();
        assert!(els.is_empty(), "the whole sector is dropped: {els:?}");
    }

    #[test]
    fn repeated_geometry_reuses_the_mapping() {
        // Three sectors on one lattice: the table is built once, counted
        // once, and the output repeats sector for sector.
        let lattice = latlon_lattice(24, 24);
        let src = VecStream::<f32>::sectors("src", lattice, 3, |_, c, r| f64::from(c * r));
        let mut op = Reproject::new(src, ReprojectConfig::new(Crs::utm(10, true))).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len() % 3, 0);
        let per_sector = pts.len() / 3;
        assert_eq!(pts[..per_sector], pts[per_sector..2 * per_sector]);
        let stats = op.op_stats();
        let mapping = op.mapping.as_ref().unwrap();
        assert_eq!(mapping.table.capacity(), 24 * 24, "one table entry per output cell");
        assert_eq!(stats.buffered_points, 0, "the window holds no row");
        let held = op.window.bytes() + mapping.bytes();
        assert_eq!(stats.buffered_bytes, held, "the table and the ring outlive their sectors");
        assert_eq!(stats.buffered_bytes_peak, held, "later sectors allocate nothing more");
    }

    /// The mapping-table entry of one output cell, projected on its own.
    fn per_cell_entry(
        pair: &CrsPair,
        in_lattice: &LatticeGeoref,
        out_lattice: &LatticeGeoref,
        cell: Cell,
    ) -> Option<[f64; 2]> {
        let ll = pair.to.inverse(out_lattice.cell_to_world(cell)).ok()?;
        let (fc, fr) = in_lattice.world_to_fractional(pair.from.forward(ll).ok()?);
        Some(table_entry(in_lattice, fc, fr))
    }

    #[test]
    fn table_rows_and_schedule_equal_the_per_cell_projection() {
        // The eastern part of the GOES-East disk, and output lattices
        // from 60° W to 15° E: the cells east of the limb (about 6° E on
        // the equator) have no source, and those west of the input
        // lattice map off it.
        let geos = Crs::geostationary(-75.0);
        let h = Geostationary::new(-75.0).height();
        let bounds = Rect::new(0.06 * h, -0.17 * h, 0.17 * h, 0.17 * h);
        let in_lattice = LatticeGeoref::north_up(geos, bounds, 40, 30);
        let utm = Crs::utm(28, true);
        let (sw, ne) = (GeoCoord::new(-60.0, -30.0), GeoCoord::new(15.0, 30.0));
        let (a, b) = (utm.forward(sw).unwrap(), utm.forward(ne).unwrap());
        for (to, area) in
            [(Crs::LatLon, Rect::new(sw.x, sw.y, ne.x, ne.y)), (utm, Rect::new(a.x, a.y, b.x, b.y))]
        {
            let output_lattice = Some(LatticeGeoref::north_up(to, area, 36, 28));
            let config = ReprojectConfig { output_lattice, ..ReprojectConfig::new(to) };
            let pair = CrsPair::new(geos, to).unwrap();
            let out = config.out_lattice(&pair, &in_lattice).expect("visible");
            let mut mapping = Mapping::new(&config, &pair, in_lattice, out);
            let (mut mapped, mut off_lattice, mut past_limb) = (0, 0, 0);
            for row in 0..out.height {
                let table = mapping.table_row(&pair, row).to_vec();
                for (col, got) in (0..).zip(table) {
                    let cell = Cell::new(col, row);
                    let projected = per_cell_entry(&pair, &in_lattice, &out, cell);
                    let want = match projected {
                        Some(entry) if mapping.schedule.emits(row) => entry,
                        _ => NO_SOURCE,
                    };
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{to} {cell:?}");
                    mapped += usize::from(got != NO_SOURCE);
                    off_lattice += usize::from(projected == Some(NO_SOURCE));
                    past_limb += usize::from(projected.is_none());
                }
            }
            assert!(
                mapped > 0 && off_lattice > 0 && past_limb > 0,
                "{to}: {mapped} mapped, {off_lattice} off the lattice, {past_limb} past the limb"
            );

            // The schedule the per-cell projection samples.
            let (w, in_h) = (out.width, in_lattice.height);
            let margin = config.kernel.support() + config.safety_rows;
            let step = (w / 16).max(1) as usize;
            let needed = (0..out.height)
                .map(|row| {
                    let frs = (0..w).step_by(step).chain(w.checked_sub(1)).filter_map(|col| {
                        let ll = pair.to.inverse(out.cell_to_world(Cell::new(col, row))).ok()?;
                        Some(in_lattice.world_to_fractional(pair.from.forward(ll).ok()?).1)
                    });
                    let (lo, hi) = frs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), fr| {
                        (lo.min(fr), hi.max(fr))
                    });
                    lo.is_finite().then(|| {
                        let lo_row = (lo.floor() as i64 - i64::from(margin)).max(0) as u32;
                        let hi_row =
                            ((hi.ceil() as i64 + i64::from(margin)).max(0) as u32).min(in_h - 1);
                        (lo_row.min(in_h - 1), hi_row)
                    })
                })
                .collect();
            assert_eq!(mapping.schedule, RowSchedule::new(needed, in_h), "{to}: schedule");
        }
    }

    #[test]
    fn schema_crs_is_target() {
        let src = lon_field(latlon_lattice(4, 4));
        let op = Reproject::new(src, ReprojectConfig::new(Crs::utm(10, true))).unwrap();
        assert_eq!(op.schema().crs, Crs::utm(10, true));
        assert!(op.schema().name.contains("reproject"));
    }
}
