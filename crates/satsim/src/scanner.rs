//! Stream generation: turning an instrument into GeoStreams.
//!
//! [`SyntheticStream`] lazily emits the element protocol for one band of
//! an instrument — sector metadata, frames shaped by the instrument's
//! point organization (Fig. 1 of the paper), and radiance points sampled
//! from the [`EarthModel`]. [`Scanner::multiplexed_transport`] emits the
//! physical downlink order of two bands (band-sequential for
//! image-by-image instruments, line-interleaved for row-by-row), which
//! is what the composition-buffering experiment consumes through
//! [`geostreams_core::model::split2`].

use crate::field::{EarthModel, EarthSampler};
use crate::instrument::Instrument;
use geostreams_core::model::{
    Chunk, ChunkInput, ChunkOrMarker, Element, FrameEnd, FrameInfo, GeoStream, Marker,
    Organization, PointRecord, SectorEnd, SectorInfo, StreamSchema, TimeSemantics, Timestamp,
};
use geostreams_core::stats::OpStats;
use geostreams_geo::{Cell, CellBox, Coord, LatticeGeoref, Projection};

/// Number of points per frame for point-by-point instruments.
const POINT_BURST: u32 = 16;

/// A scanner pairs an instrument with the synthetic Earth.
#[derive(Debug, Clone)]
pub struct Scanner {
    /// Instrument description.
    pub instrument: Instrument,
    /// Radiance model.
    pub model: EarthModel,
}

impl Scanner {
    /// Creates a scanner.
    pub fn new(instrument: Instrument, model: EarthModel) -> Self {
        Scanner { instrument, model }
    }

    /// Lattice of `band_idx` for a given sector (applies per-sector
    /// drift for airborne-style instruments).
    pub fn sector_lattice(&self, band_idx: usize, sector: u64) -> LatticeGeoref {
        let mut lat = self.instrument.band_lattice(band_idx);
        let (dx, dy) = self.instrument_drift();
        lat.origin =
            Coord::new(lat.origin.x + dx * sector as f64, lat.origin.y + dy * sector as f64);
        lat
    }

    fn instrument_drift(&self) -> (f64, f64) {
        self.instrument.drift_per_sector
    }

    /// A lazy stream of `n_sectors` sectors for one band.
    pub fn band_stream(&self, band_idx: usize, n_sectors: u64) -> SyntheticStream {
        self.band_stream_from(band_idx, 0, n_sectors)
    }

    /// A lazy stream of `n_sectors` sectors for one band, starting at
    /// `first_sector` (the "now" of a live feed joining a downlink that
    /// has been transmitting for a while). Frame ids are assigned from
    /// the global scan position, so `band_stream_from(b, k, n)` emits
    /// exactly the frames (ids included) that sectors `[k, k+n)` of
    /// `band_stream(b, k+n)` would — archived history and a late-started
    /// live feed agree on identity.
    pub fn band_stream_from(
        &self,
        band_idx: usize,
        first_sector: u64,
        n_sectors: u64,
    ) -> SyntheticStream {
        let ins = &self.instrument;
        assert!(band_idx < ins.bands.len(), "band index out of range");
        let band = &ins.bands[band_idx];
        let mut schema = StreamSchema::new(format!("{}.{}", ins.name, band.name), ins.crs);
        schema.band = band.id;
        schema.organization = ins.organization;
        schema.time_semantics = ins.time_semantics;
        schema.value_range = (0.0, 1.0);
        schema.sector_lattice = Some(ins.band_lattice(band_idx));
        let projection = ins.crs.projection().expect("instrument CRS must project");
        SyntheticStream {
            scanner: self.clone(),
            sampler: EarthSampler::new(&self.model, band.kind, 0),
            band_idx,
            n_sectors: first_sector + n_sectors,
            projection,
            schema,
            sector: first_sector,
            row: 0,
            col: 0,
            burst_left: 0,
            next_frame_id: first_sector * self.frames_per_sector(band_idx),
            phase: Phase::SectorStart,
            lattice: None,
            stats: OpStats::default(),
            points_emitted: 0,
        }
    }

    /// Frames one sector of `band_idx` decomposes into (rows for
    /// row-by-row instruments, one whole image for frame cameras, point
    /// bursts for LIDAR-style instruments).
    pub fn frames_per_sector(&self, band_idx: usize) -> u64 {
        let lat = self.instrument.band_lattice(band_idx);
        match self.instrument.organization {
            Organization::ImageByImage => 1,
            Organization::RowByRow => u64::from(lat.height),
            Organization::PointByPoint => {
                u64::from(lat.height) * u64::from(lat.width.div_ceil(POINT_BURST))
            }
        }
    }

    /// Stream for a band selected by its id.
    pub fn band_stream_by_id(&self, band_id: u16, n_sectors: u64) -> Option<SyntheticStream> {
        self.instrument.band_index(band_id).map(|i| self.band_stream(i, n_sectors))
    }

    /// The physical downlink order of two bands over `n_sectors`
    /// sectors: `(side, element)` pairs where side 0 is `band_a`.
    ///
    /// * image-by-image instruments transmit band-sequentially: all of
    ///   `band_a`'s sector, then all of `band_b`'s;
    /// * row-by-row instruments interleave line by line;
    /// * point-by-point instruments alternate small bursts.
    pub fn multiplexed_transport(
        &self,
        band_a: usize,
        band_b: usize,
        n_sectors: u64,
    ) -> Vec<(u8, Element<f32>)> {
        let mut out = Vec::new();
        for sector in 0..n_sectors {
            let mut sa = self.band_stream(band_a, sector + 1);
            let mut sb = self.band_stream(band_b, sector + 1);
            // Skip to this sector.
            let a: Vec<Element<f32>> = sector_elements(&mut sa, sector);
            let b: Vec<Element<f32>> = sector_elements(&mut sb, sector);
            match self.instrument.organization {
                Organization::ImageByImage => {
                    out.extend(a.into_iter().map(|e| (0u8, e)));
                    out.extend(b.into_iter().map(|e| (1u8, e)));
                }
                Organization::RowByRow | Organization::PointByPoint => {
                    // Interleave frame groups (a line or a burst each).
                    let ga = frame_groups(a);
                    let gb = frame_groups(b);
                    let mut ita = ga.into_iter();
                    let mut itb = gb.into_iter();
                    loop {
                        match (ita.next(), itb.next()) {
                            (None, None) => break,
                            (x, y) => {
                                if let Some(g) = x {
                                    out.extend(g.into_iter().map(|e| (0u8, e)));
                                }
                                if let Some(g) = y {
                                    out.extend(g.into_iter().map(|e| (1u8, e)));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Collects the elements of exactly one sector index from a stream.
fn sector_elements(stream: &mut SyntheticStream, sector: u64) -> Vec<Element<f32>> {
    let mut out = Vec::new();
    let mut in_target = false;
    let mut input = ChunkInput::new(stream);
    while let Some(el) = input.pull() {
        match &el {
            Element::SectorStart(si) if si.sector_id == sector => {
                in_target = true;
                out.push(el);
            }
            Element::SectorEnd(se) if in_target => {
                let done = se.sector_id == sector;
                out.push(el);
                if done {
                    break;
                }
            }
            _ if in_target => out.push(el),
            _ => {}
        }
    }
    out
}

/// Splits a sector's elements into groups of whole frames (keeping the
/// sector markers attached to the first/last group).
fn frame_groups(els: Vec<Element<f32>>) -> Vec<Vec<Element<f32>>> {
    let mut groups: Vec<Vec<Element<f32>>> = vec![Vec::new()];
    for el in els {
        let boundary = matches!(el, Element::FrameEnd(_));
        groups.last_mut().expect("nonempty").push(el);
        if boundary {
            groups.push(Vec::new());
        }
    }
    groups.retain(|g| !g.is_empty());
    groups
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SectorStart,
    FrameStart,
    /// Inside a frame: `next_chunk` emits its points, and its `FrameEnd`
    /// once they are exhausted.
    Points,
    SectorEnd,
    Done,
}

/// A lazily-generated band stream (implements [`GeoStream`]).
pub struct SyntheticStream {
    scanner: Scanner,
    /// The band's radiance at the open sector's logical time.
    sampler: EarthSampler,
    band_idx: usize,
    n_sectors: u64,
    projection: Box<dyn Projection>,
    schema: StreamSchema,
    sector: u64,
    row: u32,
    col: u32,
    burst_left: u32,
    next_frame_id: u64,
    phase: Phase,
    lattice: Option<LatticeGeoref>,
    stats: OpStats,
    points_emitted: u64,
}

impl SyntheticStream {
    fn timestamp(&self) -> Timestamp {
        match self.schema.time_semantics {
            TimeSemantics::SectorId => Timestamp::new(self.sector as i64),
            TimeSemantics::MeasurementTime => Timestamp::new(
                self.sector as i64 * self.scanner.instrument.sector_period * 1_000_000
                    + self.points_emitted as i64,
            ),
        }
    }

    fn sample(&mut self, lattice: &LatticeGeoref, cell: Cell) -> f32 {
        match self.projection.inverse(lattice.cell_to_world(cell)) {
            Ok(lonlat) => self.sampler.sample(lonlat) as f32,
            Err(_) => 0.0, // off-Earth view (e.g. beyond the limb)
        }
    }

    /// Cells covered by the frame that starts at the current cursor.
    fn frame_cells(&self, lattice: &LatticeGeoref) -> CellBox {
        match self.scanner.instrument.organization {
            Organization::ImageByImage => CellBox::full(lattice.width, lattice.height),
            Organization::RowByRow => {
                CellBox::new(0, self.row, lattice.width.saturating_sub(1), self.row)
            }
            Organization::PointByPoint => {
                // A burst along the current row.
                let end = (self.col + POINT_BURST - 1).min(lattice.width.saturating_sub(1));
                CellBox::new(self.col, self.row, end, self.row)
            }
        }
    }

    /// The marker phases of the scan: the next framing marker, or `None`
    /// once every sector is done. Called in the points phase, it closes
    /// the frame whose cells are exhausted.
    fn step(&mut self) -> Option<Marker> {
        loop {
            match self.phase {
                Phase::Done => return None,
                Phase::SectorStart => {
                    if self.sector >= self.n_sectors {
                        self.phase = Phase::Done;
                        continue;
                    }
                    let lattice = self.scanner.sector_lattice(self.band_idx, self.sector);
                    self.lattice = Some(lattice);
                    self.sampler
                        .set_time(self.sector as i64 * self.scanner.instrument.sector_period);
                    self.row = 0;
                    self.col = 0;
                    self.phase = Phase::FrameStart;
                    return Some(Marker::SectorStart(SectorInfo {
                        sector_id: self.sector,
                        lattice,
                        band: self.scanner.instrument.bands[self.band_idx].id,
                        organization: self.scanner.instrument.organization,
                        timestamp: Timestamp::new(self.sector as i64),
                    }));
                }
                Phase::FrameStart => {
                    let lattice = self.lattice.expect("sector open");
                    if lattice.is_empty() || self.row >= lattice.height {
                        self.phase = Phase::SectorEnd;
                        continue;
                    }
                    let cells = self.frame_cells(&lattice);
                    self.burst_left = cells.width();
                    let info = FrameInfo {
                        frame_id: self.next_frame_id,
                        sector_id: self.sector,
                        timestamp: self.timestamp(),
                        cells,
                        // Event-time origin: the instrument materialized
                        // this frame *now*; e2e lag is measured from here.
                        synth_ns: geostreams_core::obs::now_ns(),
                    };
                    self.phase = Phase::Points;
                    self.stats.frames_out += 1;
                    return Some(Marker::FrameStart(info));
                }
                Phase::Points => {
                    let lattice = self.lattice.expect("sector open");
                    let frame_id = self.next_frame_id;
                    self.next_frame_id += 1;
                    // Position the cursor for the next frame.
                    match self.scanner.instrument.organization {
                        Organization::ImageByImage => {
                            self.row = lattice.height; // sector complete
                        }
                        Organization::RowByRow => {
                            self.col = 0;
                            self.row += 1;
                        }
                        Organization::PointByPoint => {
                            if self.col >= lattice.width {
                                self.col = 0;
                                self.row += 1;
                            }
                        }
                    }
                    self.phase = if self.row >= lattice.height {
                        Phase::SectorEnd
                    } else {
                        Phase::FrameStart
                    };
                    return Some(Marker::FrameEnd(FrameEnd { frame_id, sector_id: self.sector }));
                }
                Phase::SectorEnd => {
                    let id = self.sector;
                    self.sector += 1;
                    self.phase = Phase::SectorStart;
                    return Some(Marker::SectorEnd(SectorEnd { sector_id: id }));
                }
            }
        }
    }
}

impl GeoStream for SyntheticStream {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        if self.phase != Phase::Points {
            return self.step().map(ChunkOrMarker::Marker);
        }
        // Points phase: the rest of the frame's run. `points_emitted`
        // advances per point because MeasurementTime timestamps derive
        // from it.
        let budget = budget.max(1);
        let (mut chunk, mut end) = (Chunk::with_budget(budget), None);
        let lattice = self.lattice.expect("sector open");
        let org = self.scanner.instrument.organization;
        while chunk.points.len() < budget {
            let frame_exhausted = match org {
                Organization::ImageByImage => self.row >= lattice.height,
                Organization::RowByRow => self.col >= lattice.width,
                Organization::PointByPoint => self.burst_left == 0 || self.col >= lattice.width,
            };
            if frame_exhausted {
                // The frame's end cuts the run short.
                end = self.step();
                break;
            }
            let cell = Cell::new(self.col, self.row);
            let v = self.sample(&lattice, cell);
            self.points_emitted += 1;
            self.stats.points_out += 1;
            self.col += 1;
            if self.burst_left > 0 {
                self.burst_left -= 1;
            }
            if self.col >= lattice.width && org == Organization::ImageByImage {
                self.col = 0;
                self.row += 1;
            }
            chunk.points.push(PointRecord { cell, value: v });
        }
        chunk.into_item(end)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{BandKind, EarthModel};
    use crate::instrument::BandSpec;
    use geostreams_geo::{Crs, Rect};

    fn instrument(org: Organization) -> Instrument {
        Instrument {
            name: "sim".into(),
            crs: Crs::LatLon,
            organization: org,
            time_semantics: TimeSemantics::SectorId,
            bands: vec![
                BandSpec { id: 1, name: "vis".into(), kind: BandKind::Visible, reduction: 1 },
                BandSpec { id: 2, name: "nir".into(), kind: BandKind::NearInfrared, reduction: 1 },
            ],
            base_lattice: LatticeGeoref::north_up(
                Crs::LatLon,
                Rect::new(-100.0, 30.0, -92.0, 38.0),
                8,
                8,
            ),
            sector_period: 1,
            drift_per_sector: (0.0, 0.0),
        }
    }

    fn scanner(org: Organization) -> Scanner {
        Scanner::new(instrument(org), EarthModel::new(7))
    }

    #[test]
    fn row_by_row_emits_one_frame_per_row() {
        let mut s = scanner(Organization::RowByRow).band_stream(0, 1);
        let els = s.drain_elements();
        let frames = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        assert_eq!(frames, 8);
        let points = els.iter().filter(|e| e.is_point()).count();
        assert_eq!(points, 64);
    }

    #[test]
    fn image_by_image_emits_single_frame() {
        let mut s = scanner(Organization::ImageByImage).band_stream(0, 1);
        let els = s.drain_elements();
        let frames = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        assert_eq!(frames, 1);
        assert_eq!(els.iter().filter(|e| e.is_point()).count(), 64);
    }

    #[test]
    fn point_by_point_emits_bursts() {
        let mut s = scanner(Organization::PointByPoint).band_stream(0, 1);
        let els = s.drain_elements();
        let frames = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        // 8 cols per row < 16-point burst: one burst per row.
        assert_eq!(frames, 8);
        assert_eq!(els.iter().filter(|e| e.is_point()).count(), 64);
    }

    #[test]
    fn sectors_advance_with_timestamps() {
        let mut s = scanner(Organization::RowByRow).band_stream(0, 3);
        let els = s.drain_elements();
        let sector_ids: Vec<u64> = els
            .iter()
            .filter_map(|e| match e {
                Element::SectorStart(si) => Some(si.sector_id),
                _ => None,
            })
            .collect();
        assert_eq!(sector_ids, vec![0, 1, 2]);
        for el in &els {
            if let Element::FrameStart(fi) = el {
                assert_eq!(fi.timestamp.value() as u64, fi.sector_id);
            }
        }
    }

    #[test]
    fn values_match_the_model_directly() {
        let sc = scanner(Organization::RowByRow);
        let mut s = sc.band_stream(0, 1);
        let lattice = sc.sector_lattice(0, 0);
        let pts = s.drain_points();
        for p in pts.iter().step_by(7) {
            let ll = lattice.cell_to_world(p.cell);
            let expect = sc.model.visible(ll, 0) as f32;
            assert_eq!(p.value, expect);
        }
    }

    #[test]
    fn stream_values_are_deterministic() {
        let a: Vec<f32> = scanner(Organization::RowByRow)
            .band_stream(0, 2)
            .drain_points()
            .iter()
            .map(|p| p.value)
            .collect();
        let b: Vec<f32> = scanner(Organization::RowByRow)
            .band_stream(0, 2)
            .drain_points()
            .iter()
            .map(|p| p.value)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn multiplexed_transport_band_sequential_for_images() {
        let sc = scanner(Organization::ImageByImage);
        let t = sc.multiplexed_transport(0, 1, 1);
        // First half all side 0, second half all side 1.
        let first_b = t.iter().position(|(s, _)| *s == 1).unwrap();
        assert!(t[..first_b].iter().all(|(s, _)| *s == 0));
        assert!(t[first_b..].iter().all(|(s, _)| *s == 1));
    }

    #[test]
    fn multiplexed_transport_interleaves_rows() {
        let sc = scanner(Organization::RowByRow);
        let t = sc.multiplexed_transport(0, 1, 1);
        // Longest run of one side ≈ one row's elements, far below a
        // whole image.
        let mut longest = 0;
        let mut run = 0;
        let mut cur = 2u8;
        for (s, _) in &t {
            if *s == cur {
                run += 1;
            } else {
                cur = *s;
                run = 1;
            }
            longest = longest.max(run);
        }
        assert!(longest <= 12, "longest same-side run {longest}");
    }

    #[test]
    fn measurement_time_gives_unique_timestamps() {
        let mut ins = instrument(Organization::PointByPoint);
        ins.time_semantics = TimeSemantics::MeasurementTime;
        let sc = Scanner::new(ins, EarthModel::new(7));
        let mut s = sc.band_stream(0, 1);
        let els = s.drain_elements();
        let mut stamps: Vec<i64> = els
            .iter()
            .filter_map(|e| match e {
                Element::FrameStart(fi) => Some(fi.timestamp.value()),
                _ => None,
            })
            .collect();
        let n = stamps.len();
        stamps.dedup();
        assert_eq!(stamps.len(), n, "burst timestamps must differ");
    }

    #[test]
    fn band_stream_from_matches_the_tail_of_a_full_run() {
        for org in [Organization::RowByRow, Organization::ImageByImage, Organization::PointByPoint]
        {
            let sc = scanner(org);
            let full: Vec<Element<f32>> = sc.band_stream(0, 4).drain_elements();
            let tail: Vec<Element<f32>> = sc.band_stream_from(0, 2, 2).drain_elements();
            // The late-started stream is exactly the suffix of the full
            // run from sector 2 on — frame ids included.
            let cut = full
                .iter()
                .position(|e| matches!(e, Element::SectorStart(si) if si.sector_id == 2))
                .unwrap();
            assert_eq!(&full[cut..], &tail[..], "{org}");
        }
    }

    #[test]
    fn drift_shifts_sector_lattices() {
        let mut ins = instrument(Organization::ImageByImage);
        ins.drift_per_sector = (1.0, 0.5);
        let sc = Scanner::new(ins, EarthModel::new(7));
        let l0 = sc.sector_lattice(0, 0);
        let l2 = sc.sector_lattice(0, 2);
        assert!((l2.origin.x - l0.origin.x - 2.0).abs() < 1e-12);
        assert!((l2.origin.y - l0.origin.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preset_streams_equal_the_model_point_for_point() {
        // The stream samples through `EarthSampler`; the oracle is one
        // `EarthModel::sample` per point. Sectors > 0 move `t`; the
        // airborne preset drifts its lattice; a full-disk GOES view has
        // cells beyond the limb (value 0).
        let presets = [
            ("goes", crate::goes_like(96, 48, 11)),
            ("modis", crate::modis_like(40, 24, -110.0, 20.0, 12)),
            (
                "lidar",
                crate::lidar::lidar_profiler(Rect::new(-100.0, 30.0, -99.0, 31.0), 40, 6, 13),
            ),
            (
                "airborne",
                crate::airborne::airborne_camera(Rect::new(-122.0, 37.0, -121.5, 37.4), 24, 16, 14),
            ),
        ];
        for (name, sc) in presets {
            assert!(name != "airborne" || sc.instrument.drift_per_sector != (0.0, 0.0));
            for band_idx in 0..sc.instrument.bands.len() {
                let kind = sc.instrument.bands[band_idx].kind;
                let projection = sc.instrument.crs.projection().unwrap();
                let scalar = sc.band_stream(band_idx, 3).drain_elements();
                let (mut lattice, mut t, mut off_earth) = (None, 0, 0);
                for el in &scalar {
                    match el {
                        Element::SectorStart(si) => {
                            lattice = Some(si.lattice);
                            t = si.sector_id as i64 * sc.instrument.sector_period;
                        }
                        Element::Point(p) => {
                            let world = lattice.unwrap().cell_to_world(p.cell);
                            let expect = match projection.inverse(world) {
                                Ok(lonlat) => sc.model.sample(kind, lonlat, t) as f32,
                                Err(_) => {
                                    off_earth += 1;
                                    0.0
                                }
                            };
                            assert_eq!(p.value.to_bits(), expect.to_bits(), "{name} {kind:?}");
                        }
                        _ => {}
                    }
                }
                assert!(name != "goes" || off_earth > 0, "the GOES disk has off-limb cells");
            }
        }
    }
}
