//! Stream restrictions (§3.1): spatial, temporal, and value.
//!
//! "It is obvious that all three restriction operators can process
//! incoming image data on a point-by-point basis and thus can be
//! evaluated without storage for any intermediate point data. That is,
//! all restriction operators are non-blocking and have constant cost per
//! point, independent of the size of the input stream." — the
//! implementations below maintain **no** point buffers (only O(1)
//! per-frame metadata), and experiment E1 verifies the flat per-point
//! cost.

use crate::model::{ChunkOrMarker, FrameInfo, GeoStream, Marker, StreamSchema, TimeSet};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{CellBox, LatticeGeoref, Region};
use geostreams_raster::Pixel;
use std::collections::VecDeque;

/// Lazily-opened output frame: restrictions drop entire frames that end
/// up empty, so `FrameStart` is withheld until the first surviving point.
#[derive(Debug, Default)]
struct LazyFrame {
    pending: Option<FrameInfo>,
    open: bool,
}

impl LazyFrame {
    fn begin(&mut self, info: FrameInfo) {
        self.pending = Some(info);
        self.open = false;
    }

    /// Accounts a run of `kept` surviving points; the first such run of
    /// a frame queues the frame's `FrameStart` ahead of itself.
    fn admit<V: Pixel>(
        &mut self,
        kept: usize,
        stats: &mut OpStats,
        queue: &mut VecDeque<ChunkOrMarker<V>>,
    ) {
        stats.points_out += kept as u64;
        if kept > 0 && !self.open {
            if let Some(fi) = self.pending.take() {
                self.open = true;
                stats.frames_out += 1;
                queue.push_back(ChunkOrMarker::Marker(Marker::FrameStart(fi)));
            }
        }
    }

    /// Called on input `FrameEnd`; returns whether the end should be
    /// forwarded (i.e. the frame was opened).
    fn close(&mut self) -> bool {
        let was_open = self.open;
        self.open = false;
        self.pending = None;
        was_open
    }
}

/// Spatial restriction `G|R` (Definition 6).
///
/// The region is interpreted in the stream's CRS. On every `SectorStart`
/// the region is converted into a lattice cell footprint **once**; each
/// point is then tested with two integer comparisons (plus an exact
/// geometric test for non-rectangular regions).
pub struct SpatialRestrict<S: GeoStream> {
    input: S,
    region: Region,
    /// Cell footprint of the region within the current sector lattice.
    footprint: Option<CellBox>,
    /// Whether the per-point exact `Region::contains` test is required.
    exact: bool,
    lattice: Option<LatticeGeoref>,
    frame: LazyFrame,
    /// Items ready to hand out: a lazily opened `FrameStart` precedes
    /// the first surviving run of its frame.
    queue: VecDeque<ChunkOrMarker<S::V>>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> SpatialRestrict<S> {
    /// Restricts the stream to `region` (coordinates in the stream CRS).
    pub fn new(input: S, region: Region) -> Self {
        let schema = input.schema().renamed("restrict_space");
        let exact = !region.is_rectangular();
        SpatialRestrict {
            input,
            region,
            footprint: None,
            exact,
            lattice: None,
            frame: LazyFrame::default(),
            queue: VecDeque::new(),
            stats: OpStats::default(),
            schema,
        }
    }

    /// The restriction region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Marker transition; returns the marker to forward, if any.
    fn chunk_marker(&mut self, m: Marker) -> Option<Marker> {
        match m {
            Marker::SectorStart(si) => {
                self.footprint = si.lattice.footprint_of_region(&self.region);
                self.lattice = Some(si.lattice);
                Some(Marker::SectorStart(si))
            }
            Marker::FrameStart(mut fi) => {
                self.stats.frames_in += 1;
                match self.footprint.and_then(|fp| fp.intersect(&fi.cells)) {
                    Some(isect) => {
                        fi.cells = isect;
                        self.frame.begin(fi);
                    }
                    None => {
                        self.frame.pending = None;
                        self.frame.open = false;
                    }
                }
                None
            }
            Marker::FrameEnd(fe) => {
                if self.frame.close() {
                    Some(Marker::FrameEnd(fe))
                } else {
                    self.stats.stalls += 1;
                    None
                }
            }
            Marker::SectorEnd(se) => Some(Marker::SectorEnd(se)),
        }
    }
}

impl<S: GeoStream> GeoStream for SpatialRestrict<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        loop {
            if let Some(item) = self.queue.pop_front() {
                return Some(item);
            }
            match self.input.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    if let Some(out) = self.chunk_marker(m) {
                        return Some(ChunkOrMarker::Marker(out));
                    }
                }
                ChunkOrMarker::Chunk(mut c) => {
                    // Batched accounting: one add per run, not per point.
                    self.stats.points_in += c.points.len() as u64;
                    let end = c.end.take();
                    // Frame state is constant across a run (runs never
                    // cross markers), so the per-point guards hoist out.
                    let swallowed = self.frame.pending.is_none() && !self.frame.open;
                    match self.footprint {
                        Some(_) if swallowed => c.points.clear(),
                        Some(fp) if self.exact => match self.lattice {
                            Some(lat) => {
                                let region = &self.region;
                                c.points.retain(|p| {
                                    fp.contains(p.cell)
                                        && region.contains(lat.cell_to_world(p.cell))
                                });
                            }
                            None => c.points.clear(),
                        },
                        Some(fp) => c.points.retain(|p| fp.contains(p.cell)),
                        None => c.points.clear(),
                    }
                    self.frame.admit(c.points.len(), &mut self.stats, &mut self.queue);
                    // The trailing marker is processed *after* the run's
                    // points, in element order.
                    let end_keep = end.and_then(|m| self.chunk_marker(m));
                    self.queue.extend(c.into_item(end_keep));
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Temporal restriction `G|T` (Definition 7).
///
/// Because every point of a frame shares one timestamp, the test runs
/// once per frame, not per point.
pub struct TemporalRestrict<S: GeoStream> {
    input: S,
    times: TimeSet,
    passing: bool,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> TemporalRestrict<S> {
    /// Restricts the stream to timestamps in `times`.
    pub fn new(input: S, times: TimeSet) -> Self {
        let schema = input.schema().renamed("restrict_time");
        TemporalRestrict { input, times, passing: false, stats: OpStats::default(), schema }
    }

    /// Marker transition; returns the marker to forward, if any.
    fn chunk_marker(&mut self, m: Marker) -> Option<Marker> {
        match m {
            Marker::FrameStart(fi) => {
                self.stats.frames_in += 1;
                self.passing = self.times.contains(fi.timestamp);
                if self.passing {
                    self.stats.frames_out += 1;
                    Some(Marker::FrameStart(fi))
                } else {
                    self.stats.stalls += 1;
                    None
                }
            }
            Marker::FrameEnd(fe) => {
                if self.passing {
                    self.passing = false;
                    Some(Marker::FrameEnd(fe))
                } else {
                    None
                }
            }
            other => Some(other),
        }
    }
}

impl<S: GeoStream> GeoStream for TemporalRestrict<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        loop {
            match self.input.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    if let Some(out) = self.chunk_marker(m) {
                        return Some(ChunkOrMarker::Marker(out));
                    }
                }
                ChunkOrMarker::Chunk(mut c) => {
                    self.stats.points_in += c.points.len() as u64;
                    let end = c.end.take();
                    // The frame test ran at FrameStart; the whole run
                    // shares its verdict.
                    let keep = self.passing;
                    if keep {
                        self.stats.points_out += c.points.len() as u64;
                    } else {
                        c.points.clear();
                    }
                    let end_keep = end.and_then(|m| self.chunk_marker(m));
                    if let Some(item) = c.into_item(end_keep) {
                        return Some(item);
                    }
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Value restriction `G|V` (§3.1): keeps points whose value (in the
/// arithmetic domain) falls into any of the given inclusive ranges.
pub struct ValueRestrict<S: GeoStream> {
    input: S,
    ranges: Vec<(f64, f64)>,
    frame: LazyFrame,
    /// Items ready to hand out: a lazily opened `FrameStart` precedes
    /// the first surviving run of its frame.
    queue: VecDeque<ChunkOrMarker<S::V>>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> ValueRestrict<S> {
    /// Restricts to values in `[lo, hi]`.
    pub fn range(input: S, lo: f64, hi: f64) -> Self {
        Self::ranges(input, vec![(lo, hi)])
    }

    /// Restricts to values in any of the inclusive ranges.
    pub fn ranges(input: S, ranges: Vec<(f64, f64)>) -> Self {
        let schema = input.schema().renamed("restrict_value");
        ValueRestrict {
            input,
            ranges,
            frame: LazyFrame::default(),
            queue: VecDeque::new(),
            stats: OpStats::default(),
            schema,
        }
    }

    /// Marker transition; returns the marker to forward, if any.
    fn chunk_marker(&mut self, m: Marker) -> Option<Marker> {
        match m {
            Marker::FrameStart(fi) => {
                self.stats.frames_in += 1;
                self.frame.begin(fi);
                None
            }
            Marker::FrameEnd(fe) => {
                if self.frame.close() {
                    Some(Marker::FrameEnd(fe))
                } else {
                    self.stats.stalls += 1;
                    None
                }
            }
            other => Some(other),
        }
    }
}

impl<S: GeoStream> GeoStream for ValueRestrict<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        loop {
            if let Some(item) = self.queue.pop_front() {
                return Some(item);
            }
            match self.input.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    if let Some(out) = self.chunk_marker(m) {
                        return Some(ChunkOrMarker::Marker(out));
                    }
                }
                ChunkOrMarker::Chunk(mut c) => {
                    self.stats.points_in += c.points.len() as u64;
                    let end = c.end.take();
                    let ranges = &self.ranges;
                    c.points.retain(|p| {
                        let v = p.value.to_f64();
                        ranges.iter().any(|&(lo, hi)| v >= lo && v <= hi)
                    });
                    self.frame.admit(c.points.len(), &mut self.stats, &mut self.queue);
                    let end_keep = end.and_then(|m| self.chunk_marker(m));
                    self.queue.extend(c.into_item(end_keep));
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// §3.1 restrictions are transparent forwarders: every marker and every
/// surviving point passes through in place, so the stream protocol of
/// the input is the stream protocol of the output.
pub fn restriction_contract(operator: &str) -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract::forwarding(operator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, Timestamp, VecStream};
    use geostreams_geo::{Cell, Crs, LatticeGeoref, Polygon, Rect};

    fn lattice() -> LatticeGeoref {
        // 10x10 cells over lon [0,10], lat [0,10]; row 0 at the top.
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10)
    }

    fn source() -> VecStream<f32> {
        VecStream::single_sector("src", lattice(), 0, |c, r| f64::from(c + 10 * r))
    }

    #[test]
    fn spatial_rect_keeps_only_inside() {
        let region = Region::Rect(Rect::new(0.0, 8.0, 3.0, 10.0)); // NW corner
        let mut op = SpatialRestrict::new(source(), region.clone());
        let pts = op.drain_points();
        // Rows 0..2 (lat in (8,10)), cols 0..2 have centers inside.
        for p in &pts {
            let w = lattice().cell_to_world(p.cell);
            assert!(region.contains(w), "{:?} -> {w} escaped the region", p.cell);
        }
        assert_eq!(pts.len(), 3 * 2); // col centers 0.5,1.5,2.5 x row centers 8.5,9.5
        let st = op.op_stats();
        assert_eq!(st.points_in, 100);
        assert_eq!(st.points_out, pts.len() as u64);
        assert_eq!(st.buffered_points_peak, 0, "restriction must not buffer points");
    }

    #[test]
    fn spatial_restrict_emits_no_empty_frames() {
        let region = Region::Rect(Rect::new(0.0, 9.0, 10.0, 10.0)); // top row only
        let mut op = SpatialRestrict::new(source(), region);
        let els = op.drain_elements();
        let frames = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        assert_eq!(frames, 1, "only the surviving row's frame is forwarded");
        // Frame bookkeeping is balanced.
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert_eq!(frames, ends);
    }

    #[test]
    fn spatial_restrict_disjoint_region_drops_everything() {
        let region = Region::Rect(Rect::new(100.0, 100.0, 110.0, 110.0));
        let mut op = SpatialRestrict::new(source(), region);
        let els = op.drain_elements();
        assert!(els.iter().all(|e| !e.is_point()));
        // Sector metadata still flows (downstream operators need it).
        assert!(els.iter().any(|e| matches!(e, Element::SectorStart(_))));
    }

    #[test]
    fn spatial_restrict_polygon_is_exact() {
        // Triangle covering the lower-left half of the grid.
        let tri = Polygon::new(vec![
            geostreams_geo::Coord::new(0.0, 0.0),
            geostreams_geo::Coord::new(10.0, 0.0),
            geostreams_geo::Coord::new(0.0, 10.0),
        ])
        .unwrap();
        let region = Region::Polygon(tri.clone());
        let mut op = SpatialRestrict::new(source(), region);
        let pts = op.drain_points();
        for p in &pts {
            let w = lattice().cell_to_world(p.cell);
            assert!(tri.contains(w));
        }
        // Roughly half the 100 cells (minus the diagonal) survive.
        assert!(pts.len() > 35 && pts.len() < 50, "{} points", pts.len());
    }

    #[test]
    fn temporal_interval_keeps_matching_sectors() {
        let mut src: VecStream<f32> = VecStream::sectors("src", lattice(), 5, |s, _, _| s as f64);
        let _ = &mut src;
        let op = TemporalRestrict::new(src, TimeSet::Interval { lo: Some(1), hi: Some(3) });
        let mut op = op;
        let pts = op.drain_points();
        assert_eq!(pts.len(), 2 * 100); // sectors 1 and 2
        assert!(pts.iter().all(|p| p.value == 1.0 || p.value == 2.0));
        assert_eq!(op.op_stats().buffered_points_peak, 0);
    }

    #[test]
    fn temporal_restrict_forwards_frame_timestamps() {
        let src: VecStream<f32> = VecStream::sectors("src", lattice(), 4, |s, _, _| s as f64);
        let mut op = TemporalRestrict::new(src, TimeSet::Instants(vec![3]));
        let els = op.drain_elements();
        for el in &els {
            if let Element::FrameStart(fi) = el {
                assert_eq!(fi.timestamp, Timestamp::new(3));
            }
        }
    }

    #[test]
    fn value_restrict_filters_by_range() {
        let mut op = ValueRestrict::range(source(), 10.0, 19.0); // row 1 only
        let pts = op.drain_points();
        assert_eq!(pts.len(), 10);
        assert!(pts.iter().all(|p| p.cell.row == 1));
        assert_eq!(op.op_stats().buffered_points_peak, 0);
    }

    #[test]
    fn value_restrict_multiple_ranges() {
        let mut op = ValueRestrict::ranges(source(), vec![(0.0, 4.0), (95.0, 99.0)]);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 10);
    }

    #[test]
    fn restrictions_compose_and_stay_closed() {
        // Chaining restrictions yields a GeoStream again (closure).
        let region = Region::Rect(Rect::new(0.0, 0.0, 10.0, 10.0));
        let op = SpatialRestrict::new(source(), region);
        let op = ValueRestrict::range(op, 0.0, 50.0);
        let mut op = TemporalRestrict::new(op, TimeSet::Interval { lo: None, hi: None });
        let pts = op.drain_points();
        assert_eq!(pts.len(), 51);
        let mut report = Vec::new();
        op.collect_stats(&mut report);
        let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["src", "restrict_space", "restrict_value", "restrict_time"]);
    }

    #[test]
    fn spatial_restrict_cell_for_point_cheap_path() {
        // Rectangular region: exact flag must be off.
        let op = SpatialRestrict::new(source(), Region::Rect(Rect::new(0.0, 0.0, 5.0, 5.0)));
        assert!(!op.exact);
        let op2 = SpatialRestrict::new(
            source(),
            Region::Points { coords: vec![geostreams_geo::Coord::new(2.5, 2.5)], tolerance: 0.4 },
        );
        assert!(op2.exact);
    }

    #[test]
    fn enumerated_point_region_snaps_single_cell() {
        // Cell (2, 7) center is at lon 2.5, lat 2.5.
        let region =
            Region::Points { coords: vec![geostreams_geo::Coord::new(2.5, 2.5)], tolerance: 0.4 };
        let mut op = SpatialRestrict::new(source(), region);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].cell, Cell::new(2, 7));
    }
}
