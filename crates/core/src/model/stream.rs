//! The `GeoStream` trait — one required pull, `next_chunk`; the
//! one-element `next_element` and the drains are built on it — and the
//! basic sources.

use super::chunk::{drain_chunked, Chunk, ChunkOrMarker, Marker, DEFAULT_CHUNK_BUDGET};
use super::element::{Element, FrameEnd, FrameInfo, PointRecord, SectorEnd, SectorInfo};
use super::schema::{Organization, StreamSchema};
use super::timestamp::Timestamp;
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, LatticeGeoref};
use geostreams_raster::Pixel;

/// A pull-based stream of geospatial image data (Definition 3/5 of the
/// paper, plus transport framing).
///
/// The algebra is *closed*: every operator consumes one or two
/// `GeoStream`s and is itself a `GeoStream`, which is what lets complex
/// queries compose (§3: "the result of applying an operator to one or two
/// GeoStreams is again a GeoStream").
pub trait GeoStream {
    /// Pixel type of the stream's value set.
    type V: Pixel;

    /// Static schema.
    fn schema(&self) -> &StreamSchema;

    /// Pulls the next run of up to `budget` points, or a standalone
    /// marker; `None` means the stream has ended. This is the stream
    /// protocol: see [`crate::model::chunk`] for the chunk contract.
    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<Self::V>>;

    /// Pulls the next element: a budget-1 [`next_chunk`](Self::next_chunk),
    /// whose item is exactly one element under the contract's budget
    /// rule. For tests, examples and one-off readers; an operator reads
    /// its input through [`ChunkInput`](super::chunk::ChunkInput).
    fn next_element(&mut self) -> Option<Element<Self::V>> {
        match self.next_chunk(1)? {
            ChunkOrMarker::Marker(m) => Some(m.into_element()),
            ChunkOrMarker::Chunk(c) => {
                let p = c.points.first().copied();
                c.recycle();
                p.map(Element::Point)
            }
        }
    }

    /// This operator's own counters (sources may return zeros).
    fn op_stats(&self) -> OpStats {
        OpStats::default()
    }

    /// Appends this operator's (and its inputs') stats to a report,
    /// upstream first.
    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        out.push(OpReport::new(self.schema().name.clone(), self.op_stats()));
    }

    /// Drains the stream, returning only the point records (test helper).
    fn drain_points(&mut self) -> Vec<PointRecord<Self::V>> {
        let mut out = Vec::new();
        while let Some(item) = self.next_chunk(DEFAULT_CHUNK_BUDGET) {
            if let ChunkOrMarker::Chunk(c) = &item {
                out.extend_from_slice(&c.points);
            }
            item.recycle();
        }
        out
    }

    /// Drains the stream, returning every element (test helper).
    fn drain_elements(&mut self) -> Vec<Element<Self::V>> {
        drain_chunked(self, DEFAULT_CHUNK_BUDGET)
    }
}

/// Boxed dynamically-typed stream used by the planner (pipelines are
/// normalized to `f32` pixels; sources of other types get a cast
/// adapter).
pub type BoxedF32Stream = Box<dyn GeoStream<V = f32> + Send>;

impl<S: GeoStream + ?Sized> GeoStream for Box<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        (**self).schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<Self::V>> {
        (**self).next_chunk(budget)
    }

    fn op_stats(&self) -> OpStats {
        (**self).op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        (**self).collect_stats(out)
    }
}

impl<S: GeoStream + ?Sized> GeoStream for &mut S {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        (**self).schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<Self::V>> {
        (**self).next_chunk(budget)
    }

    fn op_stats(&self) -> OpStats {
        (**self).op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        (**self).collect_stats(out)
    }
}

/// A source that replays a pre-built element sequence. The workhorse of
/// unit tests and a building block for trace replay.
#[derive(Debug, Clone)]
pub struct VecStream<V> {
    schema: StreamSchema,
    elements: Vec<Element<V>>,
    /// Replay cursor into `elements` (a slice position rather than a
    /// consuming iterator, so the chunk path can copy whole point runs).
    idx: usize,
    stats: OpStats,
}

impl<V: Pixel> VecStream<V> {
    /// Creates a source from a schema and element sequence.
    pub fn new(schema: StreamSchema, elements: Vec<Element<V>>) -> Self {
        VecStream { schema, elements, idx: 0, stats: OpStats::default() }
    }

    /// Builds a single-sector stream over `lattice` with one frame per
    /// row (row-by-row organization) whose values come from `f(col, row)`.
    pub fn single_sector(
        name: &str,
        lattice: LatticeGeoref,
        sector_id: u64,
        f: impl Fn(u32, u32) -> f64,
    ) -> VecStream<V> {
        let mut schema = StreamSchema::new(name, lattice.crs);
        schema.sector_lattice = Some(lattice);
        let mut elements = Vec::new();
        push_sector(&mut elements, lattice, sector_id, Organization::RowByRow, 0, &f);
        VecStream::new(schema, elements)
    }

    /// Sets the schema's nominal value range (builder style).
    pub fn with_value_range(mut self, lo: f64, hi: f64) -> Self {
        self.schema.value_range = (lo, hi);
        self
    }

    /// Sets the schema's organization tag (builder style).
    pub fn with_organization(mut self, org: Organization) -> Self {
        self.schema.organization = org;
        self
    }

    /// Builds a multi-sector, row-by-row stream; sector `i` gets
    /// timestamp `i` and values `f(sector, col, row)`.
    pub fn sectors(
        name: &str,
        lattice: LatticeGeoref,
        n_sectors: u64,
        f: impl Fn(u64, u32, u32) -> f64,
    ) -> VecStream<V> {
        let mut schema = StreamSchema::new(name, lattice.crs);
        schema.sector_lattice = Some(lattice);
        let mut elements = Vec::new();
        let mut frame_id = 0;
        for s in 0..n_sectors {
            push_sector(&mut elements, lattice, s, Organization::RowByRow, frame_id, &|c, r| {
                f(s, c, r)
            });
            frame_id += u64::from(lattice.height);
        }
        VecStream::new(schema, elements)
    }
}

/// Appends a full sector in row-by-row organization to `elements`.
fn push_sector<V: Pixel>(
    elements: &mut Vec<Element<V>>,
    lattice: LatticeGeoref,
    sector_id: u64,
    organization: Organization,
    first_frame_id: u64,
    f: &impl Fn(u32, u32) -> f64,
) {
    let ts = Timestamp::new(sector_id as i64);
    elements.push(Element::SectorStart(SectorInfo {
        sector_id,
        lattice,
        band: 0,
        organization,
        timestamp: ts,
    }));
    for row in 0..lattice.height {
        let frame_id = first_frame_id + u64::from(row);
        elements.push(Element::FrameStart(FrameInfo {
            frame_id,
            sector_id,
            timestamp: ts,
            cells: CellBox::new(0, row, lattice.width.saturating_sub(1), row),
            synth_ns: crate::obs::now_ns(),
        }));
        for col in 0..lattice.width {
            elements.push(Element::point(Cell::new(col, row), V::from_f64(f(col, row))));
        }
        elements.push(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
    }
    elements.push(Element::SectorEnd(SectorEnd { sector_id }));
}

impl<V: Pixel> GeoStream for VecStream<V> {
    type V = V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    /// Batch-native pull: the backing sequence is already materialized,
    /// so a whole run of points is copied straight off the slice with no
    /// per-element dispatch.
    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<V>> {
        let budget = budget.max(1);
        let first = self.elements.get(self.idx)?;
        if let Ok(m) = Marker::from_element(first.clone()) {
            self.idx += 1;
            if matches!(m, Marker::FrameStart(_)) {
                self.stats.frames_out += 1;
            }
            return Some(ChunkOrMarker::Marker(m));
        }
        let rest = &self.elements[self.idx..];
        let run = rest.iter().take(budget).take_while(|e| matches!(e, Element::Point(_))).count();
        let mut chunk = Chunk::with_budget(budget);
        chunk.points.extend(rest[..run].iter().filter_map(|e| match e {
            Element::Point(p) => Some(*p),
            _ => None,
        }));
        self.idx += run;
        self.stats.points_out += run as u64;
        if run < budget {
            // The run ended at a marker; fold it into the chunk.
            if let Some(el) = self.elements.get(self.idx) {
                if let Ok(m) = Marker::from_element(el.clone()) {
                    if matches!(m, Marker::FrameStart(_)) {
                        self.stats.frames_out += 1;
                    }
                    chunk.end = Some(m);
                    self.idx += 1;
                }
            }
        }
        Some(ChunkOrMarker::Chunk(chunk))
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// A source that pulls whole [`ChunkOrMarker`] items from a
/// caller-supplied closure — the adapter the DSMS uses to feed operator
/// pipelines from ingest channels, so chunks cross them intact instead
/// of being re-split into per-point sends. An item whose run is longer
/// than the pull's budget is served in budget-sized pieces.
pub struct ChunkChannel<V: Pixel> {
    schema: StreamSchema,
    pull: Box<dyn FnMut() -> Option<ChunkOrMarker<V>> + Send>,
    /// What is left of an item cut down to an earlier pull's budget.
    rest: Option<ChunkOrMarker<V>>,
    stats: OpStats,
}

impl<V: Pixel> ChunkChannel<V> {
    /// Creates a source from a chunk-pull closure (return `None` to end
    /// the stream).
    pub fn new(
        schema: StreamSchema,
        pull: impl FnMut() -> Option<ChunkOrMarker<V>> + Send + 'static,
    ) -> Self {
        ChunkChannel { schema, pull: Box::new(pull), rest: None, stats: OpStats::default() }
    }
}

impl<V: Pixel> GeoStream for ChunkChannel<V> {
    type V = V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<V>> {
        let budget = budget.max(1);
        let mut item = match self.rest.take() {
            Some(rest) => rest,
            None => (self.pull)()?,
        };
        if let ChunkOrMarker::Chunk(c) = &mut item {
            if c.points.len() > budget || (c.points.len() == budget && c.end.is_some()) {
                // Keep the points past the budget, and the marker, for
                // the next pull: a full run carries no marker.
                let mut tail = Chunk::with_budget(c.points.len() - budget);
                tail.points.extend(c.points.drain(budget..));
                tail.ctx = c.ctx;
                self.rest = tail.into_item(c.end.take());
            }
        }
        self.stats.points_out += item.point_count() as u64;
        Some(item)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_geo::{Crs, Rect};

    fn lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), w, h)
    }

    #[test]
    fn single_sector_protocol_shape() {
        let mut s: VecStream<f32> =
            VecStream::single_sector("t", lattice(3, 2), 9, |c, r| f64::from(c + 10 * r));
        let els = s.drain_elements();
        // 1 SectorStart + 2*(FrameStart + 3 points + FrameEnd) + 1 SectorEnd.
        assert_eq!(els.len(), 1 + 2 * 5 + 1);
        assert!(matches!(els[0], Element::SectorStart(ref si) if si.sector_id == 9));
        assert!(matches!(els[1], Element::FrameStart(ref fi) if fi.cells.row_min == 0));
        assert!(matches!(els.last(), Some(Element::SectorEnd(se)) if se.sector_id == 9));
    }

    #[test]
    fn sector_values_follow_generator() {
        let mut s: VecStream<f32> =
            VecStream::single_sector("t", lattice(4, 4), 0, |c, r| f64::from(c * r));
        let points = s.drain_points();
        assert_eq!(points.len(), 16);
        let p = points.iter().find(|p| p.cell == Cell::new(3, 2)).unwrap();
        assert_eq!(p.value, 6.0);
    }

    #[test]
    fn multi_sector_timestamps_increase() {
        let mut s: VecStream<f32> = VecStream::sectors("t", lattice(2, 2), 3, |s, _, _| s as f64);
        let els = s.drain_elements();
        let sector_ids: Vec<u64> = els
            .iter()
            .filter_map(|e| match e {
                Element::SectorStart(si) => Some(si.sector_id),
                _ => None,
            })
            .collect();
        assert_eq!(sector_ids, vec![0, 1, 2]);
        // Frame ids never repeat.
        let mut frame_ids: Vec<u64> = els
            .iter()
            .filter_map(|e| match e {
                Element::FrameStart(fi) => Some(fi.frame_id),
                _ => None,
            })
            .collect();
        let n = frame_ids.len();
        frame_ids.dedup();
        assert_eq!(frame_ids.len(), n);
    }

    #[test]
    fn vecstream_counts_emitted_points() {
        let mut s: VecStream<f32> = VecStream::single_sector("t", lattice(5, 5), 0, |_, _| 0.0);
        let _ = s.drain_elements();
        assert_eq!(s.op_stats().points_out, 25);
        assert_eq!(s.op_stats().frames_out, 5);
    }

    #[test]
    fn boxed_stream_is_a_stream() {
        let s: VecStream<f32> = VecStream::single_sector("t", lattice(2, 2), 0, |_, _| 1.0);
        let mut boxed: Box<dyn GeoStream<V = f32> + Send> = Box::new(s);
        let mut n = 0;
        while let Some(el) = boxed.next_element() {
            if el.is_point() {
                n += 1;
            }
        }
        assert_eq!(n, 4);
    }
}
