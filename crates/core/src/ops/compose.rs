//! Stream composition (§3.3, Definition 10).
//!
//! `G₁ γ G₂ = {(x, G₁(x) γ G₂(x)) : x ∈ X}` for
//! `γ ∈ {+, −, ×, ÷, sup, inf}` — the operator behind multi-band data
//! products such as NDVI. The paper's two key observations are both
//! implemented and measurable here:
//!
//! 1. "the points must match in the spatial dimension **and** in the
//!    timestamp" — under measurement-time semantics nothing ever joins;
//!    under scan-sector semantics whole sectors join (E3 verifies the
//!    output ratio);
//! 2. "the space complexity of a stream composition operator depends on
//!    the point organization in which the image data is transmitted" —
//!    the operator's match buffer (plus the transport split queues, see
//!    [`crate::model::split2`]) peaks at about one *image* for
//!    image-by-image transmission and one *row* for row-by-row.
//!
//! The join has one rule: a point meets the point of the other input on
//! the same cell under the same timestamp. It runs on one schedule.
//! Markers are read as soon as they are next, so both inputs stay on
//! the same frame. When both inputs are on one timestamp and one lattice
//! and their staged runs start on the same cell, the longest common
//! prefix of the two runs is combined lane against lane, straight into
//! the output run: the row-by-row case of §3.3, where nothing waits.
//! Otherwise the input whose next point comes first (by timestamp, row,
//! column) goes one point at a time through the keyed buffer: the point
//! meets its partner there, or waits for it.
//!
//! Each input has a *floor*, the smallest `(timestamp, row, column)` it
//! can still produce. A waiting point below the other input's floor
//! is dropped, and counted in [`Compose::unmatched_dropped`], since no
//! partner can come. The floor rises
//! * to the first row of each frame the input opens: timestamps are
//!   monotone per stream, frames of one timestamp start top to bottom,
//!   and no point lies above its frame's first row (the row watermark);
//! * past the timestamp when the input closes its sector: under
//!   scan-sector semantics the timestamp *is* the sector, and
//!   measurement instants only grow;
//! * past everything when the input ends.
//!
//! The first rule holds for lattice-ordered input only, which the
//! contract requires ([`compose_contract`]) and the planner enforces.

use crate::error::{CoreError, Result};
use crate::model::chunk::RunQueue;
use crate::model::{
    ChunkInput, ChunkOrMarker, Element, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord,
    SectorEnd, SectorInfo, StreamSchema, Timestamp,
};
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_geo::{CellBox, LatticeGeoref};
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The binary value operator γ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GammaOp {
    /// Addition.
    Add,
    /// Difference (left − right).
    Sub,
    /// Product.
    Mul,
    /// Quotient (left ÷ right); division by ~0 yields 0.
    Div,
    /// Supremum (max).
    Sup,
    /// Infimum (min).
    Inf,
    /// Normalized difference `(a − b) / (a + b)` (guarded at `a+b ≈ 0`):
    /// the fused kernel behind the NDVI macro operator of §4, equivalent
    /// to the §3.4 expression `(G₁ − G₂) ⊘ (G₂ + G₁)` in a single pass.
    NormDiff,
}

impl GammaOp {
    /// Applies the operator in the arithmetic domain.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            GammaOp::Add => a + b,
            GammaOp::Sub => a - b,
            GammaOp::Mul => a * b,
            GammaOp::Div => {
                if b.abs() < 1e-12 {
                    0.0
                } else {
                    a / b
                }
            }
            GammaOp::Sup => a.max(b),
            GammaOp::Inf => a.min(b),
            GammaOp::NormDiff => {
                let denom = a + b;
                if denom.abs() < 1e-12 {
                    0.0
                } else {
                    (a - b) / denom
                }
            }
        }
    }

    /// Symbol used by the query language.
    pub fn symbol(self) -> &'static str {
        match self {
            GammaOp::Add => "+",
            GammaOp::Sub => "-",
            GammaOp::Mul => "*",
            GammaOp::Div => "/",
            GammaOp::Sup => "sup",
            GammaOp::Inf => "inf",
            GammaOp::NormDiff => "normdiff",
        }
    }

    /// Parses a γ symbol.
    pub fn from_symbol(s: &str) -> Option<GammaOp> {
        Some(match s {
            "+" | "add" => GammaOp::Add,
            "-" | "sub" => GammaOp::Sub,
            "*" | "mul" => GammaOp::Mul,
            "/" | "div" => GammaOp::Div,
            "sup" | "max" => GammaOp::Sup,
            "inf" | "min" => GammaOp::Inf,
            "normdiff" => GammaOp::NormDiff,
            _ => return None,
        })
    }

    /// Appends `l γ r` for two runs over the same cells, lane by lane:
    /// one `match` per run, then straight-line arithmetic, each lane the
    /// exact [`apply`](Self::apply) formula.
    fn apply_runs<V: Pixel>(
        self,
        l: &[PointRecord<V>],
        r: &[PointRecord<V>],
        out: &mut Vec<PointRecord<V>>,
    ) {
        #[inline(always)]
        fn lanes<V: Pixel>(
            l: &[PointRecord<V>],
            r: &[PointRecord<V>],
            out: &mut Vec<PointRecord<V>>,
            f: impl Fn(f64, f64) -> f64,
        ) {
            out.extend(l.iter().zip(r).map(|(a, b)| PointRecord {
                cell: a.cell,
                value: V::from_f64(f(a.value.to_f64(), b.value.to_f64())),
            }));
        }
        match self {
            GammaOp::Add => lanes(l, r, out, |a, b| GammaOp::Add.apply(a, b)),
            GammaOp::Sub => lanes(l, r, out, |a, b| GammaOp::Sub.apply(a, b)),
            GammaOp::Mul => lanes(l, r, out, |a, b| GammaOp::Mul.apply(a, b)),
            GammaOp::Div => lanes(l, r, out, |a, b| GammaOp::Div.apply(a, b)),
            GammaOp::Sup => lanes(l, r, out, |a, b| GammaOp::Sup.apply(a, b)),
            GammaOp::Inf => lanes(l, r, out, |a, b| GammaOp::Inf.apply(a, b)),
            GammaOp::NormDiff => lanes(l, r, out, |a, b| GammaOp::NormDiff.apply(a, b)),
        }
    }
}

/// A waiting point's key: timestamp, row, column.
type Key = (i64, u32, u32);

/// What the operator knows of one input.
pub(crate) struct Side<V> {
    /// Timestamp of the frame being read: the key of its points.
    ts: Timestamp,
    /// The smallest key the input can still produce (see the module
    /// docs): the other side's points below it wait for nothing.
    floor: Key,
    /// Lattice of the input's current sector.
    lattice: Option<LatticeGeoref>,
    /// The input's sector has ended: it waits for the other's.
    closed: bool,
    /// The input has ended.
    done: bool,
    /// Points waiting for a partner.
    held: BTreeMap<Key, V>,
}

impl<V> Side<V> {
    /// Bytes of `points` points waiting in the keyed buffers: a key and
    /// a value each; the B-tree's node slack is not counted.
    pub(crate) fn bytes_for(points: u64) -> u64 {
        bytes_of::<(Key, V)>(points as usize)
    }

    fn new() -> Self {
        Side {
            ts: Timestamp::default(),
            floor: (i64::MIN, 0, 0),
            lattice: None,
            closed: false,
            done: false,
            held: BTreeMap::new(),
        }
    }
}

/// The output: one frame per timestamp, over the whole sector.
struct Output<V: Pixel> {
    queue: RunQueue<V>,
    /// The open output frame: timestamp, frame id, sector id.
    frame: Option<(Timestamp, u64, u64)>,
    next_frame_id: u64,
}

impl<V: Pixel> Output<V> {
    /// The run composed points of timestamp `ts` are appended to, the
    /// output frame of `ts` opened first.
    fn emit_run(
        &mut self,
        ts: Timestamp,
        active: Option<&SectorInfo>,
        stats: &mut OpStats,
    ) -> &mut Vec<PointRecord<V>> {
        if self.frame.is_none_or(|(open, _, _)| open != ts) {
            self.close_frame();
            let frame_id = self.next_frame_id;
            self.next_frame_id += 1;
            let sector_id = active.map_or(0, |s| s.sector_id);
            let cells = active.map_or(CellBox::new(0, 0, 0, 0), |s| {
                CellBox::full(s.lattice.width, s.lattice.height)
            });
            stats.frames_out += 1;
            self.queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                frame_id,
                sector_id,
                timestamp: ts,
                cells,
                synth_ns: crate::obs::now_ns(),
            })));
            self.frame = Some((ts, frame_id, sector_id));
        }
        self.queue.open_run()
    }

    fn close_frame(&mut self) {
        if let Some((_, frame_id, sector_id)) = self.frame.take() {
            self.queue
                .push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd { frame_id, sector_id })));
        }
    }
}

/// The stream composition operator `G₁ γ G₂`.
pub struct Compose<L: GeoStream, R: GeoStream<V = L::V>> {
    left: ChunkInput<L>,
    right: ChunkInput<R>,
    op: GammaOp,
    /// Left and right.
    sides: [Side<L::V>; 2],
    /// The left input's open sector: the output's.
    active: Option<SectorInfo>,
    /// Definition 10 requires both streams over one point lattice; when
    /// the sector lattices disagree no point can match.
    lattice_mismatch: bool,
    /// Both inputs have ended and the last sector is closed.
    finished: bool,
    /// Points whose partner never arrived.
    pub unmatched_dropped: u64,
    out: Output<L::V>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<L: GeoStream, R: GeoStream<V = L::V>> Compose<L, R> {
    /// Creates the composition; the streams must share a CRS.
    ///
    /// Both inputs must be in lattice order
    /// ([`StreamGuarantees::lattice_order`](crate::ops::StreamGuarantees)),
    /// which sources establish and of the operators only
    /// [`Orient`](crate::ops::Orient) breaks. The floors trust it: over an
    /// input whose frames run bottom to top, the other input's points are
    /// dropped unmatched. The planner refuses such plans, as DSMS
    /// admission does.
    pub fn new(left: L, right: R, op: GammaOp) -> Result<Self> {
        let ls = left.schema();
        let rs = right.schema();
        if ls.crs != rs.crs {
            return Err(CoreError::SchemaMismatch(format!(
                "compose requires matching coordinate systems, got {} vs {}",
                ls.crs, rs.crs
            )));
        }
        let mut schema = ls.renamed(format!("compose[{} {} {}]", ls.name, op.symbol(), rs.name));
        // The composed range is heuristic; macro operators refine it.
        let (llo, lhi) = ls.value_range;
        let (rlo, rhi) = rs.value_range;
        schema.value_range = match op {
            GammaOp::Add => (llo + rlo, lhi + rhi),
            GammaOp::Sub => (llo - rhi, lhi - rlo),
            GammaOp::Sup | GammaOp::Inf => (llo.min(rlo), lhi.max(rhi)),
            GammaOp::NormDiff => (-1.0, 1.0),
            _ => (llo.min(rlo), lhi.max(rhi)),
        };
        Ok(Compose {
            left: ChunkInput::new(left),
            right: ChunkInput::new(right),
            op,
            sides: [Side::new(), Side::new()],
            active: None,
            lattice_mismatch: false,
            finished: false,
            unmatched_dropped: 0,
            out: Output { queue: RunQueue::default(), frame: None, next_frame_id: 0 },
            stats: OpStats::default(),
            schema,
        })
    }

    /// The unconsumed points of side `s`'s staged run.
    fn peek(&mut self, s: usize) -> &[PointRecord<L::V>] {
        if s == 0 {
            self.left.peek_run()
        } else {
            self.right.peek_run()
        }
    }

    fn consume(&mut self, s: usize, n: usize) {
        if s == 0 {
            self.left.consume(n);
        } else {
            self.right.consume(n);
        }
    }

    /// Whether side `s` may be read: its input goes on, and its sector
    /// is open or the other input has ended.
    fn can_read(&self, s: usize) -> bool {
        let (me, other) = (&self.sides[s], &self.sides[1 - s]);
        !me.done && (!me.closed || other.done)
    }

    /// One scheduling step; `false` once both inputs have ended and the
    /// last sector is closed.
    fn advance(&mut self) -> bool {
        if self.finished {
            return false;
        }
        // Both inputs stage their next item before either is read (a
        // transport split between them queues what lies in between);
        // then markers go first, left before right.
        let ready = [self.can_read(0), self.can_read(1)];
        let marker_next = [0, 1].map(|s| ready[s] && self.peek(s).is_empty());
        if let Some(s) = marker_next.iter().position(|&m| m) {
            let el = if s == 0 { self.left.pull() } else { self.right.pull() };
            match el {
                Some(el) => self.process(s, el),
                None => self.end_input(s),
            }
            return true;
        }
        let (s, n) = match (ready[0], ready[1]) {
            (true, true) => {
                let (l, r) = (self.peek(0)[0].cell, self.peek(1)[0].cell);
                let (lk, rk) = (
                    (self.sides[0].ts.value(), l.row, l.col),
                    (self.sides[1].ts.value(), r.row, r.col),
                );
                if lk == rk && !self.lattice_mismatch {
                    self.zip_runs();
                    return true;
                }
                // The input behind goes through the keyed buffer up to
                // the other's next point.
                let (s, bound) = if lk <= rk { (0, rk) } else { (1, lk) };
                let ts = self.sides[s].ts.value();
                let behind =
                    self.peek(s).iter().take_while(|p| (ts, p.cell.row, p.cell.col) < bound);
                (s, behind.count().max(1))
            }
            (true, false) => (0, self.peek(0).len()),
            (false, true) => (1, self.peek(1).len()),
            (false, false) => {
                if self.active.is_some() || self.out.frame.is_some() {
                    self.flush_sector();
                }
                self.finished = true;
                return true;
            }
        };
        self.join_points(s, n);
        true
    }

    /// Combines the longest common prefix of the two staged runs, which
    /// start on the same cell under one timestamp and one lattice, into
    /// the output run.
    fn zip_runs(&mut self) {
        let ts = self.sides[0].ts;
        let l = self.left.peek_run();
        let r = self.right.peek_run();
        let n = l.iter().zip(r).take_while(|(a, b)| a.cell == b.cell).count();
        let out = self.out.emit_run(ts, self.active.as_ref(), &mut self.stats);
        self.op.apply_runs(&l[..n], &r[..n], out);
        self.stats.points_in += 2 * n as u64;
        self.stats.points_out += n as u64;
        self.left.consume(n);
        self.right.consume(n);
    }

    /// Joins the next `n` staged points of side `s` one at a time
    /// through the keyed buffer.
    fn join_points(&mut self, s: usize, n: usize) {
        for _ in 0..n {
            let p = self.peek(s)[0];
            self.consume(s, 1);
            self.join(s, p);
        }
    }

    /// One point of side `s`: it meets its partner waiting on the other
    /// side, waits for it, or — when the other side can no longer
    /// produce it — is dropped.
    fn join(&mut self, s: usize, p: PointRecord<L::V>) {
        self.stats.points_in += 1;
        if self.lattice_mismatch {
            // Streams over different lattices share no points.
            self.unmatched_dropped += 1;
            return;
        }
        let ts = self.sides[s].ts;
        let key = (ts.value(), p.cell.row, p.cell.col);
        let [left, right] = &mut self.sides;
        let (mine, theirs) = if s == 0 { (left, right) } else { (right, left) };
        if let Some(other) = theirs.held.remove(&key) {
            self.hold();
            let (a, b) = if s == 0 { (p.value, other) } else { (other, p.value) };
            let value = L::V::from_f64(self.op.apply(a.to_f64(), b.to_f64()));
            let out = self.out.emit_run(ts, self.active.as_ref(), &mut self.stats);
            out.push(PointRecord { cell: p.cell, value });
            self.stats.points_out += 1;
        } else if theirs.done || key < theirs.floor {
            self.unmatched_dropped += 1;
        } else {
            mine.held.insert(key, p.value);
            self.hold();
        }
    }

    /// Processes one element of side `s`.
    fn process(&mut self, s: usize, el: Element<L::V>) {
        match el {
            Element::SectorStart(si) => {
                self.sides[s].lattice = Some(si.lattice);
                if s == 0 {
                    self.out.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(si.clone())));
                    self.active = Some(si);
                }
                // The right sector's metadata is swallowed, but its
                // lattice is checked against the left's (Definition 10).
                self.lattice_mismatch = matches!(
                    (&self.sides[0].lattice, &self.sides[1].lattice),
                    (Some(a), Some(b)) if a != b
                );
            }
            Element::FrameStart(fi) => {
                self.stats.frames_in += 1;
                self.sides[s].ts = fi.timestamp;
                self.raise_floor(s, (fi.timestamp.value(), fi.cells.row_min, 0));
            }
            Element::Point(p) => self.join(s, p),
            Element::FrameEnd(_) => {}
            Element::SectorEnd(_) => {
                self.sides[s].closed = true;
                // A timestamp ends with its sector.
                let next_ts = self.sides[s].ts.value().saturating_add(1);
                self.raise_floor(s, self.sides[s].floor.max((next_ts, 0, 0)));
                if self.sides[0].closed && self.sides[1].closed {
                    self.flush_sector();
                }
            }
        }
    }

    fn drop_unmatched(&mut self, n: u64) {
        self.unmatched_dropped += n;
        self.hold();
    }

    /// Reports the points waiting in both keyed buffers.
    fn hold(&mut self) {
        let points = (self.sides[0].held.len() + self.sides[1].held.len()) as u64;
        self.stats.hold(points, Side::<L::V>::bytes_for(points));
    }

    /// Raises side `s`'s floor: the other side's points waiting below
    /// it can no longer meet a partner.
    fn raise_floor(&mut self, s: usize, floor: Key) {
        self.sides[s].floor = floor;
        let dropped = self.sides[1 - s].held.extract_if(..floor, |_, _| true).count();
        self.drop_unmatched(dropped as u64);
    }

    /// Side `s`'s input has ended: nothing waits for it any more.
    fn end_input(&mut self, s: usize) {
        (self.sides[s].done, self.sides[s].closed) = (true, true);
        let dropped = std::mem::take(&mut self.sides[1 - s].held).len();
        self.drop_unmatched(dropped as u64);
    }

    /// Closes the output sector. Waiting points are *not* dropped here:
    /// a stream may join a later sector's points against them (a
    /// self-join through [`crate::ops::Delay`]); the floors drop them.
    fn flush_sector(&mut self) {
        self.out.close_frame();
        if let Some(si) = self.active.take() {
            let end = Marker::SectorEnd(SectorEnd { sector_id: si.sector_id });
            self.out.queue.push(ChunkOrMarker::Marker(end));
        }
        self.sides[0].closed = false;
        self.sides[1].closed = false;
    }
}

impl<L: GeoStream, R: GeoStream<V = L::V>> GeoStream for Compose<L, R> {
    type V = L::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<L::V>> {
        let budget = budget.max(1);
        while !self.out.queue.ready(budget) && self.advance() {}
        self.out.queue.pop(budget)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.left.stream().collect_stats(out);
        self.right.stream().collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Composition merges two frame-aligned streams cell by cell: both
/// sides must be bracketed and lattice-ordered for the merge to line
/// up, and the output marker sequence is synthesized fresh.
pub fn compose_contract(operator: &str) -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{Granularity, Parallelism};
    // The frame-aligned merge consumes two inputs: it bounds the
    // parallel region (subtrees above it can still be partitioned).
    crate::ops::ProtocolContract::resynthesizing(operator)
        .with_parallelism(Parallelism::BlockingMerge, Granularity::Sector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{split2, Organization, TimeSemantics, VecStream};
    use crate::ops::SpatialRestrict;
    use geostreams_geo::{Crs, LatticeGeoref, Rect, Region};

    fn lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), w, h)
    }

    fn band(name: &str, w: u32, h: u32, f: impl Fn(u32, u32) -> f64) -> VecStream<f32> {
        VecStream::single_sector(name, lattice(w, h), 0, f)
    }

    #[test]
    fn gamma_ops_apply() {
        assert_eq!(GammaOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(GammaOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(GammaOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(GammaOp::Div.apply(6.0, 3.0), 2.0);
        assert_eq!(GammaOp::Div.apply(6.0, 0.0), 0.0, "guarded division");
        assert_eq!(GammaOp::Sup.apply(2.0, 3.0), 3.0);
        assert_eq!(GammaOp::Inf.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn gamma_symbols_round_trip() {
        for op in
            [GammaOp::Add, GammaOp::Sub, GammaOp::Mul, GammaOp::Div, GammaOp::Sup, GammaOp::Inf]
        {
            assert_eq!(GammaOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(GammaOp::from_symbol("%"), None);
    }

    #[test]
    fn compose_adds_matching_points() {
        let a = band("a", 4, 4, |c, r| f64::from(c + r));
        let b = band("b", 4, 4, |c, r| f64::from(c * r));
        let mut op = Compose::new(a, b, GammaOp::Add).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 16);
        for p in &pts {
            let (c, r) = (p.cell.col, p.cell.row);
            assert_eq!(f64::from(p.value), f64::from(c + r) + f64::from(c * r));
        }
        assert_eq!(op.unmatched_dropped, 0);
        assert_eq!(op.op_stats().buffered_points_peak, 0, "aligned rows zip, nothing waits");
    }

    #[test]
    fn compose_rejects_crs_mismatch() {
        let a = band("a", 2, 2, |_, _| 0.0);
        let lat2 =
            LatticeGeoref::north_up(Crs::utm(10, true), Rect::new(0.0, 0.0, 100.0, 100.0), 2, 2);
        let b: VecStream<f32> = VecStream::single_sector("b", lat2, 0, |_, _| 0.0);
        assert!(Compose::new(a, b, GammaOp::Add).is_err());
    }

    fn elements_of(mut s: VecStream<f32>) -> Vec<Element<f32>> {
        s.drain_elements()
    }

    #[test]
    fn row_interleaved_transport_buffers_one_row() {
        // Build a line-interleaved transport of two 8x8 bands.
        let a = elements_of(band("a", 8, 8, |c, _| f64::from(c)));
        let b = elements_of(band("b", 8, 8, |_, r| f64::from(r)));
        let transport = interleave_rows(a, b);
        let (s0, s1) = split2(
            transport.into_iter(),
            StreamSchema::new("a", Crs::LatLon),
            StreamSchema::new("b", Crs::LatLon),
        );
        let mut op = Compose::new(s0, s1, GammaOp::Add).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 64);
        let peak = op.op_stats().buffered_points_peak;
        assert!(peak <= 2 * 8, "row-by-row compose peak {peak} should be ~1 row");
    }

    #[test]
    fn band_sequential_transport_buffers_one_image() {
        let a = elements_of(band("a", 8, 8, |c, _| f64::from(c)));
        let b = elements_of(band("b", 8, 8, |_, r| f64::from(r)));
        // Whole image of band a, then whole image of band b.
        let transport: Vec<(u8, Element<f32>)> =
            a.into_iter().map(|e| (0u8, e)).chain(b.into_iter().map(|e| (1u8, e))).collect();
        let (s0, s1) = split2(
            transport.into_iter(),
            StreamSchema::new("a", Crs::LatLon),
            StreamSchema::new("b", Crs::LatLon),
        );
        let mut op = Compose::new(s0, s1, GammaOp::Add).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 64);
        // Total composition-subsystem buffering ≈ one image: either the
        // split queue or the operator's own buffer held it.
        let mut reports = Vec::new();
        op.collect_stats(&mut reports);
        let total_peak: u64 =
            reports.iter().map(|r| r.stats.buffered_points_peak).max().unwrap_or(0);
        assert!(total_peak >= 60, "image-by-image should buffer ~an image, got {total_peak}");
    }

    #[test]
    fn measurement_time_streams_never_match() {
        // Two streams whose frames carry different timestamps: per §3.3
        // the composition produces no output.
        let mk = |name: &str, ts_off: i64| {
            let mut s = band(name, 4, 4, |c, _| f64::from(c));
            let els: Vec<Element<f32>> = s
                .drain_elements()
                .into_iter()
                .map(|el| match el {
                    Element::FrameStart(mut fi) => {
                        fi.timestamp = Timestamp::new(fi.frame_id as i64 * 2 + ts_off);
                        Element::FrameStart(fi)
                    }
                    other => other,
                })
                .collect();
            let mut schema = StreamSchema::new(name, Crs::LatLon);
            schema.time_semantics = TimeSemantics::MeasurementTime;
            VecStream::new(schema, els)
        };
        let mut op = Compose::new(mk("a", 0), mk("b", 1), GammaOp::Add).unwrap();
        let pts = op.drain_points();
        assert!(pts.is_empty(), "measurement timestamps must never match");
        assert_eq!(op.unmatched_dropped, 32);
    }

    #[test]
    fn unmatched_cells_go_at_the_row_watermark() {
        // Columns 1..=4 of one band against columns 3..=6 of the other:
        // a row's cells outside the overlap wait only until the other
        // side starts the next row, never for the sector to end.
        let restricted = |x0: f64, x1: f64| {
            let region = Region::Rect(Rect::new(x0, 0.0, x1, 8.0));
            SpatialRestrict::new(band("a", 8, 8, |c, r| f64::from(c + r)), region)
        };
        let mut op =
            Compose::new(restricted(1.0, 5.0), restricted(3.0, 7.0), GammaOp::Sub).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 8 * 2, "columns 3 and 4 of every row");
        assert!(pts.iter().all(|p| p.value == 0.0 && (3..=4).contains(&p.cell.col)));
        assert_eq!(op.unmatched_dropped, 8 * 4);
        // Columns 1 and 2 of a row wait for the other side's next row
        // (or its sector's end); columns 5 and 6 arrive after that.
        assert_eq!(op.op_stats().buffered_points_peak, 2);
    }

    #[test]
    fn multi_sector_composition_flushes_between_sectors() {
        let mk = |name: &str| {
            VecStream::<f32>::sectors(name, lattice(4, 4), 3, |s, c, r| f64::from(c + r) + s as f64)
        };
        let mut op = Compose::new(mk("a"), mk("b"), GammaOp::Sub).unwrap();
        let els = op.drain_elements();
        let pts = els.iter().filter(|e| e.is_point()).count();
        assert_eq!(pts, 3 * 16);
        let sector_ends = els.iter().filter(|e| matches!(e, Element::SectorEnd(_))).count();
        assert_eq!(sector_ends, 3);
        // All diffs are zero.
        for el in els {
            if let Element::Point(p) = el {
                assert_eq!(p.value, 0.0);
            }
        }
        assert_eq!(op.op_stats().buffered_points, 0);
    }

    /// Helper: interleave two row-by-row element sequences row frame by
    /// row frame (band-interleaved-by-line transmission).
    fn interleave_rows(a: Vec<Element<f32>>, b: Vec<Element<f32>>) -> Vec<(u8, Element<f32>)> {
        let frames = |els: Vec<Element<f32>>| {
            let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
            for el in els {
                let boundary = matches!(el, Element::FrameEnd(_) | Element::SectorStart(_));
                out.last_mut().expect("nonempty").push(el);
                if boundary {
                    out.push(Vec::new());
                }
            }
            out.retain(|g| !g.is_empty());
            out
        };
        let fa = frames(a);
        let fb = frames(b);
        let mut out = Vec::new();
        for (ga, gb) in fa.into_iter().zip(fb) {
            out.extend(ga.into_iter().map(|e| (0u8, e)));
            out.extend(gb.into_iter().map(|e| (1u8, e)));
        }
        out
    }

    #[test]
    fn mismatched_lattices_never_join() {
        // Definition 10: both streams must share a point lattice. A
        // stream joined against a magnified version of itself shares no
        // points even though cell indices overlap numerically.
        use crate::ops::Magnify;
        let a = band("a", 4, 4, |c, r| f64::from(c + r));
        let b = Magnify::new(band("b", 4, 4, |c, r| f64::from(c + r)), 2);
        let mut op = Compose::new(a, b, GammaOp::Add).unwrap();
        let pts = op.drain_points();
        assert!(pts.is_empty(), "different lattices share no points");
        assert!(op.unmatched_dropped > 0);
    }

    #[test]
    fn organization_tag_is_metadata_only() {
        // Organization does not change correctness, only buffering.
        let a = band("a", 4, 4, |c, _| f64::from(c)).with_organization(Organization::ImageByImage);
        let b = band("b", 4, 4, |c, _| f64::from(c));
        let mut op = Compose::new(a, b, GammaOp::Sub).unwrap();
        assert!(op.drain_points().iter().all(|p| p.value == 0.0));
    }
}
