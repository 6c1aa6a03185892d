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

use crate::error::{CoreError, Result};
use crate::model::{
    ChunkInput, Element, FrameEnd, FrameInfo, GeoStream, SectorEnd, StreamSchema, Timestamp,
};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox};
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

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
}

/// Join strategy of the composition operator (A2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum JoinStrategy {
    /// Symmetric hash join on `(timestamp, cell)`, pulling whichever
    /// input is behind. Works for every organization.
    #[default]
    Hash,
    /// Frame-at-a-time merge: buffer one left frame, then stream the
    /// matching right frame through it. Assumes both streams deliver the
    /// same frame sequence (true for the row-by-row instrument case).
    FrameMerge,
}

/// Per-side pull cursor used by the adaptive scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct SidePos {
    sectors: u64,
    elements: u64,
}

#[inline]
fn cell_key(c: Cell) -> u64 {
    (u64::from(c.col) << 32) | u64::from(c.row)
}

/// The stream composition operator `G₁ γ G₂`.
pub struct Compose<L: GeoStream, R: GeoStream<V = L::V>> {
    left: ChunkInput<L>,
    right: ChunkInput<R>,
    op: GammaOp,
    strategy: JoinStrategy,

    left_buf: HashMap<(i64, u64), L::V>,
    right_buf: HashMap<(i64, u64), L::V>,
    left_pos: SidePos,
    right_pos: SidePos,
    left_done: bool,
    right_done: bool,
    left_ts: Option<Timestamp>,
    right_ts: Option<Timestamp>,

    active: Option<crate::model::SectorInfo>,
    left_lattice: Option<geostreams_geo::LatticeGeoref>,
    right_lattice: Option<geostreams_geo::LatticeGeoref>,
    /// Definition 10 requires both streams over one point lattice; when
    /// the sector lattices disagree no point can match.
    lattice_mismatch: bool,
    left_sector_closed: bool,
    right_sector_closed: bool,

    open_frame: Option<(Timestamp, u64, u64)>,
    next_frame_id: u64,
    /// Points whose partner never arrived (dropped at sector close).
    pub unmatched_dropped: u64,

    queue: VecDeque<Element<L::V>>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<L: GeoStream, R: GeoStream<V = L::V>> Compose<L, R> {
    /// Creates the composition; the streams must share a CRS.
    pub fn new(left: L, right: R, op: GammaOp, strategy: JoinStrategy) -> Result<Self> {
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
            strategy,
            left_buf: HashMap::new(),
            right_buf: HashMap::new(),
            left_pos: SidePos::default(),
            right_pos: SidePos::default(),
            left_done: false,
            right_done: false,
            left_ts: None,
            right_ts: None,
            active: None,
            left_lattice: None,
            right_lattice: None,
            lattice_mismatch: false,
            left_sector_closed: false,
            right_sector_closed: false,
            open_frame: None,
            next_frame_id: 0,
            unmatched_dropped: 0,
            queue: VecDeque::new(),
            stats: OpStats::default(),
            schema,
        })
    }

    /// Opens/continues the output frame for timestamp `ts`, emitting
    /// boundary elements as needed, then queues the composed point.
    fn emit_point(&mut self, ts: Timestamp, cell: Cell, v: L::V) {
        let sector_id = self.active.as_ref().map_or(0, |s| s.sector_id);
        let needs_new = match self.open_frame {
            Some((open_ts, _, _)) => open_ts != ts,
            None => true,
        };
        if needs_new {
            self.close_frame();
            let frame_id = self.next_frame_id;
            self.next_frame_id += 1;
            let cells = self
                .active
                .as_ref()
                .map(|s| CellBox::full(s.lattice.width, s.lattice.height))
                .unwrap_or(CellBox::new(0, 0, 0, 0));
            self.stats.frames_out += 1;
            self.queue.push_back(Element::FrameStart(FrameInfo {
                frame_id,
                sector_id,
                timestamp: ts,
                cells,
                synth_ns: crate::obs::now_ns(),
            }));
            self.open_frame = Some((ts, frame_id, sector_id));
        }
        self.stats.points_out += 1;
        self.queue.push_back(Element::point(cell, v));
    }

    fn close_frame(&mut self) {
        if let Some((_, frame_id, sector_id)) = self.open_frame.take() {
            self.queue.push_back(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
        }
    }

    /// Closes the active output sector. Buffered entries are *not*
    /// cleared here: a stream may legitimately join a later sector's
    /// points against them (e.g. a self-join through
    /// [`crate::ops::Delay`]); stale entries are evicted by the
    /// timestamp watermark instead.
    fn flush_sector(&mut self) {
        self.close_frame();
        if let Some(si) = self.active.take() {
            self.queue.push_back(Element::SectorEnd(SectorEnd { sector_id: si.sector_id }));
        }
        self.left_sector_closed = false;
        self.right_sector_closed = false;
    }

    /// Drops buffered entries older than both sides' current frame
    /// timestamps — they can never match again because timestamps are
    /// monotone per stream (§3.3's scan-sector stamping).
    fn evict_stale(&mut self) {
        let (Some(l), Some(r)) = (self.left_ts, self.right_ts) else { return };
        let watermark = l.value().min(r.value());
        let before = (self.left_buf.len() + self.right_buf.len()) as u64;
        self.left_buf.retain(|k, _| k.0 >= watermark);
        self.right_buf.retain(|k, _| k.0 >= watermark);
        let after = (self.left_buf.len() + self.right_buf.len()) as u64;
        let dropped = before - after;
        self.unmatched_dropped += dropped;
        self.stats.buffer_shrink(dropped, dropped * L::V::BYTES as u64);
    }

    /// Drops everything still buffered (end of both inputs).
    fn evict_all(&mut self) {
        let dropped = (self.left_buf.len() + self.right_buf.len()) as u64;
        self.unmatched_dropped += dropped;
        self.stats.buffer_shrink(dropped, dropped * L::V::BYTES as u64);
        self.left_buf.clear();
        self.right_buf.clear();
    }

    /// Processes one input element from the given side (0 = left).
    fn process(&mut self, side: u8, el: Element<L::V>) {
        match el {
            Element::SectorStart(si) => {
                if side == 0 {
                    self.left_lattice = Some(si.lattice);
                    self.queue.push_back(Element::SectorStart(si.clone()));
                    self.active = Some(si);
                } else {
                    // Right sector metadata is swallowed but its lattice
                    // is checked against the left's (Definition 10).
                    self.right_lattice = Some(si.lattice);
                }
                self.lattice_mismatch = matches!(
                    (&self.left_lattice, &self.right_lattice),
                    (Some(a), Some(b)) if a != b
                );
            }
            Element::FrameStart(fi) => {
                self.stats.frames_in += 1;
                if side == 0 {
                    self.left_ts = Some(fi.timestamp);
                } else {
                    self.right_ts = Some(fi.timestamp);
                }
                self.evict_stale();
            }
            Element::Point(p) => {
                self.stats.points_in += 1;
                if self.lattice_mismatch {
                    // Streams over different lattices share no points.
                    self.unmatched_dropped += 1;
                    return;
                }
                let (ts, mine, theirs) = if side == 0 {
                    (self.left_ts.unwrap_or_default(), &mut self.left_buf, &mut self.right_buf)
                } else {
                    (self.right_ts.unwrap_or_default(), &mut self.right_buf, &mut self.left_buf)
                };
                let key = (ts.value(), cell_key(p.cell));
                if let Some(other) = theirs.remove(&key) {
                    self.stats.buffer_shrink(1, L::V::BYTES as u64);
                    let (a, b) = if side == 0 {
                        (p.value.to_f64(), other.to_f64())
                    } else {
                        (other.to_f64(), p.value.to_f64())
                    };
                    let v = L::V::from_f64(self.op.apply(a, b));
                    self.emit_point(ts, p.cell, v);
                } else {
                    mine.insert(key, p.value);
                    self.stats.buffer_grow(1, L::V::BYTES as u64);
                }
            }
            Element::FrameEnd(_) => {}
            Element::SectorEnd(_) => {
                if side == 0 {
                    self.left_sector_closed = true;
                } else {
                    self.right_sector_closed = true;
                }
                if self.left_sector_closed && self.right_sector_closed {
                    self.flush_sector();
                }
            }
        }
    }

    /// One scheduling step: advances the join until it either produced
    /// output or must be called again; returns `false` when the stream
    /// is fully exhausted (termination cleanup done, queue empty).
    ///
    /// FrameMerge is a restricted schedule of the same join: it is
    /// selected by biasing the scheduler to finish the left frame
    /// first. Both strategies share the matching code path; the
    /// strategy only alters pull order (measured by A2).
    fn advance(&mut self) -> bool {
        if self.left_done && self.right_done {
            self.evict_all();
            if self.active.is_some() || self.open_frame.is_some() {
                self.flush_sector();
                return true;
            }
            return false;
        }
        match self.strategy {
            JoinStrategy::Hash => {
                if !self.pump() && self.queue.is_empty() {
                    self.evict_all();
                    if self.active.is_some() || self.open_frame.is_some() {
                        self.flush_sector();
                        return true;
                    }
                    return false;
                }
                true
            }
            JoinStrategy::FrameMerge => {
                // Pull a whole left frame, then a whole right frame.
                if !self.left_done {
                    loop {
                        match self.left.pull() {
                            Some(el) => {
                                let end =
                                    matches!(el, Element::FrameEnd(_) | Element::SectorEnd(_));
                                self.left_pos.elements += 1;
                                if matches!(el, Element::SectorEnd(_)) {
                                    self.left_pos.sectors += 1;
                                }
                                self.process(0, el);
                                if end {
                                    break;
                                }
                            }
                            None => {
                                self.left_done = true;
                                self.left_sector_closed = true;
                                break;
                            }
                        }
                    }
                }
                if !self.right_done {
                    loop {
                        match self.right.pull() {
                            Some(el) => {
                                let end =
                                    matches!(el, Element::FrameEnd(_) | Element::SectorEnd(_));
                                self.right_pos.elements += 1;
                                if matches!(el, Element::SectorEnd(_)) {
                                    self.right_pos.sectors += 1;
                                }
                                self.process(1, el);
                                if end {
                                    break;
                                }
                            }
                            None => {
                                self.right_done = true;
                                self.right_sector_closed = true;
                                break;
                            }
                        }
                    }
                }
                true
            }
        }
    }

    /// Pulls one element from whichever side is behind; returns `false`
    /// when both inputs are exhausted.
    fn pump(&mut self) -> bool {
        let pull_left = if self.left_done {
            false
        } else if self.right_done {
            true
        } else {
            self.left_pos <= self.right_pos
        };
        if pull_left {
            match self.left.pull() {
                Some(el) => {
                    self.left_pos.elements += 1;
                    if matches!(el, Element::SectorEnd(_)) {
                        self.left_pos.sectors += 1;
                    }
                    self.process(0, el);
                    true
                }
                None => {
                    self.left_done = true;
                    self.left_sector_closed = true;
                    !self.right_done
                }
            }
        } else if !self.right_done {
            match self.right.pull() {
                Some(el) => {
                    self.right_pos.elements += 1;
                    if matches!(el, Element::SectorEnd(_)) {
                        self.right_pos.sectors += 1;
                    }
                    self.process(1, el);
                    true
                }
                None => {
                    self.right_done = true;
                    self.right_sector_closed = true;
                    !self.left_done
                }
            }
        } else {
            false
        }
    }
}

impl<L: GeoStream, R: GeoStream<V = L::V>> GeoStream for Compose<L, R> {
    type V = L::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<crate::model::ChunkOrMarker<L::V>> {
        loop {
            // Fill the output queue past one full run before packing, so
            // chunk size is set by the budget rather than by how little a
            // single advance() happens to emit.
            while self.queue.len() <= budget {
                if !self.advance() {
                    break;
                }
            }
            if let Some(item) = crate::model::pack_queue(&mut self.queue, budget) {
                return Some(item);
            }
            if !self.advance() {
                return None;
            }
        }
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

impl<L: GeoStream, R: GeoStream<V = L::V>> Compose<L, R> {
    /// Protocol contract (see [`compose_contract`]).
    pub fn declared_contract(&self) -> crate::ops::ProtocolContract {
        compose_contract("compose")
    }

    /// §3.3: composition buffering "depends on the point organization
    /// (whole image for image-by-image vs a single row for row-by-row)".
    pub fn declared_blocking(&self) -> crate::ops::BlockingClass {
        use crate::model::Organization;
        if self.schema.organization == Organization::ImageByImage {
            crate::ops::BlockingClass::BoundedFrame
        } else {
            crate::ops::BlockingClass::BoundedRows(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{split2, Organization, TimeSemantics, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

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
        let mut op = Compose::new(a, b, GammaOp::Add, JoinStrategy::Hash).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 16);
        for p in &pts {
            let (c, r) = (p.cell.col, p.cell.row);
            assert_eq!(f64::from(p.value), f64::from(c + r) + f64::from(c * r));
        }
        assert_eq!(op.unmatched_dropped, 0);
    }

    #[test]
    fn compose_rejects_crs_mismatch() {
        let a = band("a", 2, 2, |_, _| 0.0);
        let lat2 =
            LatticeGeoref::north_up(Crs::utm(10, true), Rect::new(0.0, 0.0, 100.0, 100.0), 2, 2);
        let b: VecStream<f32> = VecStream::single_sector("b", lat2, 0, |_, _| 0.0);
        assert!(Compose::new(a, b, GammaOp::Add, JoinStrategy::Hash).is_err());
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
        let mut op = Compose::new(s0, s1, GammaOp::Add, JoinStrategy::Hash).unwrap();
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
        let mut op = Compose::new(s0, s1, GammaOp::Add, JoinStrategy::Hash).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 64);
        // Total composition-subsystem buffering ≈ one image: either the
        // split queue or the operator's own hash buffer held it.
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
        let mut op =
            Compose::new(mk("a", 0), mk("b", 1), GammaOp::Add, JoinStrategy::Hash).unwrap();
        let pts = op.drain_points();
        assert!(pts.is_empty(), "measurement timestamps must never match");
        assert_eq!(op.unmatched_dropped, 32);
    }

    #[test]
    fn frame_merge_strategy_matches_hash_output() {
        let run = |strategy| {
            let a = band("a", 6, 6, |c, r| f64::from(c + r));
            let b = band("b", 6, 6, |c, r| f64::from(c).max(f64::from(r)));
            let mut op = Compose::new(a, b, GammaOp::Mul, strategy).unwrap();
            let mut pts = op.drain_points();
            pts.sort_by_key(|p| (p.cell.row, p.cell.col));
            pts.iter().map(|p| p.value).collect::<Vec<f32>>()
        };
        assert_eq!(run(JoinStrategy::Hash), run(JoinStrategy::FrameMerge));
    }

    #[test]
    fn multi_sector_composition_flushes_between_sectors() {
        let mk = |name: &str| {
            VecStream::<f32>::sectors(name, lattice(4, 4), 3, |s, c, r| f64::from(c + r) + s as f64)
        };
        let mut op = Compose::new(mk("a"), mk("b"), GammaOp::Sub, JoinStrategy::Hash).unwrap();
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
        let mut op = Compose::new(a, b, GammaOp::Add, JoinStrategy::Hash).unwrap();
        let pts = op.drain_points();
        assert!(pts.is_empty(), "different lattices share no points");
        assert!(op.unmatched_dropped > 0);
    }

    #[test]
    fn organization_tag_is_metadata_only() {
        // Organization does not change correctness, only buffering.
        let a = band("a", 4, 4, |c, _| f64::from(c)).with_organization(Organization::ImageByImage);
        let b = band("b", 4, 4, |c, _| f64::from(c));
        let mut op = Compose::new(a, b, GammaOp::Sub, JoinStrategy::Hash).unwrap();
        assert!(op.drain_points().iter().all(|p| p.value == 0.0));
    }
}
