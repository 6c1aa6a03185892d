//! Frame/image-scoped value stretches (§3.2).
//!
//! "In order to fully utilize the complete range of values in V, point
//! values can be scaled. Typical approaches include linear contrast
//! stretch, histogram equalization, and Gaussian stretch. In order to
//! perform a respective value transform on a point, information about
//! previous point values needs to be maintained … all points of that
//! frame need to be stored before they can be output with new point
//! values. Thus, the cost of a stretch transform operator is determined
//! by the size of the largest frame that can occur in G."
//!
//! The scope is configurable: [`StretchScope::Frame`] buffers one arrival
//! frame (a single row for row-by-row streams); [`StretchScope::Image`]
//! buffers the paper's *image* — all frames of one timestamp, which for a
//! GOES visible-band sector is the 20 840 × 10 820-point frame whose
//! ≈280 MB buffer the paper cites. Experiment E2 measures exactly this
//! buffer growth.
//!
//! The scope holds the input's points, copied out of its runs, and its
//! markers (`Scope`). Each arriving run feeds the scope's statistics in
//! stream order; once the scope closes, its points are mapped into `f32`
//! runs a pull budget at a time, the markers in place.

use crate::model::chunk::RunQueue;
use crate::model::{
    ChunkOrMarker, GeoStream, Marker, PointRecord, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_raster::{Histogram, Pixel, RangeTracker};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which stretch is applied once the scope's statistics are complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StretchMode {
    /// Linear contrast stretch onto `[out_lo, out_hi]`.
    Linear {
        /// Output low bound.
        out_lo: f64,
        /// Output high bound.
        out_hi: f64,
    },
    /// Histogram equalization onto `[0, 1]` using `bins` bins over the
    /// schema's nominal value range.
    HistEq {
        /// Number of histogram bins.
        bins: usize,
    },
    /// Gaussian stretch onto `[0, 1]`: ±`n_sigma` standard deviations
    /// cover the output range.
    Gaussian {
        /// Number of standard deviations mapped to the output extremes.
        n_sigma: f64,
    },
}

/// Unit of buffering for a stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StretchScope {
    /// Buffer one arrival frame (a row, for row-by-row streams).
    Frame,
    /// Buffer one *image* (Definition 4): all frames of one timestamp —
    /// the paper's costly case.
    #[default]
    Image,
}

/// The input of a stretch's open scope, held until its statistics are
/// complete: its points in arrival order, and each marker with the count
/// of points before it. Both grow by powers of two and keep their room
/// for the next scope, so what they allocate follows the scope's size,
/// not how its input was cut into runs. Once the scope closes it is
/// handed out from a cursor, a pull budget of points at a time.
pub(crate) struct Scope<V> {
    points: Vec<PointRecord<V>>,
    marks: Vec<(usize, Marker)>,
    /// While the scope goes out: the next mark and the next point.
    out: Option<(usize, usize)>,
}

/// Makes room in `v` for `extra` more values, to a power of two.
fn reserve_pow2<T>(v: &mut Vec<T>, extra: usize) {
    let need = v.len() + extra;
    if need > v.capacity() {
        v.reserve_exact(need.next_power_of_two() - v.len());
    }
}

impl<V: Pixel> Scope<V> {
    fn new() -> Self {
        Scope { points: Vec::new(), marks: Vec::new(), out: None }
    }

    fn is_empty(&self) -> bool {
        self.points.is_empty() && self.marks.is_empty()
    }

    /// Holds an input item: its points, then its marker; the run goes
    /// back to the pool.
    fn push(&mut self, item: ChunkOrMarker<V>) {
        let marker = item.take_run(|run| {
            reserve_pow2(&mut self.points, run.len());
            self.points.extend_from_slice(run);
        });
        if let Some(m) = marker {
            reserve_pow2(&mut self.marks, 1);
            self.marks.push((self.points.len(), m));
        }
    }

    fn clear(&mut self) {
        self.points.clear();
        self.marks.clear();
        self.out = None;
    }

    /// Bytes the points and the marks have allocated.
    fn bytes(&self) -> u64 {
        bytes_of::<PointRecord<V>>(self.points.capacity())
            + bytes_of::<(usize, Marker)>(self.marks.capacity())
    }

    /// Bytes of a scope of `points` points and `marks` markers.
    pub(crate) fn bytes_for(points: u64, marks: u64) -> u64 {
        let slots = |n: u64| n.max(1).next_power_of_two() as usize;
        bytes_of::<PointRecord<V>>(slots(points)) + bytes_of::<(usize, Marker)>(slots(marks))
    }
}

/// The frame/image-scoped stretch operator. Output pixels are `f32`.
pub struct StretchTransform<S: GeoStream> {
    input: S,
    mode: StretchMode,
    scope: StretchScope,
    /// The current scope, held until its statistics complete.
    held: Scope<S::V>,
    tracker: RangeTracker,
    hist: Option<Histogram>,
    /// Input nominal range used to (re)build the histogram each scope.
    hist_range: (f64, f64),
    queue: RunQueue<f32>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> StretchTransform<S> {
    /// Creates a stretch with the given mode and scope.
    pub fn new(input: S, mode: StretchMode, scope: StretchScope) -> Self {
        let mut schema = input.schema().renamed(match scope {
            StretchScope::Frame => "stretch[frame]",
            StretchScope::Image => "stretch[image]",
        });
        schema.value_range = match mode {
            StretchMode::Linear { out_lo, out_hi } => (out_lo, out_hi),
            _ => (0.0, 1.0),
        };
        let (ilo, ihi) = input.schema().value_range;
        let hist_range = (ilo, if ihi > ilo { ihi } else { ilo + 1.0 });
        let hist = match mode {
            StretchMode::HistEq { bins } => {
                Some(Histogram::new(hist_range.0, hist_range.1, bins.max(2)))
            }
            _ => None,
        };
        StretchTransform {
            input,
            mode,
            scope,
            held: Scope::new(),
            tracker: RangeTracker::new(),
            hist,
            hist_range,
            queue: RunQueue::default(),
            stats: OpStats::default(),
            schema,
        }
    }

    fn reset_scope_stats(&mut self) {
        self.tracker = RangeTracker::new();
        if let StretchMode::HistEq { bins } = self.mode {
            self.hist = Some(Histogram::new(self.hist_range.0, self.hist_range.1, bins.max(2)));
        }
    }

    /// Maps the held points `range` through the configured stretch onto
    /// the output.
    fn map_run(&mut self, range: Range<usize>) {
        let run = &self.held.points[range];
        self.stats.points_out += run.len() as u64;
        let (tracker, hist) = (&self.tracker, self.hist.as_ref());
        let out = self.queue.open_run();
        let point = |p: &PointRecord<S::V>, v: f64| PointRecord { cell: p.cell, value: v as f32 };
        match self.mode {
            StretchMode::Linear { out_lo, out_hi } => out.extend(
                run.iter().map(|p| point(p, tracker.stretch(p.value.to_f64(), out_lo, out_hi))),
            ),
            StretchMode::HistEq { .. } => {
                out.extend(run.iter().map(|p| {
                    point(p, hist.map_or(0.0, |h| h.equalize(p.value.to_f64(), 0.0, 1.0)))
                }))
            }
            StretchMode::Gaussian { n_sigma } => {
                out.extend(run.iter().map(|p| {
                    point(p, tracker.gaussian_stretch(p.value.to_f64(), 0.0, 1.0, n_sigma))
                }))
            }
        }
    }

    /// Hands out the next part of the closed scope: up to `budget`
    /// stretched points, or the marker that follows them. Once all is
    /// out the scope is emptied for the next.
    fn flush_step(&mut self, budget: usize) {
        let Some((mark, at)) = self.held.out else { return };
        let end = self.held.marks.get(mark).map_or(self.held.points.len(), |&(end, _)| end);
        if at < end {
            let to = end.min(at + budget);
            self.map_run(at..to);
            self.held.out = Some((mark, to));
        } else if let Some((_, m)) = self.held.marks.get(mark) {
            if matches!(m, Marker::FrameStart(_)) {
                self.stats.frames_out += 1;
            }
            self.queue.push(ChunkOrMarker::Marker(m.clone()));
            self.held.out = Some((mark + 1, at));
        } else {
            self.held.clear();
            self.stats.hold(0, self.held.bytes());
            self.reset_scope_stats();
        }
    }

    /// Takes one input item: its run into the scope's statistics, the
    /// item into the scope, and the scope out once its marker closes it.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        let closes = match item {
            ChunkOrMarker::Marker(Marker::SectorStart(si)) if self.held.is_empty() => {
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(si)));
                return;
            }
            ChunkOrMarker::Chunk(ref c) => {
                let n = c.points.len() as u64;
                self.stats.points_in += n;
                for p in &c.points {
                    self.tracker.push(p.value.to_f64());
                }
                if let Some(h) = &mut self.hist {
                    for p in &c.points {
                        h.push(p.value.to_f64());
                    }
                }
                self.closes(c.end.as_ref())
            }
            ChunkOrMarker::Marker(ref m) => self.closes(Some(m)),
        };
        self.held.push(item);
        self.stats.hold(self.held.points.len() as u64, self.held.bytes());
        if closes {
            self.held.out = Some((0, 0));
        }
    }

    /// Counts a held marker; whether it closes the scope.
    fn closes(&mut self, marker: Option<&Marker>) -> bool {
        match marker {
            Some(Marker::FrameStart(_)) => {
                self.stats.frames_in += 1;
                self.stats.stalls += 1;
                false
            }
            Some(Marker::FrameEnd(_)) => self.scope == StretchScope::Frame,
            Some(Marker::SectorEnd(_)) => true,
            Some(Marker::SectorStart(_)) | None => false,
        }
    }
}

impl<S: GeoStream> GeoStream for StretchTransform<S> {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            if self.held.out.is_some() {
                self.flush_step(budget);
                continue;
            }
            match self.input.next_chunk(DEFAULT_CHUNK_BUDGET) {
                Some(item) => self.ingest_item(item),
                // End of stream: flush whatever is pending (partial scope).
                None if !self.held.is_empty() => self.held.out = Some((0, 0)),
                None => break,
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

/// A stretch buffers a frame's values but forwards the marker skeleton
/// through its queue unchanged; it needs well-bracketed input (its flush
/// is driven by `FrameEnd`/`SectorEnd`) but not lattice order — min/max
/// over a frame is order-insensitive.
pub fn stretch_contract(scope: StretchScope) -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{
        ChunkDiscipline, Granularity, MarkerEffect, OrderEffect, Parallelism, ProtocolContract,
    };
    ProtocolContract {
        operator: "stretch".to_string(),
        markers: MarkerEffect::Forward,
        order: OrderEffect::Preserve,
        chunks: ChunkDiscipline::Repack,
        requires_bracketing: true,
        requires_order: false,
        // The held elements and their statistics never outlive the
        // scope bracket, so the stretch partitions at exactly that
        // granularity: per frame, or per sector for image scope.
        parallelism: Parallelism::Partitionable,
        granularity: match scope {
            StretchScope::Frame => Granularity::Frame,
            StretchScope::Image => Granularity::Sector,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 10.0, 10.0), w, h)
    }

    fn source(w: u32, h: u32) -> VecStream<f32> {
        VecStream::single_sector("src", lattice(w, h), 0, |c, r| f64::from(10 + c + w * r))
            .with_value_range(0.0, 100.0)
    }

    #[test]
    fn linear_stretch_fills_output_range() {
        let mut op = StretchTransform::new(
            source(4, 4),
            StretchMode::Linear { out_lo: 0.0, out_hi: 255.0 },
            StretchScope::Image,
        );
        let pts = op.drain_points();
        assert_eq!(pts.len(), 16);
        let min = pts.iter().map(|p| p.value).fold(f32::INFINITY, f32::min);
        let max = pts.iter().map(|p| p.value).fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(min, 0.0);
        assert_eq!(max, 255.0);
    }

    #[test]
    fn image_scope_buffers_whole_image() {
        let mut op = StretchTransform::new(
            source(8, 8),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Image,
        );
        let _ = op.drain_points();
        // The claim of §3.2: the whole frame (image) must be stored.
        assert_eq!(op.op_stats().buffered_points_peak, 64);
    }

    #[test]
    fn frame_scope_buffers_one_row() {
        let mut op = StretchTransform::new(
            source(8, 8),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Frame,
        );
        let _ = op.drain_points();
        // Row-by-row frames: one row of 8 points at a time.
        assert_eq!(op.op_stats().buffered_points_peak, 8);
    }

    #[test]
    fn frame_scope_stretches_per_row() {
        // Each row r has values 10+8r .. 17+8r; per-frame stretch maps
        // every row onto the full [0,1].
        let mut op = StretchTransform::new(
            source(8, 8),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Frame,
        );
        let pts = op.drain_points();
        for row in 0..8u32 {
            let rowvals: Vec<f32> =
                pts.iter().filter(|p| p.cell.row == row).map(|p| p.value).collect();
            assert_eq!(rowvals.first().copied(), Some(0.0));
            assert_eq!(rowvals.last().copied(), Some(1.0));
        }
    }

    #[test]
    fn histogram_equalization_output_in_unit_range() {
        let mut op = StretchTransform::new(
            source(6, 6),
            StretchMode::HistEq { bins: 64 },
            StretchScope::Image,
        );
        let pts = op.drain_points();
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.value)));
        // Equalization is monotone in the input.
        let mut by_input: Vec<(u32, f32)> =
            pts.iter().map(|p| (p.cell.row * 6 + p.cell.col, p.value)).collect();
        by_input.sort_by_key(|(k, _)| *k);
        for w in by_input.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn gaussian_stretch_centers_mean() {
        let mut op = StretchTransform::new(
            source(5, 5),
            StretchMode::Gaussian { n_sigma: 2.0 },
            StretchScope::Image,
        );
        let pts = op.drain_points();
        let mean: f32 = pts.iter().map(|p| p.value).sum::<f32>() / pts.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn element_protocol_preserved() {
        let mut op = StretchTransform::new(
            source(3, 3),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Image,
        );
        let els = op.drain_elements();
        let starts = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert_eq!(starts, 3);
        assert_eq!(ends, 3);
        assert!(matches!(els[0], Element::SectorStart(_)));
        assert!(matches!(els.last(), Some(Element::SectorEnd(_))));
    }

    #[test]
    fn multi_sector_stats_reset_between_images() {
        let lattice = lattice(4, 1);
        let src: VecStream<f32> = VecStream::sectors("src", lattice, 2, |s, c, _| {
            // Sector 0: values 0..3; sector 1: values 100..103.
            f64::from(c) + 100.0 * s as f64
        });
        let mut op = StretchTransform::new(
            src,
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Image,
        );
        let pts = op.drain_points();
        // Both sectors independently stretch onto [0,1].
        assert_eq!(pts[0].value, 0.0);
        assert_eq!(pts[3].value, 1.0);
        assert_eq!(pts[4].value, 0.0);
        assert_eq!(pts[7].value, 1.0);
    }
}
