//! Per-operator tracing wrapper.
//!
//! [`TracedStream`] decorates any [`GeoStream`] with latency
//! histograms. Pulls are timed with the [`SampledClock`] discipline the
//! driver uses — no locks, no allocation. Stalls and buffer peaks are the
//! operator's own
//! [`OpStats`], reported per operator in
//! [`RunReport::per_op`](crate::exec::RunReport::per_op).

use super::clock::{SampledClock, PULL_SAMPLE_EVERY};
use super::hist::Histogram;
use super::span::{FlightRecorder, SpanGuard, SpanOutcome};
use crate::model::{ChunkOrMarker, GeoStream, Marker, StreamSchema};
use crate::stats::{OpReport, OpStats};
use std::sync::Arc;
use std::time::Instant;

/// Shared configuration for instrumenting a pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineObs {
    /// Optional per-query flight recorder; when set, the planner opens
    /// one span per operator and chains them by parentage.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Span id the next wrapped operator should chain under (0 = root).
    pub parent: u64,
}

impl PipelineObs {
    /// Attaches a per-query flight recorder (builder style).
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Same config, chained under `parent` (builder style).
    pub fn under(mut self, parent: u64) -> Self {
        self.parent = parent;
        self
    }
}

/// A [`GeoStream`] decorator that measures its inner operator.
pub struct TracedStream<S: GeoStream> {
    inner: S,
    pull_ns: Arc<Histogram>,
    frame_ns: Arc<Histogram>,
    frame_open: Option<Instant>,
    span: Option<SpanGuard>,
    /// Pull timer of the chunked path.
    clock: SampledClock,
    /// Frames opened so far on the chunked path (frame-latency
    /// sampling phase).
    frame_seq: u64,
}

impl<S: GeoStream> TracedStream<S> {
    /// Wraps `inner` with fresh histograms.
    pub fn new(inner: S) -> Self {
        TracedStream::with_span(inner, None)
    }

    /// Wraps `inner`, additionally accounting into `span` (opened by
    /// the planner with the operator's causal parentage).
    pub fn with_span(inner: S, span: Option<SpanGuard>) -> Self {
        TracedStream {
            inner,
            pull_ns: Arc::new(Histogram::new()),
            frame_ns: Arc::new(Histogram::new()),
            frame_open: None,
            span,
            clock: SampledClock::new(),
            frame_seq: 0,
        }
    }

    /// The wrapped stream.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Handle to the per-element pull-latency histogram (nanoseconds).
    pub fn pull_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.pull_ns)
    }

    /// Handle to the per-frame latency histogram (nanoseconds).
    pub fn frame_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.frame_ns)
    }

    /// Frame latency for a marker observed on the chunked path. `t0` is
    /// the pull start of the item that carried the marker, when that
    /// pull was clock-sampled. Frame latency is itself sampled: every
    /// [`PULL_SAMPLE_EVERY`]th frame forces a clock read at its start
    /// so some frames always land in the histogram even when the pull
    /// sampling phase never lines up with a `FrameStart`.
    fn note_marker(&mut self, m: &Marker, t0: Option<Instant>) {
        match m {
            Marker::FrameStart(_) => {
                let timed = self.frame_seq & (PULL_SAMPLE_EVERY - 1) == 0;
                self.frame_seq = self.frame_seq.wrapping_add(1);
                self.frame_open = if timed { t0.or_else(|| Some(Instant::now())) } else { t0 };
            }
            Marker::FrameEnd(_) => {
                if let Some(opened) = self.frame_open.take() {
                    self.frame_ns.record(opened.elapsed().as_nanos() as u64);
                }
            }
            Marker::SectorStart(_) | Marker::SectorEnd(_) => {}
        }
    }
}

impl<S: GeoStream> GeoStream for TracedStream<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<Self::V>> {
        let t0 = self.clock.begin();
        let item = self.inner.next_chunk(budget);
        match &item {
            Some(item) => {
                self.clock.end(t0, item.element_count().max(1), &self.pull_ns);
                if let Some(span) = &mut self.span {
                    span.add_points(item.point_count() as u64);
                }
                if let Some(m) = item.marker() {
                    self.note_marker(m, t0);
                }
            }
            None => {
                // Account the backlog since the last clock sample, then
                // the end-of-stream pull itself if it was sampled.
                self.clock.flush(&self.pull_ns);
                if let Some(t0) = t0 {
                    self.pull_ns.record(t0.elapsed().as_nanos() as u64);
                }
                if let Some(span) = self.span.take() {
                    span.finish(SpanOutcome::Ok);
                }
            }
        }
        item
    }

    fn op_stats(&self) -> OpStats {
        self.inner.op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.inner.collect_stats(out);
        // Decorate the inner operator's own report (the last one pushed)
        // with this wrapper's latency observations.
        if let Some(last) = out.last_mut() {
            last.pull_latency = Some(self.pull_ns.snapshot());
            last.frame_latency = Some(self.frame_ns.snapshot());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use crate::ops::SpatialRestrict;
    use geostreams_geo::{Crs, LatticeGeoref, Rect, Region};

    fn source() -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + r))
    }

    #[test]
    fn traced_stream_is_transparent() {
        let mut plain = source();
        let plain_pts = plain.drain_points();
        let mut traced = TracedStream::new(source());
        let traced_pts = traced.drain_points();
        assert_eq!(plain_pts, traced_pts);
    }

    #[test]
    fn latency_lands_in_the_report() {
        let region = Region::Rect(Rect::new(0.0, 0.0, 4.0, 4.0));
        let op = SpatialRestrict::new(source(), region);
        let mut traced = TracedStream::new(op);
        while traced.next_element().is_some() {}
        let mut per_op = Vec::new();
        traced.collect_stats(&mut per_op);
        assert_eq!(per_op.len(), 2);
        // The decorated (last) report carries latency; the inner source
        // does not (it was not wrapped).
        assert!(per_op[0].pull_latency.is_none());
        let lat = per_op[1].pull_latency.as_ref().expect("latency recorded");
        assert!(lat.count > 0);
        let frames = per_op[1].frame_latency.as_ref().expect("frame latency");
        assert!(frames.count > 0);
    }
}
