//! Causal spans and the per-query flight recorder.
//!
//! Answering "where did query 42's frame 907 stall" takes events with
//! a causal identity. This module provides one:
//!
//! * [`TraceContext`] — `{trace_id, span_id, parent}` minted per
//!   registered query. It is `Copy` and rides on
//!   [`Chunk::ctx`](crate::model::Chunk) through channel fan-out, so a
//!   consumer can link its scan span to the producing pump span without
//!   any allocation on the pooled hot path.
//! * [`Span`] — one stage's execution record: start/end ticks (process
//!   epoch, see [`now_ns`]), points handled, outcome, and an optional
//!   cross-trace [`Span::link`].
//! * [`FlightRecorder`] — a bounded per-query span ring plus a small
//!   set of frozen dumps captured at failure edges (watchdog
//!   cancellation, supervisor restart, pump panic).
//! * [`SpanGuard`] — RAII handle that closes its span on drop or
//!   explicit [`SpanGuard::finish`].
//! * [`SpanStream`] — a transparent [`GeoStream`] decorator that
//!   accounts points into a span and optionally captures the first
//!   chunk-carried context as the span's link.

use crate::model::{ChunkOrMarker, GeoStream, StreamSchema};
use crate::stats::{OpReport, OpStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default span-ring capacity of a [`FlightRecorder`].
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Frozen dumps kept per recorder (oldest win: the first failures of a
/// run are the interesting ones).
const MAX_DUMPS: usize = 8;

/// Nanoseconds since the process-wide monotonic epoch.
///
/// All span ticks and freshness stamps share this clock so lags are
/// plain subtractions; the epoch is the first call in the process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Causal identity of one span: which trace it belongs to, which span
/// it is, and which span caused it (`parent == 0` means root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Trace (one per registered query, or per ingest runtime).
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// Causing span id within the same trace (0 = root).
    pub parent: u64,
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Ran to completion (or is still open at dump time).
    Ok,
    /// Cut short by the watchdog or a shutdown.
    Cancelled,
    /// The stage died (pump panic, ingest crash).
    Error,
}

/// One recorded stage execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Span id, unique within the trace.
    pub span_id: u64,
    /// Parent span id (0 = root of the trace).
    pub parent: u64,
    /// Query the trace was minted for (`u32::MAX` = shared ingest).
    pub query_id: u32,
    /// Stage label (e.g. `delivery`, `restrict_space`, `scan:b4-ir`).
    pub stage: String,
    /// Start tick ([`now_ns`] clock).
    pub start_ns: u64,
    /// End tick; 0 while the span is still open.
    pub end_ns: u64,
    /// Points that passed through the stage.
    pub points: u64,
    /// How the stage ended.
    pub outcome: SpanOutcome,
    /// Cross-trace causal link (e.g. a scan span linking the ingest
    /// pump context carried on the first chunk it received).
    pub link: Option<TraceContext>,
}

/// A frozen copy of the span ring, captured at a failure edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecorderDump {
    /// Why the dump was taken (`watchdog`, `restart:band3`, ...).
    pub reason: String,
    /// When it was taken ([`now_ns`] clock).
    pub at_ns: u64,
    /// The ring contents at that instant, oldest first.
    pub spans: Vec<Span>,
}

/// Everything a recorder knows, in one serializable value — the
/// payload of `GET /trace/<query-id>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecorderSnapshot {
    /// Query the recorder belongs to.
    pub query_id: u32,
    /// Trace id minted for the query.
    pub trace_id: u64,
    /// Spans evicted from the ring because it was full.
    pub dropped: u64,
    /// Current ring contents, oldest first.
    pub spans: Vec<Span>,
    /// Failure-edge dumps, oldest first.
    pub dumps: Vec<RecorderDump>,
}

/// Bounded per-query span ring with failure-edge dumps.
///
/// Span ids are allocated from an atomic so planner construction can
/// reserve a parent id *before* building children (the pipeline is
/// built inside-out). `build_parent` threads a parent id into source
/// factories, which cannot take parameters.
#[derive(Debug)]
pub struct FlightRecorder {
    trace_id: u64,
    query_id: u32,
    capacity: usize,
    next_span: AtomicU64,
    build_parent: AtomicU64,
    spans: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
    dumps: Mutex<Vec<RecorderDump>>,
}

impl FlightRecorder {
    /// A recorder for `query_id` holding at most `capacity` spans.
    pub fn new(query_id: u32, capacity: usize) -> Self {
        static TRACE_IDS: AtomicU64 = AtomicU64::new(1);
        FlightRecorder {
            trace_id: TRACE_IDS.fetch_add(1, Ordering::Relaxed),
            query_id,
            capacity: capacity.max(1),
            next_span: AtomicU64::new(1),
            build_parent: AtomicU64::new(0),
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            dumps: Mutex::new(Vec::new()),
        }
    }

    /// A recorder with the default capacity.
    pub fn for_query(query_id: u32) -> Self {
        FlightRecorder::new(query_id, DEFAULT_SPAN_CAPACITY)
    }

    /// Trace id minted for this recorder.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Query this recorder belongs to.
    pub fn query_id(&self) -> u32 {
        self.query_id
    }

    /// Reserves the next span id without opening a span.
    pub fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Sets the parent id that source factories should chain under.
    pub fn set_build_parent(&self, span_id: u64) {
        self.build_parent.store(span_id, Ordering::Relaxed);
    }

    /// Parent id for factory-built stages (0 when none was set).
    pub fn build_parent(&self) -> u64 {
        self.build_parent.load(Ordering::Relaxed)
    }

    /// Opens a span under `parent` and returns its RAII guard.
    pub fn begin(self: &Arc<Self>, stage: &str, parent: u64) -> SpanGuard {
        let id = self.alloc_span();
        self.begin_with_id(id, stage, parent)
    }

    /// Opens a span whose id was reserved earlier via
    /// [`FlightRecorder::alloc_span`].
    pub fn begin_with_id(self: &Arc<Self>, span_id: u64, stage: &str, parent: u64) -> SpanGuard {
        SpanGuard {
            rec: Arc::clone(self),
            span: Some(Span {
                trace_id: self.trace_id,
                span_id,
                parent,
                query_id: self.query_id,
                stage: stage.to_string(),
                start_ns: now_ns(),
                end_ns: 0,
                points: 0,
                outcome: SpanOutcome::Ok,
                link: None,
            }),
        }
    }

    /// Records an already-finished span (e.g. a backfill handoff whose
    /// duration is only known at the splice switch). Returns its id.
    pub fn record_span(
        &self,
        stage: &str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        points: u64,
        outcome: SpanOutcome,
    ) -> u64 {
        let span_id = self.alloc_span();
        self.push(Span {
            trace_id: self.trace_id,
            span_id,
            parent,
            query_id: self.query_id,
            stage: stage.to_string(),
            start_ns,
            end_ns,
            points,
            outcome,
            link: None,
        });
        span_id
    }

    fn push(&self, span: Span) {
        let mut ring = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Copies the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        let ring = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter().cloned().collect()
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum buffered spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Freezes the current ring contents under `reason`. At most
    /// `MAX_DUMPS` (8) dumps are kept; later ones are dropped (the first
    /// failures of a run are the diagnostic ones).
    pub fn freeze(&self, reason: &str) {
        let spans = self.snapshot();
        let mut dumps = self.dumps.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if dumps.len() < MAX_DUMPS {
            dumps.push(RecorderDump { reason: reason.to_string(), at_ns: now_ns(), spans });
        }
    }

    /// Copies the failure-edge dumps, oldest first.
    pub fn dumps(&self) -> Vec<RecorderDump> {
        self.dumps.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Serializable snapshot of everything the recorder holds.
    pub fn to_snapshot(&self) -> RecorderSnapshot {
        RecorderSnapshot {
            query_id: self.query_id,
            trace_id: self.trace_id,
            dropped: self.dropped(),
            spans: self.snapshot(),
            dumps: self.dumps(),
        }
    }
}

/// RAII handle on an open [`Span`]. The span lands in the recorder on
/// [`SpanGuard::finish`] or on drop (outcome `Ok`).
#[derive(Debug)]
pub struct SpanGuard {
    rec: Arc<FlightRecorder>,
    span: Option<Span>,
}

impl SpanGuard {
    /// This span's id.
    pub fn span_id(&self) -> u64 {
        self.span.as_ref().map_or(0, |s| s.span_id)
    }

    /// This span's causal identity (for stamping onto chunks).
    pub fn ctx(&self) -> TraceContext {
        match &self.span {
            Some(s) => TraceContext { trace_id: s.trace_id, span_id: s.span_id, parent: s.parent },
            None => TraceContext { trace_id: self.rec.trace_id(), span_id: 0, parent: 0 },
        }
    }

    /// Adds to the span's point count.
    pub fn add_points(&mut self, n: u64) {
        if let Some(s) = &mut self.span {
            s.points += n;
        }
    }

    /// True once a cross-trace link has been captured.
    pub fn has_link(&self) -> bool {
        self.span.as_ref().is_some_and(|s| s.link.is_some())
    }

    /// Captures a cross-trace causal link (first one wins).
    pub fn set_link(&mut self, ctx: TraceContext) {
        if let Some(s) = &mut self.span {
            if s.link.is_none() {
                s.link = Some(ctx);
            }
        }
    }

    /// Closes the span with an explicit outcome.
    pub fn finish(mut self, outcome: SpanOutcome) {
        self.close(outcome);
    }

    fn close(&mut self, outcome: SpanOutcome) {
        if let Some(mut s) = self.span.take() {
            s.end_ns = now_ns();
            s.outcome = outcome;
            self.rec.push(s);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // A guard dropped during unwind (pump panic) records the death
        // instead of a spurious success.
        let outcome = if std::thread::panicking() { SpanOutcome::Error } else { SpanOutcome::Ok };
        self.close(outcome);
    }
}

/// A transparent [`GeoStream`] decorator that accounts the wrapped
/// stage into a [`Span`].
///
/// Unlike [`TracedStream`](super::TracedStream) it takes no latency
/// measurements of its own — it only counts points, closes the span
/// when the stream ends, and optionally captures the first
/// chunk-carried [`TraceContext`] as the span's link. It is invisible
/// to `collect_stats`, so operator reports are unchanged.
pub struct SpanStream<S: GeoStream> {
    inner: S,
    guard: Option<SpanGuard>,
    capture_link: bool,
}

impl<S: GeoStream> SpanStream<S> {
    /// Wraps `inner`, accounting into `guard`.
    pub fn new(inner: S, guard: SpanGuard) -> Self {
        SpanStream { inner, guard: Some(guard), capture_link: false }
    }

    /// Capture the first chunk-carried context as the span's link.
    pub fn with_link_capture(mut self) -> Self {
        self.capture_link = true;
        self
    }

    /// The wrapped stream.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn finish(&mut self, outcome: SpanOutcome) {
        if let Some(g) = self.guard.take() {
            g.finish(outcome);
        }
    }
}

impl<S: GeoStream> GeoStream for SpanStream<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<Self::V>> {
        let item = self.inner.next_chunk(budget);
        match &item {
            Some(ChunkOrMarker::Chunk(c)) => {
                if let Some(g) = &mut self.guard {
                    g.add_points(c.points.len() as u64);
                    if self.capture_link && !g.has_link() {
                        if let Some(ctx) = c.ctx {
                            g.set_link(ctx);
                        }
                    }
                }
            }
            None => self.finish(SpanOutcome::Ok),
            _ => {}
        }
        item
    }

    fn op_stats(&self) -> OpStats {
        self.inner.op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.inner.collect_stats(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn source() -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + r))
    }

    #[test]
    fn guard_records_span_with_parentage() {
        let rec = Arc::new(FlightRecorder::new(7, 16));
        let root = rec.begin("delivery", 0);
        let root_id = root.span_id();
        let mut child = rec.begin("restrict_space", root_id);
        child.add_points(42);
        child.finish(SpanOutcome::Ok);
        root.finish(SpanOutcome::Ok);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        // Child finished first, so it lands first.
        assert_eq!(spans[0].stage, "restrict_space");
        assert_eq!(spans[0].parent, root_id);
        assert_eq!(spans[0].points, 42);
        assert_eq!(spans[1].stage, "delivery");
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans.iter().all(|s| s.trace_id == rec.trace_id()));
    }

    #[test]
    fn ring_evicts_and_counts_drops() {
        let rec = Arc::new(FlightRecorder::new(1, 2));
        for i in 0..5 {
            rec.begin(&format!("s{i}"), 0).finish(SpanOutcome::Ok);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let spans = rec.snapshot();
        assert_eq!(spans[0].stage, "s3");
        assert_eq!(spans[1].stage, "s4");
    }

    #[test]
    fn span_stream_counts_points_and_closes_on_exhaustion() {
        let rec = Arc::new(FlightRecorder::new(1, 16));
        let guard = rec.begin("scan", 0);
        let mut s = SpanStream::new(source(), guard);
        while s.next_chunk(16).is_some() {}
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, "scan");
        assert_eq!(spans[0].points, 64);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn freeze_captures_ring_and_caps_dumps() {
        let rec = Arc::new(FlightRecorder::new(1, 8));
        rec.begin("pump", 0).finish(SpanOutcome::Error);
        for i in 0..12 {
            rec.freeze(&format!("restart:{i}"));
        }
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 8, "dump count is capped");
        assert_eq!(dumps[0].reason, "restart:0");
        assert_eq!(dumps[0].spans.len(), 1);
        assert_eq!(dumps[0].spans[0].outcome, SpanOutcome::Error);
    }

    #[test]
    fn snapshot_round_trips_as_json() {
        let rec = Arc::new(FlightRecorder::new(3, 8));
        let mut g = rec.begin("scan", 0);
        g.set_link(TraceContext { trace_id: 99, span_id: 5, parent: 0 });
        g.finish(SpanOutcome::Cancelled);
        rec.freeze("watchdog");
        let snap = rec.to_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: RecorderSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
