//! Observability: histograms, metric registry, and operator tracing.
//!
//! The paper's evaluation (§3–§4) is a space/time argument — restriction
//! cost per point, frame-scoped buffering, composition cost by point
//! organization. This module makes those quantities *measurable* on a
//! running system rather than asserted:
//!
//! * [`Histogram`] — a lock-free, log2-bucketed latency/size histogram
//!   (64 `AtomicU64` buckets; record/merge/percentile/snapshot);
//! * [`Registry`] — named counters, gauges and histograms with label
//!   sets, rendered as Prometheus text exposition v0.0.4 by hand
//!   (std-only, scrape-ready);
//! * [`SampledClock`] — the one sampled pull timer: the drivers time
//!   root pulls with it, [`TracedStream`] each operator's;
//! * [`TracedStream`] — a [`GeoStream`](crate::model::GeoStream)
//!   decorator the planner threads through every operator so
//!   [`RunReport`](crate::exec::RunReport) can expose per-op pull/frame
//!   latency percentiles;
//! * [`TraceContext`] / [`Span`] / [`FlightRecorder`] / [`SpanStream`]
//!   — causal tracing: a per-query trace context propagated on the
//!   chunk flow, per-stage spans with parentage and outcomes, and a
//!   bounded flight recorder with failure-edge dumps.
//!
//! Everything here is `std`-only: no new dependencies.

mod clock;
mod hist;
mod registry;
mod span;
mod traced;

pub use clock::{SampledClock, PULL_SAMPLE_EVERY};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, HistogramHandle, MetricKey, Registry};
pub use span::{
    now_ns, FlightRecorder, RecorderDump, RecorderSnapshot, Span, SpanGuard, SpanOutcome,
    SpanStream, TraceContext, DEFAULT_SPAN_CAPACITY,
};
pub use traced::{PipelineObs, TracedStream};
