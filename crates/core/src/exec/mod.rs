//! Pull-based pipeline executor.
//!
//! The §4 prototype's "Execution" box: drives an operator pipeline to
//! completion (or sector by sector), collecting the per-operator
//! statistics that the experiment suite reports. Every run also times
//! root pulls into a lock-free [`Histogram`] so reports carry
//! latency percentiles alongside the paper's buffered-points peaks.
//!
//! The driver is chunk-native: it pulls whole point runs via
//! [`GeoStream::next_chunk`] and times pulls with the sampled-clock
//! discipline ([`SampledClock`]): one `Instant` pair every
//! [`PULL_SAMPLE_EVERY`](crate::obs::PULL_SAMPLE_EVERY)th pull, with
//! intervening pulls charged at the last measured per-element cost, so
//! `pull_latency.count` stays element-denominated while observation
//! overhead drops below two clock reads per run.
//!
//! Two sibling modules extend the driver across cores:
//!
//! * [`pool`] — a fixed work-stealing [`WorkerPool`] with per-worker
//!   chunk recycling and an order-restoring [`OrderedCollector`];
//! * [`morsel`] — the morsel-driven parallel driver: partitions the
//!   input into sector/frame morsels, runs the partitionable operator
//!   suffix on pool workers, and merges results back in lattice order
//!   so output is byte-identical to [`run_chunked`] at every budget
//!   and worker count.

pub mod morsel;
pub mod pool;

pub use morsel::{
    build_split, compile_stages, run_morsels, split_and_compile, split_parallel, CompiledStages,
    MorselReport, ParallelSplit,
};
pub use pool::{OrderedCollector, WorkerPool, WorkerStatsSnapshot};

use crate::model::{
    ChunkOrMarker, Element, GeoStream, Marker, TimeSemantics, DEFAULT_CHUNK_BUDGET,
};
use crate::obs::{Histogram, HistogramSnapshot, PipelineObs, SampledClock};
use crate::ops::ChunkProtocolChecker;
use crate::stats::OpReport;
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Result of draining a pipeline.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Wall-clock time spent pulling the pipeline.
    pub wall: Duration,
    /// Total elements produced by the pipeline root.
    pub elements: u64,
    /// Points delivered by the pipeline root.
    pub points_delivered: u64,
    /// Sectors completed.
    pub sectors: u64,
    /// Per-operator statistics, upstream first.
    pub per_op: Vec<OpReport>,
    /// Per-element pull latency at the pipeline root (nanoseconds).
    pub pull_latency: HistogramSnapshot,
    /// Stream-protocol violations the [`ChunkProtocolChecker`] observed
    /// at the pipeline root (bracketing breaks, points outside their
    /// frame or lattice, id regressions, chunks crossing frame/sector
    /// edges). The driver runs the checker in debug builds only, so
    /// this is 0 in release builds.
    pub protocol_violations: u64,
}

impl RunReport {
    /// Peak buffered points across all operators (the paper's space
    /// measure).
    pub fn peak_buffered_points(&self) -> u64 {
        self.per_op.iter().map(|r| r.stats.buffered_points_peak).max().unwrap_or(0)
    }

    /// Peak buffered bytes across all operators.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.per_op.iter().map(|r| r.stats.buffered_bytes_peak).max().unwrap_or(0)
    }

    /// Sum of points consumed across all operators (total work measure).
    pub fn total_points_processed(&self) -> u64 {
        self.per_op.iter().map(|r| r.stats.points_in).sum()
    }

    /// Nanoseconds of wall time per delivered point.
    pub fn ns_per_point(&self) -> f64 {
        if self.points_delivered == 0 {
            return 0.0;
        }
        self.wall.as_nanos() as f64 / self.points_delivered as f64
    }

    /// Median root pull latency in nanoseconds.
    pub fn pull_p50_ns(&self) -> u64 {
        self.pull_latency.p50()
    }

    /// 95th-percentile root pull latency in nanoseconds.
    pub fn pull_p95_ns(&self) -> u64 {
        self.pull_latency.p95()
    }

    /// 99th-percentile root pull latency in nanoseconds.
    pub fn pull_p99_ns(&self) -> u64 {
        self.pull_latency.p99()
    }

    /// The latency snapshot of a named operator, if it was traced.
    pub fn op_pull_latency(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.per_op.iter().find(|r| r.name == name).and_then(|r| r.pull_latency.as_ref())
    }
}

/// Serializable summary of a [`RunReport`] (for the DSMS's JSON stats
/// delivery format).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Wall-clock microseconds spent pulling the pipeline.
    pub wall_us: u64,
    /// Total elements produced by the pipeline root.
    pub elements: u64,
    /// Points delivered by the pipeline root.
    pub points_delivered: u64,
    /// Sectors completed.
    pub sectors: u64,
    /// Peak buffered points across all operators.
    pub peak_buffered_points: u64,
    /// Peak buffered bytes across all operators.
    pub peak_buffered_bytes: u64,
    /// Median root pull latency (nanoseconds).
    #[serde(default)]
    pub pull_p50_ns: u64,
    /// 95th-percentile root pull latency (nanoseconds).
    #[serde(default)]
    pub pull_p95_ns: u64,
    /// 99th-percentile root pull latency (nanoseconds).
    #[serde(default)]
    pub pull_p99_ns: u64,
    /// Full root pull-latency histogram.
    #[serde(default)]
    pub pull_latency: HistogramSnapshot,
    /// Stream-protocol violations observed at the pipeline root (debug
    /// builds only; see [`RunReport::protocol_violations`]).
    #[serde(default)]
    pub protocol_violations: u64,
    /// Per-operator statistics, upstream first.
    pub per_op: Vec<OpReport>,
}

impl RunReport {
    /// Builds the serializable summary.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            wall_us: self.wall.as_micros() as u64,
            elements: self.elements,
            points_delivered: self.points_delivered,
            sectors: self.sectors,
            peak_buffered_points: self.peak_buffered_points(),
            peak_buffered_bytes: self.peak_buffered_bytes(),
            pull_p50_ns: self.pull_p50_ns(),
            pull_p95_ns: self.pull_p95_ns(),
            pull_p99_ns: self.pull_p99_ns(),
            pull_latency: self.pull_latency.clone(),
            protocol_violations: self.protocol_violations,
            per_op: self.per_op.clone(),
        }
    }
}

/// Drains the pipeline, invoking `on_element` for every element.
pub fn run_with<S, F>(stream: &mut S, on_element: F) -> RunReport
where
    S: GeoStream,
    F: FnMut(&Element<S::V>),
{
    run_observed(stream, &PipelineObs::default(), on_element)
}

/// [`run_chunked`] at the default budget, for a per-element consumer.
///
/// Elements are pulled in chunks of [`DEFAULT_CHUNK_BUDGET`] points and
/// flattened for the callback, so `on_element` still sees the exact
/// element sequence.
pub fn run_observed<S, F>(stream: &mut S, obs: &PipelineObs, mut on_element: F) -> RunReport
where
    S: GeoStream,
    F: FnMut(&Element<S::V>),
{
    run_chunked(stream, obs, DEFAULT_CHUNK_BUDGET, |item| {
        item.for_each_element(&mut |el| on_element(el));
    })
}

/// What [`run_chunked`] and [`run_morsels`] share: timed pulls, and
/// delivery — count the item, cross-check it, hand it to the consumer,
/// recycle its buffer — all accumulated into the run's [`RunReport`].
struct Drive<F> {
    on_item: F,
    start: Instant,
    pull_ns: Histogram,
    clock: SampledClock,
    /// Live grammar check of every delivered item, in debug builds:
    /// release builds skip it (the static certificate already carries
    /// the proof).
    checker: ChunkProtocolChecker,
    report: RunReport,
}

impl<F> Drive<F> {
    /// Starts a run whose items are pulled at `budget` from a stream of
    /// `time_semantics`.
    fn begin(on_item: F, budget: usize, time_semantics: TimeSemantics) -> Self {
        Drive {
            on_item,
            start: Instant::now(),
            pull_ns: Histogram::new(),
            clock: SampledClock::new(),
            checker: ChunkProtocolChecker::new(budget, time_semantics),
            report: RunReport::default(),
        }
    }

    /// [`GeoStream::next_chunk`], timed.
    fn next_chunk<S: GeoStream>(
        &mut self,
        stream: &mut S,
        budget: usize,
    ) -> Option<ChunkOrMarker<S::V>> {
        let t0 = self.clock.begin();
        let item = stream.next_chunk(budget)?;
        self.clock.end(t0, item.element_count().max(1), &self.pull_ns);
        Some(item)
    }

    fn deliver<V: Pixel>(&mut self, item: ChunkOrMarker<V>)
    where
        F: FnMut(&ChunkOrMarker<V>),
    {
        self.report.elements += item.element_count().max(1);
        self.report.points_delivered += item.point_count() as u64;
        if let Some(Marker::SectorEnd(_)) = item.marker() {
            self.report.sectors += 1;
        }
        // The one place the build profile is read.
        if cfg!(debug_assertions) {
            self.checker.observe(&item);
        }
        (self.on_item)(&item);
        item.recycle();
    }

    fn finish(mut self, per_op: Vec<OpReport>) -> RunReport {
        self.clock.flush(&self.pull_ns);
        RunReport {
            wall: self.start.elapsed(),
            per_op,
            pull_latency: self.pull_ns.snapshot(),
            protocol_violations: self.checker.violations(),
            ..self.report
        }
    }
}

/// The chunk-native driver: drains the pipeline pulling up to `budget`
/// points per call, invoking `on_item` once per run. Pull timing uses
/// the [`SampledClock`] discipline — a clock read only every
/// [`PULL_SAMPLE_EVERY`](crate::obs::PULL_SAMPLE_EVERY)th pull, backlog
/// charged at the last measured per-element cost — so
/// [`RunReport::pull_latency`] stays element-denominated (`count` equals
/// `elements`) without an `Instant` pair per chunk. The driver records
/// nothing into the observation config the pipeline was built under:
/// operator spans are the planner's, the delivery span the caller's.
pub fn run_chunked<S, F>(stream: &mut S, _obs: &PipelineObs, budget: usize, on_item: F) -> RunReport
where
    S: GeoStream,
    F: FnMut(&ChunkOrMarker<S::V>),
{
    let mut drive = Drive::begin(on_item, budget, stream.schema().time_semantics);
    while let Some(item) = drive.next_chunk(stream, budget) {
        drive.deliver(item);
    }
    let mut per_op = Vec::new();
    stream.collect_stats(&mut per_op);
    drive.finish(per_op)
}

/// Drains the pipeline, discarding elements (pure measurement run).
/// Skips per-element flattening entirely: counters advance per chunk.
pub fn run_to_end<S: GeoStream>(stream: &mut S) -> RunReport {
    run_chunked(stream, &PipelineObs::default(), DEFAULT_CHUNK_BUDGET, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use crate::ops::SpatialRestrict;
    use geostreams_geo::{Crs, LatticeGeoref, Rect, Region};

    fn source() -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10);
        VecStream::sectors("src", lattice, 2, |s, c, r| f64::from(c + r) + s as f64)
    }

    #[test]
    fn run_counts_everything() {
        let mut s = source();
        let report = run_to_end(&mut s);
        assert_eq!(report.points_delivered, 200);
        assert_eq!(report.sectors, 2);
        // 2 sectors x (1 SectorStart + 10*(2 frame markers) + 100 points
        // + 1 SectorEnd).
        assert_eq!(report.elements, 2 * (1 + 20 + 100 + 1));
        assert_eq!(report.per_op.len(), 1);
    }

    #[test]
    fn report_aggregates_pipeline_stats() {
        let region = Region::Rect(Rect::new(0.0, 0.0, 5.0, 5.0));
        let mut op = SpatialRestrict::new(source(), region);
        let report = run_to_end(&mut op);
        assert_eq!(report.per_op.len(), 2);
        assert_eq!(report.per_op[1].name, "restrict_space");
        assert!(report.points_delivered < 200);
        assert_eq!(report.peak_buffered_points(), 0);
        assert!(report.total_points_processed() >= 200);
    }

    #[test]
    fn every_run_histograms_root_pulls() {
        let mut s = source();
        let report = run_to_end(&mut s);
        assert_eq!(report.pull_latency.count, report.elements);
        assert!(report.pull_p99_ns() >= report.pull_p50_ns());
    }

    #[test]
    fn summary_serializes_to_json() {
        let mut s = source();
        let report = run_to_end(&mut s);
        let summary = report.summary();
        let json = serde_json::to_string(&summary).unwrap();
        let back: RunSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.points_delivered, 200);
        assert_eq!(back.pull_latency.count, report.elements);
    }

    #[test]
    fn callback_sees_all_elements() {
        let mut s = source();
        let mut n = 0u64;
        let report = run_with(&mut s, |_| n += 1);
        assert_eq!(n, report.elements);
    }

    #[test]
    fn chunked_driver_matches_scalar_element_order() {
        // The chunk-native driver must present the callback with the
        // exact element sequence of one-element pulls.
        let mut one_by_one = source();
        let scalar: Vec<_> = std::iter::from_fn(|| one_by_one.next_element()).collect();
        let mut replayed = Vec::new();
        let mut s = source();
        let report = run_with(&mut s, |el| replayed.push(el.clone()));
        assert_eq!(replayed, scalar);
        assert_eq!(report.elements as usize, scalar.len());
    }

    #[test]
    fn runs_are_protocol_clean() {
        for budget in [1usize, 7, 64, DEFAULT_CHUNK_BUDGET] {
            let mut s = source();
            let report = run_chunked(&mut s, &PipelineObs::default(), budget, |_| {});
            assert_eq!(report.protocol_violations, 0, "budget {budget}");
        }
        let region = Region::Rect(Rect::new(0.0, 0.0, 5.0, 5.0));
        let mut op = SpatialRestrict::new(source(), region);
        assert_eq!(run_to_end(&mut op).protocol_violations, 0);
    }

    #[test]
    fn run_chunked_reports_per_element_latency_counts() {
        for budget in [1usize, 7, 64] {
            let mut s = source();
            let report = run_chunked(&mut s, &PipelineObs::default(), budget, |_| {});
            assert_eq!(report.pull_latency.count, report.elements, "budget {budget}");
            assert_eq!(report.points_delivered, 200);
            assert_eq!(report.sectors, 2);
        }
    }
}
