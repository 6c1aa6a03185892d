//! The one query evaluator: Fig. 3's execution → delivery box.
//!
//! [`Dsms::run_query`](crate::server::Dsms::run_query), the query
//! threads of [`run_supervised`](crate::continuous::run_supervised) and
//! its shared-plan nodes all run plans through [`Evaluator`], and every
//! [`QueryResult`] is assembled by [`conclude`]. Callers differ in what
//! they pass in: the catalog (private sources, or channel-backed
//! repaired ones), the pool (inline, or the runtime's), whether the run
//! is traced, and the sink.

use crate::metrics::ServerMetrics;
use crate::protocol::OutputFormat;
use crate::server::{QueryResult, SourceRepair};
use geostreams_core::exec::{
    compile_stages, run_morsels, split_parallel, ParallelSplit, RunReport, WorkerPool,
};
use geostreams_core::model::{
    BoxedF32Stream, ChunkOrMarker, Element, GeoStream, Marker, RepairProbe, StreamSchema,
    DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::{PipelineObs, SpanGuard, SpanOutcome, SpanStream};
use geostreams_core::ops::delivery::{DeliveredFrame, PngSink, Rendering};
use geostreams_core::query::{Catalog, Expr, Planner};
use geostreams_core::Result;
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::PngOptions;
use std::sync::Arc;
use std::time::Instant;

/// Evaluates plans over `catalog`: the partitionable operator suffix
/// fans out to `pool` (inline when it has no workers), everything else
/// runs on the calling thread.
pub(crate) struct Evaluator<'a> {
    pub qid: u32,
    pub catalog: &'a Catalog,
    pub pool: &'a WorkerPool,
    /// The run is traced iff metrics are attached: operator spans under
    /// a root `deliver` span in the query's flight recorder, and every
    /// delivered `FrameStart` noted ([`ServerMetrics::note_frame`]).
    pub metrics: Option<&'a Arc<ServerMetrics>>,
}

/// What one evaluation delivered: a counting run delivers the points
/// in its report, an image run delivers frames and counts those.
pub(crate) struct Delivered {
    pub frames: Vec<DeliveredFrame>,
    pub report: RunReport,
    pub points: u64,
}

impl Delivered {
    /// The delivery of a counting run.
    pub fn counted(report: RunReport) -> Delivered {
        Delivered { frames: Vec::new(), points: report.points_delivered, report }
    }
}

/// The plan root as an image sink pulls it, counting what a counting
/// run's driver counts for its report.
struct Pulled {
    inner: BoxedF32Stream,
    elements: u64,
    points: u64,
    sectors: u64,
}

impl GeoStream for Pulled {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn next_element(&mut self) -> Option<Element<f32>> {
        let el = self.inner.next_element()?;
        self.elements += 1;
        match el {
            Element::Point(_) => self.points += 1,
            Element::SectorEnd(_) => self.sectors += 1,
            _ => {}
        }
        Some(el)
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let item = self.inner.next_chunk(budget)?;
        self.elements += item.element_count();
        self.points += item.point_count() as u64;
        if let Some(Marker::SectorEnd(_)) = item.marker() {
            self.sectors += 1;
        }
        Some(item)
    }
}

impl Evaluator<'_> {
    /// Builds `expr` and its observation config. With metrics attached
    /// the run is traced: operators chain under the reserved id of the
    /// root delivery span (`obs.parent`).
    fn build(&self, expr: &Expr) -> Result<(BoxedF32Stream, PipelineObs)> {
        let planner = Planner::new(self.catalog);
        let Some(m) = self.metrics else {
            return Ok((planner.build(expr)?, PipelineObs::default()));
        };
        let rec = m.recorder(self.qid);
        let deliver_id = rec.alloc_span();
        let obs = PipelineObs::for_query(self.qid)
            .with_trace(Arc::clone(&m.trace))
            .with_recorder(rec)
            .under(deliver_id);
        Ok((planner.build_traced(expr, &obs)?, obs))
    }

    /// Picks the arm from the delivery format. `color_ramps` applies
    /// the NDVI/thermal color maps to the image formats that name them;
    /// without it every image is gray over the plan's value range.
    pub fn run(&self, expr: &Expr, format: OutputFormat, color_ramps: bool) -> Result<Delivered> {
        if !format.is_counting() {
            return self.render(expr, format, color_ramps);
        }
        Ok(Delivered::counted(self.count(expr, |_| {})?))
    }

    /// The counting arm: the order-sensitive inner plan is drained on
    /// this thread, the partitionable suffix runs morsel by morsel on
    /// the pool, and `sink` sees the merged output in serial order.
    /// With no workers to fan out to nothing is peeled — the whole plan
    /// is the inner pipeline, every operator traced in place — and on
    /// an empty suffix `run_morsels` is the serial chunk driver.
    pub fn count(
        &self,
        expr: &Expr,
        mut sink: impl FnMut(&ChunkOrMarker<f32>),
    ) -> Result<RunReport> {
        let split = match self.pool.workers() {
            0 => ParallelSplit { inner: expr, stages: Vec::new() },
            _ => split_parallel(expr),
        };
        let (mut inner, obs) = self.build(split.inner)?;
        let stages = Arc::new(compile_stages(&split.stages, inner.schema())?);
        let deliver = deliver_span(&obs);
        let report =
            run_morsels(&mut inner, &stages, self.pool, &obs, DEFAULT_CHUNK_BUDGET, |item| {
                if let (Some(m), Some(Marker::FrameStart(fi))) = (self.metrics, item.marker()) {
                    m.note_frame(self.qid, fi);
                }
                sink(item);
            })
            .run;
        if let Some(mut deliver) = deliver {
            deliver.add_points(report.points_delivered);
            deliver.finish(SpanOutcome::Ok);
        }
        Ok(report)
    }

    /// The image arm: a PNG sink assembles whole sectors, so it pulls
    /// the full plan in order on this thread. Its report counts what
    /// the sink pulled — `sectors` is the `SectorEnd` markers seen.
    fn render(&self, expr: &Expr, format: OutputFormat, color_ramps: bool) -> Result<Delivered> {
        let (built, obs) = self.build(expr)?;
        let pipeline: BoxedF32Stream = match (deliver_span(&obs), self.metrics) {
            (Some(deliver), Some(m)) => {
                let (m, qid) = (Arc::clone(m), self.qid);
                Box::new(
                    SpanStream::new(built, deliver)
                        .with_frame_hook(move |fi| m.note_frame(qid, fi)),
                )
            }
            _ => built,
        };
        let rendering = color_ramps.then(|| rendering_for(format, pipeline.schema().value_range));
        let pulled = Pulled { inner: pipeline, elements: 0, points: 0, sectors: 0 };
        let started = Instant::now();
        let mut sink = PngSink::new(pulled, rendering, PngOptions::default());
        let frames: Vec<DeliveredFrame> = std::iter::from_fn(|| sink.next_frame()).collect();
        let pulled = sink.inner();
        let mut per_op = Vec::new();
        pulled.inner.collect_stats(&mut per_op);
        let report = RunReport {
            wall: started.elapsed(),
            elements: pulled.elements,
            points_delivered: pulled.points,
            sectors: pulled.sectors,
            pull_latency: per_op.last().and_then(|r| r.pull_latency.clone()).unwrap_or_default(),
            per_op,
            protocol_violations: 0,
        };
        Ok(Delivered { points: frames.len() as u64, frames, report })
    }
}

/// Closes a query — the one place a [`QueryResult`] is built: repair
/// facts from its sources' probes, protocol alarms, the directory's
/// final state, points and completeness (`1.0` with nothing to repair).
pub(crate) fn conclude(
    qid: u32,
    metrics: Option<&ServerMetrics>,
    run: Result<Delivered>,
    probes: &[(String, Arc<RepairProbe>)],
    cancelled: bool,
) -> Result<QueryResult> {
    let result = run.map(|Delivered { frames, report, points }| {
        // Debug-build runtime validator: marker bracketing or
        // chunk-edge violations the driver observed become a counted
        // alarm (always 0 in release builds).
        if let Some(m) = metrics.filter(|_| report.protocol_violations > 0) {
            m.protocol_violations.add(report.protocol_violations);
        }
        let repair = probes
            .iter()
            .map(|(source, p)| SourceRepair {
                source: source.clone(),
                stats: p.stats(),
                sectors: p.sectors(),
            })
            .collect();
        QueryResult { id: qid, frames, report: Some(report), points, repair, cancelled }
    });
    if let Some(m) = metrics {
        match &result {
            Ok(r) => {
                let completeness =
                    r.repair.iter().map(|s| s.stats.completeness()).fold(1.0_f64, f64::min);
                let state = if cancelled { "cancelled" } else { "done" };
                m.finish_query(qid, state, r.points, completeness);
            }
            Err(_) => m.finish_query(qid, if cancelled { "cancelled" } else { "failed" }, 0, 0.0),
        }
    }
    result
}

/// Opens the root delivery span of a traced run.
fn deliver_span(obs: &PipelineObs) -> Option<SpanGuard> {
    obs.recorder.as_ref().map(|rec| rec.begin_with_id(obs.parent, "deliver", 0))
}

/// Chooses the PNG rendering for an image format.
fn rendering_for(format: OutputFormat, value_range: (f64, f64)) -> Rendering {
    let (lo, hi) = value_range;
    match format {
        OutputFormat::PngNdvi => Rendering::Mapped { lo: -1.0, hi: 1.0, map: ColorMap::ndvi() },
        OutputFormat::PngThermal => Rendering::Mapped { lo, hi, map: ColorMap::thermal() },
        _ => Rendering::Gray { lo, hi },
    }
}
