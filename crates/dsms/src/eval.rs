//! The one query evaluator: Fig. 3's execution → delivery box.
//!
//! [`Dsms::run_query`](crate::server::Dsms::run_query), the query
//! threads of [`run_supervised`](crate::continuous::run_supervised) and
//! its shared-plan nodes all run plans through [`Evaluator`], and every
//! [`QueryResult`] is assembled by [`conclude`]. There is one path from
//! plan to delivery, whatever the format, over a catalog from the one
//! source stack of [`crate::continuous`]. Callers differ in the pool
//! (inline, or the runtime's), whether the run is traced, and the sink
//! — count, push into a PNG [`FrameSink`], or multicast.

use crate::metrics::ServerMetrics;
use crate::protocol::OutputFormat;
use crate::server::{QueryResult, SourceRepair};
use geostreams_core::exec::{build_split, run_morsels, RunReport, WorkerPool};
use geostreams_core::model::{
    ChunkOrMarker, Marker, RepairProbe, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::{PipelineObs, SpanOutcome};
use geostreams_core::ops::delivery::{DeliveredFrame, FrameSink, Rendering};
use geostreams_core::query::{Catalog, Plan, Planner};
use geostreams_core::Result;
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::PngOptions;
use std::sync::Arc;

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

impl Evaluator<'_> {
    /// Runs `plan` to the end and delivers it in `format`: an image
    /// format adds a PNG sink that the driver pushes every item into,
    /// nothing else differs. `color_ramps` applies the NDVI/thermal
    /// color maps to the image formats that name them; without it every
    /// image is gray over the plan's value range.
    pub fn run(&self, plan: &Plan, format: OutputFormat, color_ramps: bool) -> Result<Delivered> {
        if format.is_counting() {
            return Ok(Delivered::counted(self.count(plan, |_| {})?));
        }
        let mut frames = Vec::new();
        let delivered = &mut frames;
        let report = self.drive(plan, |schema| {
            let rendering = rendering_for(format, color_ramps, schema.value_range);
            let mut sink = FrameSink::new(rendering, PngOptions::default());
            move |item| delivered.extend(sink.push(item))
        })?;
        Ok(Delivered { points: frames.len() as u64, frames, report })
    }

    /// Runs `plan` to the end, `sink` seeing every delivered item.
    pub fn count(&self, plan: &Plan, sink: impl FnMut(&ChunkOrMarker<f32>)) -> Result<RunReport> {
        self.drive(plan, |_| sink)
    }

    /// The one path from plan to report: the order-sensitive inner plan
    /// is drained on this thread, the partitionable suffix runs morsel
    /// by morsel on the pool, and the sink — made once the schema of
    /// the run's output is known — sees the merged output in serial
    /// order. With no workers to fan out to nothing is peeled — the
    /// whole plan is the inner pipeline, every operator traced in place
    /// — and on an empty suffix `run_morsels` is the serial chunk
    /// driver. A traced run (metrics attached) chains its operator
    /// spans under a root `deliver` span and notes every delivered
    /// `FrameStart`.
    fn drive<F: FnMut(&ChunkOrMarker<f32>)>(
        &self,
        plan: &Plan,
        sink_for: impl FnOnce(&StreamSchema) -> F,
    ) -> Result<RunReport> {
        // A traced run reserves the delivery span's id before the build,
        // so the operators (built inside-out) chain under it.
        let obs = self.metrics.map(|m| {
            let rec = m.recorder(self.qid);
            let deliver_id = rec.alloc_span();
            PipelineObs::default().with_recorder(rec).under(deliver_id)
        });
        let peel = self.pool.workers() > 0;
        let (mut inner, stages) =
            build_split(&Planner::new(self.catalog), plan, peel, obs.as_ref())?;
        let (stages, obs) = (Arc::new(stages), obs.unwrap_or_default());
        let mut sink = sink_for(stages.schema());
        let deliver = obs.recorder.as_ref().map(|rec| rec.begin_with_id(obs.parent, "deliver", 0));
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

/// Chooses the PNG rendering for an image format: gray over the plan's
/// value range unless `color_ramps` applies the format's color map.
fn rendering_for(format: OutputFormat, color_ramps: bool, (lo, hi): (f64, f64)) -> Rendering {
    match format {
        OutputFormat::PngNdvi if color_ramps => {
            Rendering::Mapped { lo: -1.0, hi: 1.0, map: ColorMap::ndvi() }
        }
        OutputFormat::PngThermal if color_ramps => {
            Rendering::Mapped { lo, hi, map: ColorMap::thermal() }
        }
        _ => Rendering::Gray { lo, hi },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::model::{GeoStream, VecStream};
    use geostreams_core::query::parse_query;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    #[test]
    fn an_image_run_reports_what_the_driver_counted() {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
        let mut catalog = Catalog::new();
        let make = move || {
            VecStream::<f32>::sectors("src", lattice, 3, |s, c, r| f64::from(c + r) + s as f64)
        };
        catalog.register(make().schema().clone(), move || Box::new(make()));
        let plan = Plan::analyze(parse_query("scale(src, 2, 0)").expect("parses"), &catalog);
        for workers in [0, 2] {
            let pool = WorkerPool::new(workers);
            let eval = Evaluator { qid: 1, catalog: &catalog, pool: &pool, metrics: None };
            let Delivered { frames, report, points } =
                eval.run(&plan, OutputFormat::PngGray, false).expect("runs");
            assert_eq!((frames.len(), points), (3, 3), "{workers} workers");
            assert_eq!(report.sectors, 3, "{workers} workers: one per SectorEnd");
            assert_eq!(report.points_delivered, 3 * 64, "{workers} workers");
            assert_eq!(report.pull_latency.count, report.elements, "{workers} workers");
        }
    }
}
