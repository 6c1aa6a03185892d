//! Morsel-driven parallel execution of the partitionable plan suffix —
//! a thin layer over the chunk protocol, not a second executor.
//!
//! The split follows each operator's declared [`Parallelism`] contract
//! (see [`Expr::contract`]): starting at the query root,
//! [`split_parallel`] peels off the longest suffix of `Partitionable`
//! unary operators — restriction, value transform, stretch, focal,
//! orient — leaving everything below (sources, shedding, delays,
//! compositions, aggregates: the `OrderSensitive` / `BlockingMerge`
//! operators) on the single-threaded *inner* pipeline. A stage is the
//! plan's own [`Expr`] node; its operator is built by the planner's one
//! constructor, `query::plan::build_operator`.
//!
//! [`run_morsels`] then drives the inner pipeline from the consumer
//! thread and cuts its output into **morsels** at the split's
//! [`Granularity`] — whole `SectorStart..SectorEnd` brackets when any
//! stage is sector-scoped (focal, image-scope stretch, orient), single
//! frames otherwise. A morsel is a `Vec` of the [`ChunkOrMarker`] items
//! the inner pipeline produced: nothing is flattened, queued per
//! element or re-packed on the way in or out. The cut always falls
//! between two items, because the markers that open a unit
//! (`SectorStart`, `FrameStart`) normally travel alone; a run whose
//! [`Chunk::end`](crate::model::Chunk::end) is such a marker (the
//! closing marker before it was lost and nothing below repaired it) is
//! handed on as its points and the marker, separately, so the flattened
//! sequence is what it was. Each morsel, tagged with a submission
//! sequence number, goes to a [`WorkerPool`]; the worker builds a
//! *fresh* instance of the stage operators over it, pulls that chain at
//! the run's `budget` and returns the items it got (frame morsels are
//! given a synthetic copy of the enclosing `SectorStart` so
//! georeferencing context travels with the work; its echo is stripped
//! from the output). An [`OrderedCollector`] merges results back in
//! submission order, and delivery is [`run_chunked`]'s: count,
//! cross-check, hand over, recycle. A chunk keeps its
//! [`ctx`](crate::model::Chunk::ctx) across the hand-off wherever the
//! stage operators keep it.
//!
//! The flattened element sequence is **byte-identical** to the serial
//! pipeline at every chunk budget and worker count — the contracts
//! guarantee a fresh per-unit instance reproduces the serial operator
//! exactly; chunk *boundaries* may differ from the serial driver near
//! morsel edges. The guarantee requires protocol-clean inner output
//! (`SectorStart..SectorEnd` bracketing, `FrameStart..FrameEnd`
//! nesting); faulty transports should be routed through
//! [`StreamRepair`](crate::model::StreamRepair) *below* the split,
//! where it runs order-sensitively, exactly as in the serial plan.

use super::pool::{OrderedCollector, WorkerPool};
use super::{run_chunked, Drive, RunReport};
use crate::error::Result;
use crate::model::{
    BoxedF32Stream, ChunkChannel, ChunkOrMarker, GeoStream, Marker, SectorInfo, StreamSchema,
    VecStream,
};
use crate::obs::{PipelineObs, SpanOutcome};
use crate::ops::{Granularity, Parallelism};
use crate::query::plan::{build_operator, region_in};
use crate::query::{Expr, Plan, Planner};
use crate::stats::{OpReport, OpStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The outcome of [`split_parallel`]: the order-sensitive residue and
/// the partitionable stage suffix (upstream first), both borrowed from
/// the plan. A stage is the operator node as the plan spells it; only
/// its parameters are read — its input is the stage before it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelSplit<'a> {
    /// The expression that stays on the single-threaded inner pipeline.
    pub inner: &'a Expr,
    /// Partitionable stages to run per-morsel, upstream first.
    pub stages: Vec<&'a Expr>,
}

impl ParallelSplit<'_> {
    /// Morsel granularity: the coarsest granularity any stage demands
    /// ([`Granularity::Sector`] dominates [`Granularity::Frame`]).
    pub fn granularity(&self) -> Granularity {
        self.stages.iter().map(|s| s.contract().granularity).max().unwrap_or(Granularity::Frame)
    }
}

/// Peels the longest suffix of [`Parallelism::Partitionable`] unary
/// operators off the plan root. Operators whose contracts are
/// order-sensitive or blocking bound the parallel region and stay in
/// `inner` together with everything beneath them.
pub fn split_parallel(expr: &Expr) -> ParallelSplit<'_> {
    let mut stages = Vec::new();
    let mut inner = expr;
    while let [input] = inner.inputs()[..] {
        if inner.contract().parallelism != Parallelism::Partitionable {
            break;
        }
        stages.push(inner);
        inner = input;
    }
    stages.reverse();
    ParallelSplit { inner, stages }
}

/// Compiled form of a stage suffix: the stage nodes a worker builds a
/// fresh operator chain from per morsel, plus the probed operator names
/// (for per-op stats), the schema of what the suffix delivers and the
/// morsel granularity.
#[derive(Debug, Clone)]
pub struct CompiledStages {
    /// Upstream first; restriction regions are already in the stream's
    /// coordinate system.
    nodes: Vec<Expr>,
    names: Vec<String>,
    schema: StreamSchema,
    granularity: Granularity,
}

impl CompiledStages {
    /// True when there is nothing to parallelize (the driver
    /// degenerates to [`run_chunked`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Morsel granularity of the compiled suffix.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Probed operator names, upstream first (aligned with the stage
    /// slots in [`RunReport::per_op`]).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Schema of the run's output: the last stage's, or the inner
    /// stream's when there is no stage.
    pub fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn build_chain(&self, input: BoxedF32Stream) -> Result<BoxedF32Stream> {
        self.nodes
            .iter()
            .try_fold(input, |chain, node| build_operator(node, &mut std::iter::once(Ok(chain))))
    }
}

/// Compiles the stages against the inner stream's schema. Fallible work
/// happens once here, not per morsel: a cross-CRS restriction region is
/// mapped now (the planner's own rule, `region_in`), and the probe
/// chain below proves the suffix builds.
pub fn compile_stages(stages: &[&Expr], schema: &StreamSchema) -> Result<CompiledStages> {
    let mut compiled = CompiledStages {
        nodes: Vec::new(),
        names: Vec::new(),
        schema: schema.clone(),
        granularity: Granularity::Frame,
    };
    for stage in stages {
        let mut node = (*stage).clone();
        if let Expr::RestrictSpace { region, crs, .. } = &mut node {
            *region = region_in(region, crs, &schema.crs)?;
            *crs = schema.crs;
        }
        compiled.granularity = compiled.granularity.max(node.contract().granularity);
        compiled.nodes.push(node);
    }
    // Probe operator names and the output schema by building one chain
    // over an empty stream.
    let probe = compiled.build_chain(Box::new(VecStream::new(schema.clone(), Vec::new())))?;
    let mut reports = Vec::new();
    probe.collect_stats(&mut reports);
    compiled.names = reports.into_iter().skip(1).map(|r| r.name).collect();
    compiled.schema = probe.schema().clone();
    Ok(compiled)
}

/// Builds `plan` for the morsel driver: the inner pipeline through
/// `planner` (traced under `obs`, untraced without), on the plan's own
/// verdict, and the stage suffix compiled against its schema. Without
/// `peel` the whole plan is the inner pipeline and the suffix is empty.
pub fn build_split(
    planner: &Planner<'_>,
    plan: &Plan,
    peel: bool,
    obs: Option<&PipelineObs>,
) -> Result<(BoxedF32Stream, CompiledStages)> {
    let split = match peel {
        true => split_parallel(plan),
        false => ParallelSplit { inner: plan, stages: Vec::new() },
    };
    let inner = planner.build_part(plan, split.inner, obs)?;
    let compiled = compile_stages(&split.stages, inner.schema())?;
    Ok((inner, compiled))
}

/// [`build_split`] with the suffix peeled and the inner pipeline traced
/// under `obs` exactly like a serial plan.
pub fn split_and_compile(
    planner: &Planner<'_>,
    plan: &Plan,
    obs: &PipelineObs,
) -> Result<(BoxedF32Stream, CompiledStages)> {
    build_split(planner, plan, true, Some(obs))
}

/// A morsel: the inner pipeline's items for one unit of work, and
/// whether the kernel must strip the echo of a synthesized leading
/// `SectorStart` from its output.
type Unit = (Vec<ChunkOrMarker<f32>>, bool);

struct KernelOut {
    items: Vec<ChunkOrMarker<f32>>,
    stage_stats: Vec<OpStats>,
}

/// Runs one morsel through a fresh stage chain, pulled at the run's
/// `budget`. The source hands the staged items over as they are: they
/// were pulled at that same budget, and a stage that asks for less
/// (`ChunkInput`'s fixed budget) reads a longer run just as well.
fn run_kernel(
    stages: &CompiledStages,
    schema: &StreamSchema,
    (unit, strip_synthetic): Unit,
    budget: usize,
) -> Result<KernelOut> {
    let mut staged = unit.into_iter();
    let src = ChunkChannel::new(schema.clone(), move || staged.next());
    let mut chain = stages.build_chain(Box::new(src))?;
    let mut items = Vec::new();
    while let Some(item) = chain.next_chunk(budget) {
        items.push(item);
    }
    let mut reports = Vec::new();
    chain.collect_stats(&mut reports);
    let stage_stats = reports.into_iter().skip(1).map(|r| r.stats).collect();
    if strip_synthetic {
        let is_start = |i: &ChunkOrMarker<f32>| matches!(i.marker(), Some(Marker::SectorStart(_)));
        if let Some(pos) = items.iter().position(is_start) {
            match &mut items[pos] {
                ChunkOrMarker::Chunk(c) => c.end = None,
                ChunkOrMarker::Marker(_) => drop(items.remove(pos)),
            }
        }
    }
    Ok(KernelOut { items, stage_stats })
}

/// Cuts the inner pipeline's item sequence into morsel units at the
/// split granularity. A frame unit stays open after its `FrameEnd`
/// until the next `FrameStart`, so a trailing `SectorEnd` joins the
/// sector's last frame unit instead of travelling alone.
struct Assembler {
    by_frame: bool,
    /// The enclosing sector (frame granularity only).
    ctx: Option<SectorInfo>,
    pending: Vec<ChunkOrMarker<f32>>,
    pending_synthetic: bool,
    frame_done: bool,
}

impl Assembler {
    fn new(granularity: Granularity) -> Assembler {
        Assembler {
            by_frame: granularity == Granularity::Frame,
            ctx: None,
            pending: Vec::new(),
            pending_synthetic: false,
            frame_done: false,
        }
    }

    fn take_pending(&mut self) -> Option<Unit> {
        self.frame_done = false;
        let strip = std::mem::take(&mut self.pending_synthetic);
        if self.pending.is_empty() {
            return None;
        }
        Some((std::mem::take(&mut self.pending), strip))
    }

    /// Feeds one item; returns at most one completed unit.
    fn push_item(&mut self, mut item: ChunkOrMarker<f32>) -> Option<Unit> {
        if let ChunkOrMarker::Chunk(c) = &mut item {
            if matches!(c.end, Some(Marker::SectorStart(_) | Marker::FrameStart(_))) {
                // The run's points close this unit and the marker may
                // open the next: a chunk never spans two units.
                let opener = c.end.take().map(ChunkOrMarker::Marker);
                self.push_item(item);
                return opener.and_then(|m| self.push_item(m));
            }
        }
        let marker = item.marker();
        let opens_sector = matches!(marker, Some(Marker::SectorStart(_)));
        let opens_frame = matches!(marker, Some(Marker::FrameStart(_)));
        let ends_frame = matches!(marker, Some(Marker::FrameEnd(_)));
        let ends_sector = matches!(marker, Some(Marker::SectorEnd(_)));
        if let (true, Some(Marker::SectorStart(si))) = (self.by_frame, marker) {
            self.ctx = Some(si.clone());
        }
        let cut = opens_sector || (opens_frame && self.frame_done);
        let done = if cut { self.take_pending() } else { None };
        if self.pending.is_empty() && !opens_sector {
            // Open the frame unit with a synthesized copy of the
            // enclosing sector context, if one is known.
            if let Some(si) = &self.ctx {
                self.pending.push(ChunkOrMarker::Marker(Marker::SectorStart(si.clone())));
                self.pending_synthetic = true;
            }
        }
        // Points (and any stray item) ride in the open unit; after a
        // FrameEnd they stay with that frame so the kernel sees the
        // serial sequence.
        self.pending.push(item);
        self.frame_done |= self.by_frame && ends_frame;
        if ends_sector {
            self.ctx = None;
            return self.take_pending();
        }
        done
    }

    fn finish(&mut self) -> Option<Unit> {
        self.take_pending()
    }
}

/// Result of a morsel-driven run: the standard [`RunReport`] plus
/// parallelism counters.
#[derive(Debug)]
pub struct MorselReport {
    /// The merged-output run report; byte-compatible with a serial
    /// [`run_chunked`] report over the same plan.
    pub run: RunReport,
    /// Morsels dispatched to the pool.
    pub morsels: u64,
    /// Stage-kernel panics contained by the driver (each also counts as
    /// a protocol violation in [`RunReport::protocol_violations`]).
    pub kernel_panics: u64,
}

/// How many morsels may be in flight per worker before the driver
/// blocks on the collector (bounds reorder-buffer memory).
const IN_FLIGHT_PER_WORKER: u64 = 4;

/// Delivers one merged unit, in order.
fn deliver_unit<F: FnMut(&ChunkOrMarker<f32>)>(
    unit: Vec<ChunkOrMarker<f32>>,
    drive: &mut Drive<F>,
) {
    for item in unit {
        drive.deliver(item);
    }
}

/// The morsel driver: drains `inner` on the calling thread, fans each
/// morsel out to `pool` through a fresh stage chain, and delivers the
/// merged output to `on_item` in exact serial order.
///
/// With an empty stage suffix this is [`run_chunked`]. Otherwise the
/// flattened output is byte-identical to running the full serial plan
/// through [`run_chunked`]; `pull_latency` times the *inner* pulls
/// (sampled), and [`RunReport::per_op`] carries the inner chain's
/// reports followed by one merged slot per stage. A panicking stage
/// kernel is contained: its morsel yields no output and the panic is
/// surfaced in [`MorselReport::kernel_panics`] and
/// [`RunReport::protocol_violations`].
pub fn run_morsels<S, F>(
    inner: &mut S,
    stages: &Arc<CompiledStages>,
    pool: &WorkerPool,
    obs: &PipelineObs,
    budget: usize,
    on_item: F,
) -> MorselReport
where
    S: GeoStream<V = f32>,
    F: FnMut(&ChunkOrMarker<f32>),
{
    if stages.is_empty() {
        let run = run_chunked(inner, obs, budget, on_item);
        return MorselReport { run, morsels: 0, kernel_panics: 0 };
    }
    let mut drive = Drive::begin(on_item, budget, inner.schema().time_semantics);
    let schema = Arc::new(inner.schema().clone());
    let collector: Arc<OrderedCollector<Vec<ChunkOrMarker<f32>>>> =
        Arc::new(OrderedCollector::new());
    let stage_stats: Arc<Vec<Mutex<OpStats>>> =
        Arc::new((0..stages.len()).map(|_| Mutex::new(OpStats::default())).collect());
    let panics = Arc::new(AtomicU64::new(0));

    let dispatch = |unit: Unit, seq: u64| {
        let stages = Arc::clone(stages);
        let schema = Arc::clone(&schema);
        let collector = Arc::clone(&collector);
        let stats = Arc::clone(&stage_stats);
        let panics = Arc::clone(&panics);
        let recorder = obs.recorder.clone();
        let parent = obs.parent;
        pool.submit(move |worker| {
            let result =
                catch_unwind(AssertUnwindSafe(|| run_kernel(&stages, &schema, unit, budget)));
            match result {
                Ok(Ok(out)) => {
                    for (slot, s) in stats.iter().zip(&out.stage_stats) {
                        let mut g = slot.lock().unwrap_or_else(PoisonError::into_inner);
                        g.merge(s);
                    }
                    if let Some(rec) = &recorder {
                        let mut span = rec.begin(&format!("morsel.w{worker}"), parent);
                        span.add_points(out.items.iter().map(|i| i.point_count() as u64).sum());
                        span.finish(SpanOutcome::Ok);
                    }
                    collector.push(seq, out.items);
                }
                // A chain that `compile_stages` built cannot fail to
                // build again; if it does, it is contained like a panic.
                Ok(Err(_)) | Err(_) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    collector.push(seq, Vec::new());
                }
            }
        });
    };

    let mut asm = Assembler::new(stages.granularity());
    let mut submitted = 0u64;
    let mut delivered = 0u64;
    let high_water = (pool.workers().max(1) as u64) * IN_FLIGHT_PER_WORKER;
    while let Some(item) = drive.next_chunk(inner, budget) {
        if let Some(unit) = asm.push_item(item) {
            dispatch(unit, submitted);
            submitted += 1;
        }
        while submitted - delivered >= high_water {
            deliver_unit(collector.wait_next(), &mut drive);
            delivered += 1;
        }
    }
    if let Some(unit) = asm.finish() {
        dispatch(unit, submitted);
        submitted += 1;
    }
    while delivered < submitted {
        deliver_unit(collector.wait_next(), &mut drive);
        delivered += 1;
    }
    let mut per_op = Vec::new();
    inner.collect_stats(&mut per_op);
    for (stage_name, stats) in stages.names().iter().zip(stage_stats.iter()) {
        let stats = stats.lock().unwrap_or_else(PoisonError::into_inner).clone();
        per_op.push(OpReport::new(stage_name.clone(), stats));
    }
    let kernel_panics = panics.load(Ordering::Relaxed);
    let mut run = drive.finish(per_op);
    run.protocol_violations += kernel_panics;
    MorselReport { run, morsels: submitted, kernel_panics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::chunk::{POOL_MAX_VECS, SHARED_POOL_MAX_VECS};
    use crate::model::{pool_counts, Element, DEFAULT_CHUNK_BUDGET};
    use crate::ops::{FocalFunc, StretchMode, StretchScope, ValueFunc};
    use crate::query::{parse_query, Catalog};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};
    use std::collections::HashSet;

    fn source_of(sectors: u64) -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10);
        VecStream::sectors("src", lattice, sectors, |s, c, r| f64::from(c + r) + s as f64)
    }

    fn source() -> VecStream<f32> {
        source_of(3)
    }

    /// A catalog whose one source, `src`, replays `elements`.
    fn catalog_of(elements: Vec<Element<f32>>) -> Catalog {
        let schema = source().schema().clone();
        let mut catalog = Catalog::new();
        catalog.register(schema.clone(), move || {
            Box::new(VecStream::new(schema.clone(), elements.clone()))
        });
        catalog
    }

    fn map_expr(inner: Expr) -> Expr {
        Expr::MapValue { input: Box::new(inner), func: ValueFunc::Abs }
    }

    #[test]
    fn split_peels_partitionable_suffix_upstream_first() {
        let expr = Expr::RestrictValue {
            input: Box::new(map_expr(Expr::Downsample {
                input: Box::new(Expr::Source("g".into())),
                k: 2,
            })),
            ranges: vec![(0.0, 5.0)],
        };
        let split = split_parallel(&expr);
        assert_eq!(split.stages.len(), 2);
        assert!(matches!(split.stages[0], Expr::MapValue { .. }), "upstream first");
        assert!(matches!(split.stages[1], Expr::RestrictValue { .. }));
        assert!(matches!(split.inner, Expr::Downsample { .. }));
        assert_eq!(split.granularity(), Granularity::Frame);
    }

    #[test]
    fn split_stops_at_order_sensitive_operators() {
        let expr = Expr::Downsample { input: Box::new(Expr::Source("g".into())), k: 2 };
        let split = split_parallel(&expr);
        assert!(split.stages.is_empty());
        assert_eq!(split.inner, &expr);
    }

    #[test]
    fn sector_scoped_stages_promote_granularity() {
        let expr = map_expr(Expr::Focal {
            input: Box::new(Expr::Source("g".into())),
            func: FocalFunc::Mean,
            k: 3,
        });
        let split = split_parallel(&expr);
        assert_eq!(split.stages.len(), 2);
        assert_eq!(split.granularity(), Granularity::Sector);
    }

    #[test]
    fn empty_stage_suffix_degenerates_to_run_chunked() {
        let mut inner = source();
        let stages = Arc::new(compile_stages(&[], inner.schema()).expect("compile"));
        let pool = WorkerPool::new(2);
        let report = run_morsels(&mut inner, &stages, &pool, &PipelineObs::default(), 128, |_| {});
        assert_eq!(report.morsels, 0);
        assert_eq!(report.run.points_delivered, 300);
        assert_eq!(report.run.sectors, 3);
        assert_eq!(report.run.pull_latency.count, report.run.elements);
    }

    #[test]
    fn compile_probes_stage_names_and_maps_regions_once() {
        let utm = Crs::utm(31, true);
        let expr = Expr::Stretch {
            input: Box::new(Expr::RestrictSpace {
                input: Box::new(Expr::Source("src".into())),
                region: geostreams_geo::Region::Rect(Rect::new(2e5, 1e5, 8e5, 9e5)),
                crs: utm,
            }),
            mode: StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            scope: StretchScope::Frame,
        };
        let split = split_parallel(&expr);
        let stages = compile_stages(&split.stages, source().schema()).expect("compile");
        assert_eq!(stages.len(), 2);
        assert_eq!(stages.names(), ["restrict_space", "stretch[frame]"]);
        assert_eq!(stages.granularity(), Granularity::Frame);
        assert!(!stages.is_empty());
        // The compiled node tests the stream's own coordinates: a worker
        // builds it without mapping anything.
        assert!(matches!(&stages.nodes[0], Expr::RestrictSpace { crs: Crs::LatLon, .. }));
    }

    /// Everything a run delivers that must not depend on the driver:
    /// the flattened elements, the exact `f32` bits, and per stage the
    /// counters a morsel run merges.
    type Outcome = (Vec<Element<f32>>, Vec<u32>, Vec<(String, [u64; 7])>);

    fn outcome(merged: Vec<Element<f32>>, run: &RunReport, stages: usize) -> Outcome {
        let bits = merged
            .iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some(p.value.to_bits()),
                _ => None,
            })
            .collect();
        let per_stage = run.per_op[run.per_op.len() - stages..]
            .iter()
            .map(|r| {
                let s = &r.stats;
                let merged = [
                    s.points_in,
                    s.points_out,
                    s.frames_in,
                    s.frames_out,
                    s.buffered_points_peak,
                    s.buffered_bytes_peak,
                    s.stalls,
                ];
                (r.name.clone(), merged)
            })
            .collect();
        (merged, bits, per_stage)
    }

    /// Runs `query` over `elements` serially and through the morsel
    /// driver at every budget and worker count, and asserts the
    /// outcomes agree.
    fn assert_matches_serial(label: &str, elements: &[Element<f32>], query: &str) {
        let catalog = catalog_of(elements.to_vec());
        let planner = Planner::new(&catalog);
        let expr = Plan::analyze(parse_query(query).expect("parse"), &catalog);
        let n_stages = split_parallel(&expr).stages.len();
        assert!(n_stages > 0, "{query} has a partitionable suffix");
        let obs = PipelineObs::default();
        for budget in [1usize, 64, DEFAULT_CHUNK_BUDGET + 904] {
            let mut flat = Vec::new();
            let mut serial = planner.build(&expr).expect("build");
            let run = run_chunked(&mut serial, &obs, budget, |item| {
                item.for_each_element(&mut |el| flat.push(el.clone()))
            });
            let want = outcome(flat, &run, n_stages);
            for workers in [0usize, 1, 3] {
                let pool = WorkerPool::new(workers);
                let (mut inner, stages) = split_and_compile(&planner, &expr, &obs).expect("split");
                let mut flat = Vec::new();
                let report = run_morsels(&mut inner, &Arc::new(stages), &pool, &obs, budget, |i| {
                    i.for_each_element(&mut |el| flat.push(el.clone()))
                });
                assert_eq!(report.kernel_panics, 0, "{label}: {query}");
                let got = outcome(flat, &report.run, n_stages);
                assert_eq!(got, want, "{label}: {query}, budget {budget}, workers {workers}");
            }
        }
    }

    /// One stage suffix per granularity — frame units (with a synthetic
    /// sector context wherever one is known) and sector units — of
    /// operators that ask nothing of their input's bracketing, so the
    /// serial chain itself is well defined on a damaged stream.
    const FRAME_QUERY: &str = "restrict_value(scale(src, 2, 1), 0, 30)";
    const SECTOR_QUERY: &str = "scale(orient(src, \"flipv\"), 2, 1)";

    fn assert_both_granularities(label: &str, elements: &[Element<f32>]) {
        assert_matches_serial(label, elements, FRAME_QUERY);
        assert_matches_serial(label, elements, SECTOR_QUERY);
    }

    #[test]
    fn morsel_runs_match_the_serial_chain_at_small_and_oversized_budgets() {
        let clean = source().drain_elements();
        assert_both_granularities("clean", &clean);
        // Operators that hold state between markers, one per granularity.
        let held = "restrict_value(stretch(scale(src, 2, 1), \"linear\", \"frame\"), 0, 0.9)";
        assert_matches_serial("clean", &clean, held);
        assert_matches_serial("clean", &clean, "scale(focal(src, \"mean\", 3), 2, 1)");
        // Rows wider than `DEFAULT_CHUNK_BUDGET`: at the oversized
        // budget a staged run is longer than what `ChunkInput` asks for.
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 10.0, 10.0), 1500, 3);
        let wide =
            VecStream::<f32>::sectors("src", lattice, 2, |s, c, r| f64::from(c + r) + s as f64)
                .drain_elements();
        assert_both_granularities("wide rows", &wide);
        assert_matches_serial("wide rows", &wide, held);
    }

    #[test]
    fn a_run_ending_in_an_opening_marker_is_cut_between_points_and_marker() {
        // With no repair below, a lost FrameEnd leaves the points of a
        // frame running into the next FrameStart, and a lost
        // FrameEnd + SectorEnd pair into the next SectorStart: the
        // source folds either marker into the run's `end`.
        let mut lost = source().drain_elements();
        let frame_ends: Vec<usize> =
            (0..lost.len()).filter(|&i| matches!(lost[i], Element::FrameEnd(_))).collect();
        // Sector 0's last FrameEnd and its SectorEnd, then one FrameEnd
        // in the middle of sector 1 (back to front, indices stay valid).
        for i in [frame_ends[14], frame_ends[9] + 1, frame_ends[9]] {
            lost.remove(i);
        }
        let mut probe = VecStream::new(source().schema().clone(), lost.clone());
        let ends: Vec<Marker> = std::iter::from_fn(|| probe.next_chunk(64))
            .filter_map(|item| match item {
                ChunkOrMarker::Chunk(c) => c.end,
                ChunkOrMarker::Marker(_) => None,
            })
            .collect();
        assert!(
            ends.iter().any(|m| matches!(m, Marker::SectorStart(_))),
            "run ends in SectorStart"
        );
        assert!(ends.iter().any(|m| matches!(m, Marker::FrameStart(_))), "run ends in FrameStart");
        assert_both_granularities("lost end markers", &lost);
    }

    #[test]
    fn unusual_brackets_match_the_serial_chain() {
        let clean = source().drain_elements();
        let sector_len = clean.len() / 3;

        // A sector with no frames between two full ones.
        let mut hollow = clean.clone();
        hollow.drain(sector_len + 1..2 * sector_len - 1);
        assert_eq!(hollow.len(), 2 * sector_len + 2);
        assert_both_granularities("sector with no frames", &hollow);

        // The stream stops in the middle of a frame.
        assert_both_granularities("ends mid-frame", &clean[..sector_len + 6]);

        // The stream stops after a FrameEnd, its SectorEnd never sent.
        let cut = &clean[..clean.len() - 1];
        assert!(matches!(cut.last(), Some(Element::FrameEnd(_))));
        assert_both_granularities("ends without SectorEnd", cut);

        // Frames arrive before the first SectorStart: frame units with
        // no sector context to synthesize (`orient` cannot place a cell
        // without one, so the sector suffix has no serial answer here).
        assert_matches_serial("frames before the first SectorStart", &clean[1..], FRAME_QUERY);
        assert_matches_serial("points before any marker", &clean[2..], FRAME_QUERY);
    }

    #[test]
    fn the_point_buffer_pool_stays_bounded_and_buffers_come_back() {
        // restrict_value filters a run in place, so the buffer the
        // source filled is the buffer delivered: recycled on this
        // thread, it is the next one the source takes.
        let catalog = catalog_of(source_of(16).drain_elements());
        let planner = Planner::new(&catalog);
        let expr =
            Plan::analyze(parse_query("restrict_value(src, 0, 1000)").expect("parse"), &catalog);
        let obs = PipelineObs::default();
        let pool = WorkerPool::new(2);
        let mut halves = Vec::new();
        for _ in 0..2 {
            let (mut inner, stages) = split_and_compile(&planner, &expr, &obs).expect("split");
            let mut buffers = HashSet::new();
            let report = run_morsels(&mut inner, &Arc::new(stages), &pool, &obs, 64, |item| {
                if let ChunkOrMarker::Chunk(c) = item {
                    buffers.insert(c.points.as_ptr() as usize);
                }
            });
            assert_eq!(report.run.points_delivered, 16 * 100);
            let (local, shared) = pool_counts::<f32>();
            assert!((1..=POOL_MAX_VECS).contains(&local), "delivered runs were recycled: {local}");
            assert!(shared <= SHARED_POOL_MAX_VECS, "{shared}");
            halves.push((buffers, local));
        }
        // Sectors 17..32 ran on the buffers of sectors 1..16: nothing
        // new was needed and nothing piled up.
        assert!(halves[1].0.iter().any(|b| halves[0].0.contains(b)), "buffers are reused");
        assert!(halves[1].0.len() <= halves[0].0.len() + POOL_MAX_VECS);
        assert!(halves[1].1 <= POOL_MAX_VECS);
    }
}
