//! Shared workload builders for the GeoStreams benchmark harness.
//!
//! Each bench target under `benches/` regenerates one experiment of
//! DESIGN.md §4 (and EXPERIMENTS.md) with criterion-grade timing; the
//! binary `examples/experiments.rs` produces the same tables in one fast
//! pass.

#![warn(missing_docs)]

use geostreams_core::exec::{run_observed, RunSummary};
use geostreams_core::model::{
    ChunkOrMarker, Element, GeoStream, StreamSchema, VecStream, DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::{FlightRecorder, PipelineObs, SpanStream, TraceLog};
use geostreams_core::ops::delivery::PngSink;
use geostreams_core::query::{parse_query, Catalog, Planner};
use geostreams_geo::{Crs, LatticeGeoref, Rect};
use geostreams_raster::png::PngOptions;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A lat/lon test lattice over the U.S. west (keeps the source free of
/// projection math so operator costs dominate).
pub fn latlon_lattice(w: u32, h: u32) -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 32.0, -114.0, 42.0), w, h)
}

/// Materializes a deterministic row-by-row ramp stream for replay.
pub fn ramp_elements(w: u32, h: u32, sectors: u64) -> (StreamSchema, Vec<Element<f32>>) {
    let mut s: VecStream<f32> =
        VecStream::sectors("ramp", latlon_lattice(w, h), sectors, |q, c, r| {
            f64::from(c) * 0.001 + f64::from(r) * 0.01 + q as f64 * 0.1
        })
        .with_value_range(0.0, 10.0);
    let schema = s.schema().clone();
    let elements = s.drain_elements();
    (schema, elements)
}

/// Replays previously materialized elements as a fresh stream.
pub fn replay(schema: &StreamSchema, elements: &[Element<f32>]) -> VecStream<f32> {
    VecStream::new(schema.clone(), elements.to_vec())
}

/// Interleaves two row-by-row element sequences frame by frame
/// (band-interleaved-by-line transmission).
pub fn interleave_rows(a: &[Element<f32>], b: &[Element<f32>]) -> Vec<(u8, Element<f32>)> {
    let groups = |els: &[Element<f32>]| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let boundary = matches!(el, Element::FrameEnd(_));
            out.last_mut().expect("nonempty").push(el.clone());
            if boundary {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    let (ga, gb) = (groups(a), groups(b));
    let mut out = Vec::new();
    for (x, y) in ga.into_iter().zip(gb) {
        out.extend(x.into_iter().map(|e| (0u8, e)));
        out.extend(y.into_iter().map(|e| (1u8, e)));
    }
    out
}

/// Concatenates two element sequences band-sequentially per sector
/// (image-by-image transmission).
pub fn band_sequential(a: &[Element<f32>], b: &[Element<f32>]) -> Vec<(u8, Element<f32>)> {
    let sectors = |els: &[Element<f32>]| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let boundary = matches!(el, Element::SectorEnd(_));
            out.last_mut().expect("nonempty").push(el.clone());
            if boundary {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    let (sa, sb) = (sectors(a), sectors(b));
    let mut out = Vec::new();
    for (x, y) in sa.into_iter().zip(sb) {
        out.extend(x.into_iter().map(|e| (0u8, e)));
        out.extend(y.into_iter().map(|e| (1u8, e)));
    }
    out
}

/// Deterministic pseudo-random rectangle generator for client regions.
pub struct RegionGen {
    state: u64,
    world: Rect,
}

impl RegionGen {
    /// Creates a generator over a world rectangle.
    pub fn new(seed: u64, world: Rect) -> Self {
        RegionGen { state: seed, world }
    }

    fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.state >> 33) as f64) / (1u64 << 31) as f64
    }

    /// Next pseudo-random region (1–11 % of the world per axis).
    pub fn next_region(&mut self) -> Rect {
        let w = self.world.width() * (0.01 + 0.1 * self.next_f64());
        let h = self.world.height() * (0.01 + 0.1 * self.next_f64());
        let x = self.world.x_min + self.next_f64() * (self.world.width() - w);
        let y = self.world.y_min + self.next_f64() * (self.world.height() - h);
        Rect::new(x, y, x + w, y + h)
    }
}

/// Pull-latency percentiles of one operator in a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpLatencySummary {
    /// Operator name as reported by `collect_stats`.
    pub op: String,
    /// Median per-pull latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile per-pull latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile per-pull latency in nanoseconds.
    pub p99_ns: u64,
    /// Number of pulls recorded for this operator.
    pub pulls: u64,
}

/// Machine-readable observability report for one traced benchmark run
/// (serialized to `BENCH_obs.json` by the `obs_bench` binary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsBenchReport {
    /// Query text executed through the planner.
    pub query: String,
    /// Source grid width in cells.
    pub width: u32,
    /// Source grid height in cells.
    pub height: u32,
    /// Number of sectors in the source stream.
    pub sectors: u64,
    /// Full run summary: wall time, element/point counts, buffer peaks,
    /// root pull-latency percentiles/histogram, and per-op stats.
    pub run: RunSummary,
    /// Per-operator pull-latency percentiles (pipeline order, upstream
    /// first), extracted from the traced per-op histograms.
    pub op_latency_ns: Vec<OpLatencySummary>,
    /// Structured trace events captured during the run.
    pub trace_events: u64,
    /// Trace events dropped by the bounded ring.
    pub trace_dropped: u64,
    /// Instrumentation-overhead measurements, one per plan of
    /// [`OVERHEAD_PLANS`] (empty in reports written before the tracing
    /// layer existed).
    #[serde(default)]
    pub overhead: Vec<OverheadReport>,
}

/// Cost of full causal tracing (per-operator spans + flight recorder +
/// trace log + delivery span) on one plan, measured as traced vs
/// untraced throughput over the same pipeline and data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// The plan's name in [`OVERHEAD_PLANS`].
    pub plan: String,
    /// Points/s through the plain (untraced) chunked driver.
    pub untraced_pps: f64,
    /// Points/s with the full instrumentation stack attached.
    pub traced_pps: f64,
    /// `traced_pps * 1000 / untraced_pps` — the gate bar is >= 950
    /// (tracing costs at most 5%).
    pub traced_throughput_permille: u64,
    /// Points delivered per run (identical on both sides).
    pub points: u64,
    /// FNV-1a hash over every delivered pixel — for the PNG plan, every
    /// delivered byte (identical on both sides).
    pub fnv: u64,
    /// Spans the flight recorder captured during one traced run.
    pub spans: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_u32(v: u32, mut hash: u64) -> u64 {
    for b in v.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// How a plan of the overhead bench is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// `exec::run_chunked`, hashing every delivered pixel.
    Chunks,
    /// [`PngSink`], hashing every PNG byte.
    Png,
}

/// A plan the instrumentation bar is held on.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPlan {
    /// Name in reports and gate output.
    pub name: &'static str,
    query: &'static str,
    delivery: Delivery,
}

/// The point-wise hot path, a plan with a buffering operator above it
/// (its input used to drop to the per-element traced path), and the
/// same hot path delivered as PNG (the sink used to pull per element).
pub const OVERHEAD_PLANS: [OverheadPlan; 3] = [
    OverheadPlan { name: "pointwise", query: "scale(ramp, 2, 0)", delivery: Delivery::Chunks },
    OverheadPlan {
        name: "buffering",
        query: r#"focal(scale(ramp, 2, 0), "mean", 3)"#,
        delivery: Delivery::Chunks,
    },
    OverheadPlan { name: "png", query: "scale(ramp, 2, 0)", delivery: Delivery::Png },
];

/// One timed drain of a plan: wall seconds, points, FNV.
fn drain<S: GeoStream<V = f32>>(
    mut stream: S,
    obs: &PipelineObs,
    delivery: Delivery,
) -> (f64, u64, u64) {
    let mut fnv = FNV_OFFSET;
    let start = std::time::Instant::now();
    let points = match delivery {
        Delivery::Chunks => {
            geostreams_core::exec::run_chunked(&mut stream, obs, DEFAULT_CHUNK_BUDGET, |item| {
                if let ChunkOrMarker::Chunk(c) = item {
                    for p in &c.points {
                        fnv = fnv1a_u32(p.value.to_bits(), fnv);
                    }
                }
            })
            .points_delivered
        }
        Delivery::Png => {
            let mut sink = PngSink::new(stream, None, PngOptions::default());
            let mut pixels = 0u64;
            while let Some(frame) = sink.next_frame() {
                pixels += u64::from(frame.width) * u64::from(frame.height);
                for b in &frame.png {
                    fnv = fnv1a_u32(u32::from(*b), fnv);
                }
            }
            pixels
        }
    };
    (start.elapsed().as_secs_f64(), points, fnv)
}

/// Measures the cost of the full tracing stack on one plan: the same planner-built pipeline over the same
/// materialized ramp is drained untraced (plain `build`, default obs)
/// and traced (`build_traced` with a trace log, a flight recorder
/// chaining one span per operator, and a root delivery [`SpanStream`]);
/// both sides must deliver identical points and hashes.
pub fn run_overhead_bench(
    plan: &OverheadPlan,
    w: u32,
    h: u32,
    sectors: u64,
    runs: usize,
) -> OverheadReport {
    let OverheadPlan { name, query, delivery } = *plan;
    let (schema, elements) = ramp_elements(w, h, sectors);
    let mut catalog = Catalog::new();
    let factory_schema = schema.clone();
    catalog.register(schema, move || Box::new(replay(&factory_schema, &elements)));
    let planner = Planner::new(&catalog);
    let expr = parse_query(query).expect("overhead bench query parses");

    // Each iteration times the two sides back to back (alternating
    // which goes first, so frequency ramps and caches do not
    // systematically favor one side) and the reported overhead is the
    // pair with the MEDIAN traced/untraced ratio: on a shared vCPU,
    // background steal bursts hit single drains, so any single pair —
    // fastest, best-ratio, or worst — is an outlier sample, while the
    // median pair is robust to bursts landing on either side.
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    let mut spans = 0u64;
    for run in 0..runs.max(1) {
        let untraced_pipeline = planner.build(&expr).expect("overhead bench query plans");

        let trace = Arc::new(TraceLog::new(4096));
        let rec = Arc::new(FlightRecorder::for_query(1));
        let deliver_id = rec.alloc_span();
        let obs = PipelineObs::for_query(1)
            .with_trace(Arc::clone(&trace))
            .with_recorder(Arc::clone(&rec))
            .under(deliver_id);
        let built = planner.build_traced(&expr, &obs).expect("overhead bench query plans");
        let deliver = rec.begin_with_id(deliver_id, "deliver", 0);
        let traced_pipeline = SpanStream::new(built, deliver);

        let (u, t) = if run % 2 == 0 {
            let u = drain(untraced_pipeline, &PipelineObs::default(), delivery);
            let t = drain(traced_pipeline, &obs, delivery);
            (u, t)
        } else {
            let t = drain(traced_pipeline, &obs, delivery);
            let u = drain(untraced_pipeline, &PipelineObs::default(), delivery);
            (u, t)
        };
        spans = rec.len() as u64;

        assert_eq!(u.1, t.1, "tracing changed the point count");
        assert_eq!(u.2, t.2, "tracing changed the pixel hash");
        if let Some(r) = &reference {
            assert_eq!((u.1, u.2), *r, "overhead bench run is nondeterministic");
        }
        reference = Some((u.1, u.2));
        pairs.push((u.0, t.0));
    }
    let (points, fnv) = reference.expect("at least one run pair");
    pairs
        .sort_by(|a, b| (a.1 / a.0).partial_cmp(&(b.1 / b.0)).unwrap_or(std::cmp::Ordering::Equal));
    let (untraced_secs, traced_secs) = pairs[pairs.len() / 2];

    let untraced_pps = points as f64 / untraced_secs.max(1e-9);
    let traced_pps = points as f64 / traced_secs.max(1e-9);
    OverheadReport {
        plan: name.to_string(),
        untraced_pps,
        traced_pps,
        traced_throughput_permille: (traced_pps * 1000.0 / untraced_pps.max(1e-9)) as u64,
        points,
        fnv,
        spans,
    }
}

/// Runs a representative traced query over a deterministic ramp source
/// and collects the latency/buffer statistics of every operator for
/// machine consumption (DESIGN.md "Observability").
pub fn run_obs_bench(w: u32, h: u32, sectors: u64) -> ObsBenchReport {
    let query = r#"focal(scale(ramp, 2, 0), "mean", 3)"#;
    let (schema, elements) = ramp_elements(w, h, sectors);
    let mut catalog = Catalog::new();
    let factory_schema = schema.clone();
    catalog.register(schema, move || Box::new(replay(&factory_schema, &elements)));
    let planner = Planner::new(&catalog);
    let expr = parse_query(query).expect("obs bench query parses");
    let trace = Arc::new(TraceLog::new(4096));
    let obs = PipelineObs::for_query(1).with_trace(Arc::clone(&trace));
    let mut pipeline = planner.build_traced(&expr, &obs).expect("obs bench query plans");
    let report = run_observed(&mut pipeline, &obs, |_| {});
    let op_latency_ns = report
        .per_op
        .iter()
        .map(|op| OpLatencySummary {
            op: op.name.clone(),
            p50_ns: op.pull_p50_ns(),
            p95_ns: op.pull_p95_ns(),
            p99_ns: op.pull_p99_ns(),
            pulls: op.pull_latency.as_ref().map_or(0, |h| h.count),
        })
        .collect();
    ObsBenchReport {
        query: query.to_string(),
        width: w,
        height: h,
        sectors,
        run: report.summary(),
        op_latency_ns,
        trace_events: trace.len() as u64,
        trace_dropped: trace.dropped(),
        overhead: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_elements_are_replayable() {
        let (schema, els) = ramp_elements(8, 8, 2);
        let mut a = replay(&schema, &els);
        use geostreams_core::model::GeoStream;
        assert_eq!(a.drain_points().len(), 128);
    }

    #[test]
    fn transports_preserve_all_elements() {
        let (_, a) = ramp_elements(8, 4, 1);
        let (_, b) = ramp_elements(8, 4, 1);
        let n = a.len() + b.len();
        assert_eq!(interleave_rows(&a, &b).len(), n);
        assert_eq!(band_sequential(&a, &b).len(), n);
    }

    #[test]
    fn obs_bench_report_has_latency_and_round_trips() {
        let report = run_obs_bench(32, 32, 2);
        assert!(report.run.points_delivered > 0);
        assert!(report.run.pull_p95_ns > 0, "root pull latency must be observed");
        assert!(
            report.op_latency_ns.iter().any(|o| o.pulls > 0 && o.p95_ns > 0),
            "per-op latency must be traced: {:?}",
            report.op_latency_ns
        );
        assert!(report.trace_events >= 2, "expect at least QueryStart/QueryEnd");
        let json = serde_json::to_string(&report).unwrap();
        let back: ObsBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn overhead_bench_is_deterministic_and_records_spans() {
        for plan in &OVERHEAD_PLANS {
            let a = run_overhead_bench(plan, 32, 32, 2, 2);
            let b = run_overhead_bench(plan, 32, 32, 2, 2);
            assert_eq!((a.points, a.fnv, a.spans), (b.points, b.fnv, b.spans), "{}", plan.name);
            // Both sectors' points, or both delivered frames' pixels.
            assert_eq!(a.points, 2 * 32 * 32, "{}", plan.name);
            // scale(ramp) plans as two wrapped operators plus the
            // delivery span; all of them must have closed into the ring.
            assert!(a.spans >= 3, "expected source+op+deliver spans, got {}", a.spans);
            assert!(a.traced_throughput_permille > 0);
        }
    }

    #[test]
    fn region_gen_is_deterministic_and_in_bounds() {
        let world = Rect::new(0.0, 0.0, 100.0, 50.0);
        let mut g1 = RegionGen::new(7, world);
        let mut g2 = RegionGen::new(7, world);
        for _ in 0..20 {
            let r1 = g1.next_region();
            let r2 = g2.next_region();
            assert_eq!(r1, r2);
            assert!(r1.x_min >= 0.0 && r1.x_max <= 100.0);
            assert!(r1.y_min >= 0.0 && r1.y_max <= 50.0);
        }
    }
}
