//! `ops_kernels`: every operator alone, and a stacked chain, over
//! sources held in memory.
//!
//! Set-up scans three sectors of the visible band and of a
//! full-resolution near-infrared band (1024 × 512 each) into memory.
//! A round then runs each kernel once through the planner and
//! `exec::run_chunked`; rounds repeat until the time is up. `ops` and
//! `exec` do all the work and `satsim`, `dsms` and `store` none.

use crate::harness::{Env, LayerValues, Measured, ProbeInputs, Section, Workload};
use crate::inputs::{bbox_text, materialize, rect_of_cells, seeded_cells, Fnv, Materialized, Rng};
use crate::stats::{geomean, median};
use crate::trace::{span, SpanRecord, Tracer};
use geostreams_core::exec::{self, run_morsels, split_and_compile, RunReport, WorkerPool};
use geostreams_core::model::{BoxedF32Stream, DEFAULT_CHUNK_BUDGET};
use geostreams_core::obs::PipelineObs;
use geostreams_core::query::{optimize, parse_query, Catalog, Planner};
use geostreams_satsim::{goes_like, Scanner};
use std::sync::Arc;
use std::time::Instant;

pub const WIDTH: u32 = 1024;
pub const HEIGHT: u32 = 512;
pub const SECTORS: u64 = 3;
const VIS: &str = "goes-sim.b1-vis";
const NIR: &str = "goes-sim.b2-nir";
const VALUE_RANGE: (f64, f64) = (0.2, 0.6);

/// One measured pipeline: a query text over the in-memory sources.
pub struct Kernel {
    /// Per-layer metric carrying this kernel's rate.
    pub metric: &'static str,
    pub text: String,
    /// Points the pipeline pulls from its sources per pass.
    pub input_points: u64,
    /// Points it must deliver, where the lattice or the data fix that.
    pub expected: Option<u64>,
    /// Passes timed together as one sample, so that the O(1) kernels
    /// are not timed in single milliseconds.
    pub reps: u32,
}

pub struct State {
    pub scanner: Scanner,
    pub catalog: Catalog,
    pub kernels: Vec<Kernel>,
}

/// A GOES-like scanner whose near-infrared band is scanned at the
/// visible band's resolution, so the two compose on one lattice.
pub fn scanner(width: u32, height: u32, seed: u64) -> Scanner {
    let mut scanner = goes_like(width, height, seed);
    scanner.instrument.bands[1].reduction = 1;
    scanner
}

pub fn catalog_of(sources: &[&Materialized]) -> Catalog {
    let mut catalog = Catalog::new();
    for mat in sources {
        let mat = (*mat).clone();
        catalog.register(mat.schema.clone(), move || Box::new(mat.source()));
    }
    catalog
}

/// The kernel list over a `width × height × sectors` source pair.
pub fn kernels(scanner: &Scanner, vis: &Materialized, sectors: u64, seed: u64) -> Vec<Kernel> {
    let lattice = scanner.instrument.band_lattice(0);
    let cells =
        seeded_cells(&mut Rng::new(seed), &lattice, lattice.width / 2, lattice.height / 2, 0.5);
    let region = bbox_text(&rect_of_cells(&lattice, cells));
    let n = vis.points;
    let per_sector = lattice.len();
    let in_range = vis
        .points()
        .filter(|p| (VALUE_RANGE.0..=VALUE_RANGE.1).contains(&f64::from(p.value)))
        .count() as u64;
    let restricted = format!("restrict_space({VIS}, {region}, \"geos:-75\")");
    let k = |metric: &'static str, text: String, input_points, expected| {
        let reps = match metric {
            "ops.restrict_space_pts_per_s"
            | "ops.restrict_value_pts_per_s"
            | "ops.restrict_time_pts_per_s"
            | "ops.map_linear_pts_per_s" => 8,
            "ops.map_gamma_pts_per_s" => 2,
            _ => 1,
        };
        Kernel { metric, text, input_points, expected, reps }
    };
    vec![
        k("ops.restrict_space_pts_per_s", restricted.clone(), n, Some(cells.len() * sectors)),
        k(
            "ops.restrict_value_pts_per_s",
            format!("restrict_value({VIS}, {}, {})", VALUE_RANGE.0, VALUE_RANGE.1),
            n,
            Some(in_range),
        ),
        k(
            "ops.restrict_time_pts_per_s",
            format!("restrict_time({VIS}, interval(1, {sectors}))"),
            n,
            Some(per_sector * (sectors - 1)),
        ),
        k("ops.map_linear_pts_per_s", format!("scale({VIS}, 2, 0.5)"), n, Some(n)),
        k("ops.map_gamma_pts_per_s", format!("gamma({VIS}, 2.2)"), n, Some(n)),
        k(
            "ops.stretch_frame_pts_per_s",
            format!("stretch({VIS}, \"linear\", \"frame\")"),
            n,
            Some(n),
        ),
        k("ops.compose_ndvi_pts_per_s", format!("ndvi({NIR}, {VIS})"), 2 * n, Some(n)),
        k("ops.downsample4_pts_per_s", format!("downsample({VIS}, 4)"), n, Some(n / 16)),
        k("ops.magnify2_pts_per_s", format!("magnify({VIS}, 2)"), n, Some(n * 4)),
        k(
            "ops.reproject_bilinear_pts_per_s",
            format!("reproject({restricted}, \"latlon\", \"bilinear\")"),
            n,
            None,
        ),
        k("ops.focal_mean3_pts_per_s", format!("focal({VIS}, \"mean\", 3)"), n, Some(n)),
        k("ops.agg_time3_pts_per_s", format!("agg_time({VIS}, \"mean\", 3)"), n, None),
        k(
            "exec.chunked_pts_per_s",
            format!(
                "focal(stretch(scale({restricted}, 2, 0.5), \"linear\", \"frame\"), \"mean\", 3)"
            ),
            n,
            // Focal output spans whole rows again, so the lattice alone
            // does not fix the count.
            None,
        ),
    ]
}

/// Parses, optimizes and builds `text`, one span per planning step.
pub fn plan(
    catalog: &Catalog,
    text: &str,
    tracer: Option<&Tracer>,
) -> Result<BoxedF32Stream, String> {
    let err = |e| format!("`{text}`: {e}");
    let expr = {
        let _s = span(tracer, "query.parse");
        parse_query(text).map_err(err)?
    };
    let expr = {
        let _s = span(tracer, "query.optimize");
        optimize(&expr, catalog)
    };
    let _s = span(tracer, "query.build");
    Planner::new(catalog).build(&expr).map_err(err)
}

pub fn run_chunked(pipeline: &mut BoxedF32Stream, digest: Option<&mut Fnv>) -> RunReport {
    let obs = PipelineObs::default();
    match digest {
        Some(fnv) => exec::run_chunked(pipeline, &obs, DEFAULT_CHUNK_BUDGET, |item| fnv.item(item)),
        None => exec::run_chunked(pipeline, &obs, DEFAULT_CHUNK_BUDGET, |_| {}),
    }
}

/// The slow oracle: the plan as written, never optimized, pulled one
/// element at a time.
pub fn oracle(catalog: &Catalog, text: &str) -> Result<(u64, Fnv), String> {
    let mut pipeline =
        Planner::new(catalog).plan_text(text, false).map_err(|e| format!("`{text}`: {e}"))?;
    let mut fnv = Fnv::default();
    let report = exec::run_with(&mut pipeline, |el| fnv.element(el));
    Ok((report.points_delivered, fnv))
}

pub struct OpsKernels;

impl Workload for OpsKernels {
    type State = State;

    fn setup(env: &Env) -> Result<State, String> {
        let scanner = scanner(WIDTH, HEIGHT, env.seed);
        // One generator thread per band; the container has two cores.
        let (vis, nir) = std::thread::scope(|s| {
            let nir = s.spawn(|| materialize(scanner.band_stream(1, SECTORS)));
            let vis = materialize(scanner.band_stream(0, SECTORS));
            (vis, nir.join())
        });
        let nir = nir.map_err(|_| "materializing the near-infrared band panicked".to_string())?;
        let kernels = kernels(&scanner, &vis, SECTORS, env.seed);
        let catalog = catalog_of(&[&vis, &nir]);
        // Warm-up pass: fills the chunk pool and faults the sources in.
        let chain = &kernels.last().expect("kernel list is not empty").text;
        run_chunked(&mut plan(&catalog, chain, None)?, None);
        Ok(State { scanner, catalog, kernels })
    }

    fn measure(
        state: &mut State,
        _env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured {
        let tracer = tracer.map(Arc::as_ref);
        let mut m = Measured::default();
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); state.kernels.len()];
        let mut delivered: Vec<Option<u64>> = state.kernels.iter().map(|k| k.expected).collect();
        let mut peak_bytes = vec![0u64; state.kernels.len()];

        // Output check against the oracle, once, on the stacked chain.
        let chain = state.kernels.last().expect("kernel list is not empty");
        m.attempted += 1;
        let mut fast = Fnv::default();
        match (plan(&state.catalog, &chain.text, None), oracle(&state.catalog, &chain.text)) {
            (Ok(mut pipeline), Ok((points, slow))) => {
                let report = run_chunked(&mut pipeline, Some(&mut fast));
                if report.points_delivered != points || fast != slow {
                    m.fail(format!("chain digest {fast:?} differs from the oracle's {slow:?}"));
                }
            }
            (Err(e), _) | (_, Err(e)) => m.fail(e),
        }

        let started = Instant::now();
        let mut rounds = 0u32;
        while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
            let section = Section::start();
            let (mut passes_ms, mut points, mut wall) = (Vec::new(), 0u64, 0.0);
            for (i, kernel) in state.kernels.iter().enumerate() {
                let mut sample = 0.0;
                for _ in 0..kernel.reps {
                    m.attempted += 1;
                    let mut pipeline = match plan(&state.catalog, &kernel.text, tracer) {
                        Ok(p) => p,
                        Err(e) => {
                            m.fail(e);
                            continue;
                        }
                    };
                    let t = Instant::now();
                    let report = {
                        let _s = span(tracer, "exec.run_chunked");
                        run_chunked(&mut pipeline, None)
                    };
                    sample += t.elapsed().as_secs_f64();
                    // Counts the lattice does not fix must at least repeat.
                    let want = *delivered[i].get_or_insert(report.points_delivered);
                    if report.points_delivered != want || want == 0 || report.sectors == 0 {
                        m.fail(format!(
                            "`{}` delivered {} points, expected {want}",
                            kernel.text, report.points_delivered
                        ));
                    }
                    peak_bytes[i] = peak_bytes[i].max(report.peak_buffered_bytes());
                }
                let pass = sample / f64::from(kernel.reps);
                times[i].push(pass);
                passes_ms.push(pass * 1e3);
                points += kernel.input_points * u64::from(kernel.reps);
                wall += sample;
            }
            m.end_round(points, wall, section.stop().1, passes_ms);
            rounds += 1;
        }

        let rates: Vec<f64> = state
            .kernels
            .iter()
            .zip(&times)
            .map(|(k, t)| if t.is_empty() { 0.0 } else { k.input_points as f64 / median(t) })
            .collect();
        m.pts_per_s = geomean(&rates);
        for ((kernel, rate), peak) in state.kernels.iter().zip(&rates).zip(&peak_bytes) {
            m.layer.insert(kernel.metric, *rate);
            match kernel.metric {
                "ops.stretch_frame_pts_per_s" => {
                    m.layer.insert("ops.stretch_peak_buffer_bytes", *peak as f64);
                }
                "ops.reproject_bilinear_pts_per_s" => {
                    m.layer.insert("ops.reproject_peak_buffer_bytes", *peak as f64);
                }
                _ => {}
            }
        }
        m.info.push(("rounds", rounds.to_string()));
        m.info.push(("source", format!("{WIDTH}x{HEIGHT}x{SECTORS} sectors, 2 bands")));
        m
    }

    fn attribute(
        state: &mut State,
        _env: &Env,
        _untraced: &Measured,
        traced: &Measured,
        spans: &[SpanRecord],
        probes: &LayerValues,
    ) -> Result<LayerValues, String> {
        let mut out = LayerValues::new();
        let chain = state.kernels.last().expect("kernel list is not empty");
        let mut chain_digest = Fnv::default();
        run_chunked(&mut plan(&state.catalog, &chain.text, None)?, Some(&mut chain_digest));

        // The same chain through the other drivers; each must deliver
        // the digest `run_chunked` delivered.
        let hashed = |fnv: &mut Fnv, t: Instant, points: u64| {
            let rate = chain.input_points as f64 / t.elapsed().as_secs_f64();
            if *fnv == chain_digest && points > 0 {
                Ok(rate)
            } else {
                Err("driver digests differ".to_string())
            }
        };
        let mut pipeline = plan(&state.catalog, &chain.text, None)?;
        let mut fnv = Fnv::default();
        let t = Instant::now();
        let report =
            exec::run_observed(&mut pipeline, &PipelineObs::default(), |el| fnv.element(el));
        out.insert("exec.scalar_pts_per_s", hashed(&mut fnv, t, report.points_delivered)?);

        let expr = optimize(&parse_query(&chain.text).map_err(|e| e.to_string())?, &state.catalog);
        let mut morsel_rate = [0.0f64; 2];
        for (slot, workers) in [0usize, 2].into_iter().enumerate() {
            let pool = WorkerPool::new(workers);
            let obs = PipelineObs::default();
            let planner = Planner::new(&state.catalog);
            let mut passes = Vec::new();
            let mut wall = 0.0;
            for _ in 0..3 {
                let (mut inner, stages) =
                    split_and_compile(&planner, &expr, &obs).map_err(|e| e.to_string())?;
                let stages = Arc::new(stages);
                let mut fnv = Fnv::default();
                let t = Instant::now();
                let report =
                    run_morsels(&mut inner, &stages, &pool, &obs, DEFAULT_CHUNK_BUDGET, |item| {
                        fnv.item(item)
                    });
                passes.push(hashed(&mut fnv, t, report.run.points_delivered)?);
                wall += t.elapsed().as_secs_f64();
            }
            morsel_rate[slot] = median(&passes);
            if workers > 0 {
                let stats = pool.stats();
                let busy: u64 = stats.iter().map(|w| w.busy_ns).sum();
                out.insert(
                    "exec.worker_busy_share",
                    busy as f64 / 1e9 / (workers as f64 * wall) * 100.0,
                );
                out.insert("exec.steals", stats.iter().map(|w| w.steals).sum::<u64>() as f64);
            }
        }
        out.insert("exec.morsel_w0_pts_per_s", morsel_rate[0]);
        out.insert("exec.morsel_w2_pts_per_s", morsel_rate[1]);
        // Speed-up over inline execution divided by the worker count;
        // reported whatever the core count is.
        out.insert("exec.morsel_w2_efficiency", morsel_rate[1] / morsel_rate[0] / 2.0);

        let ceiling = probes["roofline.stream_sum_pts_per_s"];
        for (kernel, pct) in [
            ("ops.restrict_space_pts_per_s", "ops.restrict_space_pct_roofline"),
            ("ops.map_linear_pts_per_s", "ops.map_linear_pct_roofline"),
        ] {
            out.insert(pct, traced.layer.get(kernel).copied().unwrap_or(0.0) / ceiling * 100.0);
        }

        // Spans are sequential here, so self time sums to busy time.
        let totals = crate::trace::totals_by_name(spans);
        let layer_ns = |layer: &str| -> f64 {
            totals.iter().filter(|(n, _)| n.starts_with(layer)).map(|(_, t)| t.self_ns as f64).sum()
        };
        let cpu_ns = traced.cpu_s.max(1e-9) * 1e9;
        let (ops, query) = (layer_ns("exec."), layer_ns("query."));
        out.insert("ops.busy_share", ops / cpu_ns * 100.0);
        out.insert("query.busy_share", query / cpu_ns * 100.0);
        out.insert("dsms.unattributed_share", (1.0 - (ops + query) / cpu_ns) * 100.0);
        Ok(out)
    }

    fn probe_inputs(state: &State) -> ProbeInputs {
        ProbeInputs {
            scanner: state.scanner.clone(),
            queries: state.kernels.iter().map(|k| k.text.clone()).collect(),
        }
    }
}
