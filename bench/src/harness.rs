//! One run of one workload: set-up, measurement, checks, and the record.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::proc::{cpu_times, peak_rss_mb};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::{self, Tracer};
use geostreams_satsim::Scanner;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-up runs this many times per run; the median is reported and the
/// last state is the one measured.
const SETUPS: usize = 5;

/// Where the benchmark keeps what it writes: span files in `bench/out`,
/// archives and scratch under `bench/out/tmp-<pid>`, removed on exit.
pub const OUT_DIR: &str = "bench/out";

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload sees of its environment.
pub struct Env {
    pub seed: u64,
    pub tmp: PathBuf,
}

/// The scratch directory of this process; removed when dropped, so also
/// when a run fails or panics.
pub struct TmpDir(pub PathBuf);

impl TmpDir {
    pub fn create(out: &Path) -> Result<TmpDir, String> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub type LayerValues = BTreeMap<&'static str, f64>;

/// What one measured pass over a workload yields.
#[derive(Default)]
pub struct Measured {
    /// Operations attempted: queries, subscribers, replays, requests,
    /// kernel passes. A refused, errored, short or wrong operation is
    /// failed.
    pub attempted: u64,
    pub failed: u64,
    /// The workload's headline throughput, as the README defines it.
    pub pts_per_s: f64,
    /// Points moved, CPU spent and wall elapsed inside timed sections,
    /// over all rounds.
    pub points: u64,
    pub cpu_s: f64,
    pub wall_s: f64,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Layer values this pass measured itself (phase rates, counts).
    pub layer: LayerValues,
    /// Sizes and sample counts for the record line.
    pub info: Vec<(&'static str, String)>,
    /// Why operations failed; printed, and any entry makes the run
    /// incorrect.
    pub errors: Vec<String>,
}

/// One round of fixed work.
pub struct Round {
    pub points: u64,
    pub cpu_s: f64,
    /// Latency of every operation the round completed, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl Measured {
    /// Closes a round: what it moved, how long its timed sections took
    /// in wall and CPU seconds, and the latencies it collected.
    pub fn end_round(&mut self, points: u64, wall_s: f64, cpu_s: f64, op_ms: Vec<f64>) {
        self.points += points;
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
        self.rounds.push(Round { points, cpu_s, op_ms });
    }

    pub fn latency_samples(&self) -> usize {
        self.rounds.iter().map(|r| r.op_ms.len()).sum()
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// CPU and wall clock of one timed section.
pub struct Section {
    started: Instant,
    cpu0: f64,
}

impl Section {
    pub fn start() -> Section {
        Section { started: Instant::now(), cpu0: cpu_times().total_s() }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(self) -> (f64, f64) {
        (self.started.elapsed().as_secs_f64(), cpu_times().total_s() - self.cpu0)
    }
}

/// What the layer probes of the traced run work on.
pub struct ProbeInputs {
    pub scanner: Scanner,
    pub queries: Vec<String>,
}

pub trait Workload {
    type State;

    /// Everything before the first timed operation: inputs, archive
    /// directory, server, warm-up pass.
    fn setup(env: &Env) -> Result<Self::State, String>;

    /// Runs fixed-size rounds until `seconds` have passed.
    fn measure(
        state: &mut Self::State,
        env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured;

    /// Traced run only: the same inputs fed through each layer alone,
    /// and whatever else needs the untraced pass beside the traced one.
    fn attribute(
        state: &mut Self::State,
        env: &Env,
        untraced: &Measured,
        traced: &Measured,
        spans: &[trace::SpanRecord],
        probes: &LayerValues,
    ) -> Result<LayerValues, String>;

    fn probe_inputs(state: &Self::State) -> ProbeInputs;
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The commit under test, when the caller says (`noise.sh` does): the
/// checkout the driver runs in is not a git repository.
fn commit() -> String {
    std::env::var("GEOBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}

/// Every metric is taken per round and reported as the median over the
/// rounds, so a round the machine disturbed moves none of them.
fn end_to_end(setup_s: f64, m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    let over_rounds = |f: &dyn Fn(&Round) -> f64| {
        median(&m.rounds.iter().filter(|r| !r.op_ms.is_empty()).map(f).collect::<Vec<_>>())
    };
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "pts_per_s" => m.pts_per_s,
        "cpu_s_per_mpts" => over_rounds(&|r| r.cpu_s / (r.points.max(1) as f64 / 1e6)),
        "op_p50_ms" => over_rounds(&|r| percentile(&sorted(&r.op_ms), 50.0)),
        "op_p95_ms" => over_rounds(&|r| percentile(&sorted(&r.op_ms), 95.0)),
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    END_TO_END.iter().map(|d| (d.name, d.unit, value(d.name))).collect()
}

/// Runs one workload as the benchmark contract asks and prints the
/// record line and, last, the result line. `Err` means nothing was
/// printed and the process must exit non-zero.
pub fn run<W: Workload>(args: &RunArgs) -> Result<bool, String> {
    let process_started = Instant::now();
    let out = PathBuf::from(OUT_DIR);
    let tmp = TmpDir::create(&out)?;
    let env = Env { seed: args.seed, tmp: tmp.0.clone() };

    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(W::setup(&env)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUPS is at least 1");
    let setup_s = median(&setup_times);

    let (measured, metrics) = if !args.trace {
        let m = W::measure(&mut state, &env, args.seconds, None);
        let metrics = end_to_end(setup_s, &m);
        (m, metrics)
    } else {
        // Half the time untraced, half traced: the difference between
        // the two is what tracing costs.
        let untraced = W::measure(&mut state, &env, args.seconds / 2.0, None);
        let tracer = Arc::new(Tracer::new());
        let stop_sampling = AtomicBool::new(false);
        let (mut traced, threads_peak) = std::thread::scope(|s| {
            // The thread count is only visible while the threads live:
            // a sampler reads it every 20 ms during the traced pass.
            let sampler = s.spawn(|| {
                let mut peak = 0;
                while !stop_sampling.load(Ordering::Relaxed) {
                    peak = peak.max(cpu_times().threads);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                peak
            });
            let traced = W::measure(&mut state, &env, args.seconds / 2.0, Some(&tracer));
            stop_sampling.store(true, Ordering::Relaxed);
            (traced, sampler.join().unwrap_or(0))
        });
        let spans = tracer.spans();
        let mut layer: LayerValues = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
        layer.extend(untraced.layer.iter().map(|(k, v)| (*k, *v)));
        layer.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
        let probes = probes::run(&W::probe_inputs(&state), Some(&tracer))?;
        layer.extend(W::attribute(&mut state, &env, &untraced, &traced, &spans, &probes)?);
        layer.extend(probes);
        layer.insert(
            "trace.overhead_pct",
            (untraced.pts_per_s / traced.pts_per_s.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
        );
        let spans = tracer.spans();
        layer.insert("trace.spans", spans.len() as f64);
        let cpu = cpu_times();
        layer.insert("process.peak_rss_mb", peak_rss_mb());
        layer.insert(
            "process.cpu_cores_used",
            cpu.total_s() / process_started.elapsed().as_secs_f64(),
        );
        layer.insert("process.cpu_sys_share", 100.0 * cpu.sys_s / cpu.total_s().max(1e-9));
        // Without the sampler itself.
        layer.insert("process.threads_peak", threads_peak.saturating_sub(1) as f64);
        let file = out.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(
            &file,
            trace::render_json(&args.workload, args.seed, &spans, tracer.dropped()),
        )
        .map_err(|e| format!("write {}: {e}", file.display()))?;

        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.errors.extend(untraced.errors);
        if let Some(unknown) = layer.keys().find(|k| !PER_LAYER.iter().any(|d| d.name == **k)) {
            return Err(format!("undeclared per-layer metric {unknown}"));
        }
        let metrics = PER_LAYER.iter().map(|d| (d.name, d.unit, layer[d.name])).collect();
        (traced, metrics)
    };
    drop(state);

    for e in &measured.errors {
        eprintln!("geobench: {}: {e}", args.workload);
    }
    let correct = measured.failed == 0 && measured.errors.is_empty();
    let info: Vec<String> =
        measured.info.iter().map(|(k, v)| format!(", \"{k}\": \"{v}\"")).collect();
    println!(
        "{{\"record\": \"geobench\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"cores\": {}, \"commit\": \"{}\", \"ops_attempted\": {}, \
         \"ops_failed\": {}, \"latency_samples\": {}, \"highest_percentile_a_round_supports\": {}{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit(),
        measured.attempted,
        measured.failed,
        measured.latency_samples(),
        highest_supported_percentile(measured.rounds.first().map_or(0, |r| r.op_ms.len())).unwrap_or(0),
        info.join("")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.attempted.max(1),
        measured.failed,
        json_metrics(&metrics)
    );
    Ok(correct)
}
