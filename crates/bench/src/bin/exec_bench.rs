//! Chunked-execution benchmark (`BENCH_exec.json`).
//!
//! Runs the same pipelines twice — once through the legacy scalar
//! executor loop (one `next_element` virtual call plus an `Instant`
//! pair and a histogram record per element, exactly what the driver
//! did before chunking) and once through the chunk-native
//! [`exec::run_chunked`] driver — and reports points/s for each plus
//! the speedup in permille. Workloads: spatial restriction, value
//! transform, two-stream composition, and a full DSMS shared-ingest
//! fan-out (chunked only; there is no scalar DSMS path anymore).
//!
//! With `--digest` nothing timing-dependent is printed: one JSON line
//! with per-workload point counts and an FNV-1a hash over every pixel
//! delivered by *both* the scalar and the chunked run — so
//! `scripts/exec_gate.sh` can run this binary twice and `diff` the
//! outputs to prove chunked execution is deterministic and
//! scalar-identical.

use geostreams_core::exec;
use geostreams_core::model::{ChunkOrMarker, Element, GeoStream, VecStream, DEFAULT_CHUNK_BUDGET};
use geostreams_core::obs::{Histogram, PipelineObs};
use geostreams_core::ops::{
    Compose, GammaOp, JoinStrategy, MapTransform, SpatialRestrict, ValueFunc,
};
use geostreams_dsms::{run_supervised, ClientRequest, FanoutPolicy, OutputFormat, RuntimeConfig};
use geostreams_geo::{Crs, LatticeGeoref, Rect, Region};
use geostreams_satsim::goes_like;
use std::time::Instant;

const SECTORS: u64 = 6;
const RUNS: usize = 5;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_u32(v: u32, mut hash: u64) -> u64 {
    for b in v.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One measured drain: wall seconds, points delivered, pixel hash.
struct Run {
    secs: f64,
    points: u64,
    fnv: u64,
}

/// The pre-chunking executor loop, reproduced verbatim: two
/// `Instant::now` calls, one histogram record, and one virtual
/// `next_element` dispatch per element.
fn run_scalar<S: GeoStream<V = f32>>(stream: &mut S) -> Run {
    let hist = Histogram::new();
    let start = Instant::now();
    let mut points = 0u64;
    let mut fnv = FNV_OFFSET;
    loop {
        let t0 = Instant::now();
        let Some(el) = stream.next_element() else { break };
        hist.record(t0.elapsed().as_nanos() as u64);
        if let Element::Point(p) = el {
            points += 1;
            fnv = fnv1a_u32(p.value.to_bits(), fnv);
        }
    }
    Run { secs: start.elapsed().as_secs_f64(), points, fnv }
}

/// The chunk-native driver with the same per-pixel hashing work.
fn run_chunked<S: GeoStream<V = f32>>(stream: &mut S) -> Run {
    let mut fnv = FNV_OFFSET;
    let start = Instant::now();
    let report = exec::run_chunked(stream, &PipelineObs::default(), DEFAULT_CHUNK_BUDGET, |item| {
        if let ChunkOrMarker::Chunk(c) = item {
            for p in &c.points {
                fnv = fnv1a_u32(p.value.to_bits(), fnv);
            }
        }
    });
    Run { secs: start.elapsed().as_secs_f64(), points: report.points_delivered, fnv }
}

/// Best-of-`RUNS` measurement of one side of a workload; counts and
/// hashes must agree across repeats (they are deterministic).
fn measure<S: GeoStream<V = f32>>(make: impl Fn() -> S, run: impl Fn(&mut S) -> Run) -> Run {
    let mut best: Option<Run> = None;
    for _ in 0..RUNS {
        let mut stream = make();
        let r = run(&mut stream);
        if let Some(b) = &best {
            assert_eq!(r.points, b.points, "nondeterministic point count");
            assert_eq!(r.fnv, b.fnv, "nondeterministic pixel hash");
        }
        if best.as_ref().is_none_or(|b| r.secs < b.secs) {
            best = Some(r);
        }
    }
    best.expect("at least one run")
}

const WIDTH: u32 = 512;
const HEIGHT: u32 = 96;

/// A pre-materialized source, so the measurement isolates pipeline
/// execution overhead (dispatch, timing, per-element accounting) from
/// the cost of synthesizing pixel values.
fn materialized(seed: u64) -> VecStream<f32> {
    let bounds = Rect::new(0.0, 0.0, f64::from(WIDTH), f64::from(HEIGHT));
    let lattice = LatticeGeoref::north_up(Crs::LatLon, bounds, WIDTH, HEIGHT);
    VecStream::sectors("bench-src", lattice, SECTORS, move |s, x, y| {
        ((s ^ seed) as f64) + f64::from(x) * 0.01 + f64::from(y) * 0.1
    })
}

/// The central quarter of the materialized source's world footprint.
fn inner_rect() -> Rect {
    let (w, h) = (f64::from(WIDTH), f64::from(HEIGHT));
    Rect::new(w * 0.25, h * 0.25, w * 0.75, h * 0.75)
}

struct Workload {
    name: &'static str,
    scalar: Run,
    chunked: Run,
}

impl Workload {
    fn speedup_permille(&self) -> u64 {
        (self.scalar.secs / self.chunked.secs.max(1e-9) * 1000.0) as u64
    }
    fn scalar_pps(&self) -> f64 {
        self.scalar.points as f64 / self.scalar.secs.max(1e-9)
    }
    fn chunked_pps(&self) -> f64 {
        self.chunked.points as f64 / self.chunked.secs.max(1e-9)
    }
}

fn main() {
    let digest = std::env::args().any(|a| a == "--digest");
    let path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_exec.json".to_string());

    let src = materialized(7);
    let rhs = materialized(8);
    let rect = inner_rect();

    let restrict = || SpatialRestrict::new(src.clone(), Region::Rect(rect));
    let transform =
        || MapTransform::<_, f32>::new(src.clone(), ValueFunc::Linear { scale: 2.0, offset: 1.0 });
    let compose = || {
        Compose::new(src.clone(), rhs.clone(), GammaOp::Add, JoinStrategy::Hash)
            .expect("matching CRS")
    };

    let workloads = vec![
        Workload {
            name: "restrict",
            scalar: measure(restrict, run_scalar),
            chunked: measure(restrict, run_chunked),
        },
        Workload {
            name: "transform",
            scalar: measure(transform, run_scalar),
            chunked: measure(transform, run_chunked),
        },
        Workload {
            name: "compose",
            scalar: measure(compose, run_scalar),
            chunked: measure(compose, run_chunked),
        },
    ];

    for w in &workloads {
        assert_eq!(
            w.scalar.points, w.chunked.points,
            "{}: scalar and chunked point counts diverge",
            w.name
        );
        assert_eq!(
            w.scalar.fnv, w.chunked.fnv,
            "{}: scalar and chunked pixel hashes diverge",
            w.name
        );
    }

    if digest {
        let fields: Vec<String> = workloads
            .iter()
            .map(|w| {
                format!(
                    "\"{0}_points\":{1},\"{0}_fnv\":\"{2:016x}\"",
                    w.name, w.chunked.points, w.chunked.fnv
                )
            })
            .collect();
        println!(
            "{{\"bench\":\"exec\",\"sectors\":{SECTORS},{},\"scalar_matches_chunked\":true}}",
            fields.join(",")
        );
        return;
    }

    // Full DSMS path: shared supervised ingest, two subscribers on one
    // band — chunks cross the fan-out channels end to end.
    let scanner = goes_like(WIDTH, HEIGHT, 7);
    let t0 = Instant::now();
    let requests = vec![
        ClientRequest {
            query: "goes-sim.b1-vis".to_string(),
            format: OutputFormat::Stats,
            sectors: 0,
        },
        ClientRequest {
            query: "scale(goes-sim.b1-vis, 2, 0)".to_string(),
            format: OutputFormat::Stats,
            sectors: 0,
        },
    ];
    let lossless = RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() };
    let (results, ingest) =
        run_supervised(&scanner, SECTORS, &requests, &lossless).expect("DSMS bench run failed");
    let dsms_secs = t0.elapsed().as_secs_f64();
    let dsms_points: u64 = results.iter().map(|r| r.as_ref().map(|q| q.points).unwrap_or(0)).sum();
    let dsms_pps = dsms_points as f64 / dsms_secs.max(1e-9);

    let per_workload: Vec<String> = workloads
        .iter()
        .map(|w| {
            format!(
                "\"{0}_points\":{1},\"{0}_scalar_pps\":{2:.0},\"{0}_chunked_pps\":{3:.0},\"{0}_speedup_permille\":{4}",
                w.name,
                w.chunked.points,
                w.scalar_pps(),
                w.chunked_pps(),
                w.speedup_permille()
            )
        })
        .collect();
    let json = format!(
        "{{\"sectors\":{SECTORS},\"chunk_budget\":{DEFAULT_CHUNK_BUDGET},{},\"dsms_points\":{dsms_points},\"dsms_points_per_s\":{dsms_pps:.0},\"dsms_ingest_elements\":{},\"dsms_shed_elements\":{}}}",
        per_workload.join(","),
        ingest.elements_per_band.iter().map(|(_, n)| n).sum::<u64>(),
        ingest.shed_elements,
    );
    std::fs::write(&path, json.as_bytes()).expect("write exec report");
    for w in &workloads {
        println!(
            "{:<10} {:>10.0} pts/s scalar  {:>11.0} pts/s chunked  ({:.2}x)",
            w.name,
            w.scalar_pps(),
            w.chunked_pps(),
            w.speedup_permille() as f64 / 1000.0
        );
    }
    println!(
        "dsms       {dsms_pps:>10.0} pts/s over shared ingest + fan-out ({dsms_points} points)"
    );
    println!("wrote {path}");
}
