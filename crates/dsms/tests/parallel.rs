//! Differential oracle suite for morsel-driven parallel execution
//! (DESIGN.md §17).
//!
//! Every partitionable operator — and a stacked pipeline — must
//! produce a flattened element sequence *byte-identical* to the serial
//! single-threaded plan at every worker count and chunk budget,
//! including over a faulty downlink (`ChaosStream` repaired below the
//! split, mirroring the runtime's source wiring) and through the
//! shared-plan runtime with `share_plans` on. And the DSMS's entry
//! points — `Dsms::run_query`, `run_supervised` unshared at two worker
//! counts, `run_supervised` shared — must agree on every plan class ×
//! delivery format.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use geostreams_core::exec::{build_split, run_morsels, WorkerPool};
use geostreams_core::model::{drain_chunked, Element, GeoStream, StreamRepair};
use geostreams_core::obs::PipelineObs;
use geostreams_core::query::{optimize, parse_query, Catalog, Planner};
use geostreams_dsms::{
    run_supervised, ClientRequest, Dsms, FanoutPolicy, OutputFormat, QueryResult, RuntimeConfig,
    ServerMetrics,
};
use geostreams_satsim::{goes_like, ChaosStream, FaultPlan};
use std::sync::Arc;

const SECTORS: u64 = 2;
const BUDGETS: [usize; 3] = [1, 7, 256];

/// Worker counts under test: {1, 2, 4, cores}, deduplicated.
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut v = vec![1, 2, 4, cores];
    v.sort_unstable();
    v.dedup();
    v
}

/// A catalog over the simulated scanner, each band optionally degraded
/// by a seeded `ChaosStream` and always repaired — repair sits *below*
/// the parallel split, exactly like the runtime's channel sources, so
/// morsel kernels only ever see protocol-clean input.
fn catalog(chaos: Option<FaultPlan>) -> Catalog {
    let scanner = goes_like(16, 8, 5);
    let mut catalog = Catalog::new();
    for band_idx in 0..scanner.instrument.bands.len() {
        let schema = scanner.band_stream(band_idx, 1).schema().clone();
        let scanner = scanner.clone();
        let plan = chaos.clone();
        catalog.register(schema, move || {
            let stream = scanner.band_stream(band_idx, SECTORS);
            match &plan {
                Some(p) => Box::new(StreamRepair::new(ChaosStream::new(
                    stream,
                    p.clone(),
                    band_idx as u64,
                ))),
                None => Box::new(StreamRepair::new(stream)),
            }
        });
    }
    catalog
}

/// Bit patterns of every point value, in delivery order. Element
/// equality already covers structure; this pins the values down to the
/// exact f32 bits (`assert_eq!` on `f32` would pass for `-0.0 == 0.0`).
fn point_bits(els: &[Element<f32>]) -> Vec<u32> {
    els.iter()
        .filter_map(|el| match el {
            Element::Point(p) => Some(p.value.to_bits()),
            _ => None,
        })
        .collect()
}

/// Serial oracle: the full plan, one thread, drained at `budget`.
fn serial_oracle(catalog: &Catalog, query: &str, budget: usize) -> Vec<Element<f32>> {
    let expr = optimize(&parse_query(query).expect("parse"), catalog);
    let planner = Planner::new(catalog);
    let mut pipeline = planner.build(&expr).expect("build");
    drain_chunked(&mut *pipeline, budget)
}

/// Morsel run: split the same plan, fan the stage suffix out to `pool`,
/// and flatten the merged delivery.
fn morsel_run(
    catalog: &Catalog,
    query: &str,
    pool: &WorkerPool,
    budget: usize,
) -> Vec<Element<f32>> {
    let plan = optimize(&parse_query(query).expect("parse"), catalog);
    let planner = Planner::new(catalog);
    let (mut inner, stages) = build_split(&planner, &plan, true, None).expect("build split");
    assert!(!stages.is_empty(), "query must have a partitionable suffix: {query}");
    let stages = Arc::new(stages);
    let mut merged = Vec::new();
    let report = run_morsels(&mut inner, &stages, pool, &PipelineObs::default(), budget, |item| {
        item.for_each_element(&mut |el| merged.push(el.clone()))
    });
    assert_eq!(report.run.protocol_violations, 0, "{query}");
    assert_eq!(report.kernel_panics, 0, "{query}");
    merged
}

/// One query per partitionable operator (restrictions, value map,
/// stretch, focal, orient), each rooted directly over a source.
const OPERATOR_QUERIES: [&str; 7] = [
    "restrict_space(goes-sim.b4-ir, bbox(-100, 30, -90, 40), \"latlon\")",
    "restrict_time(goes-sim.b4-ir, interval(0, 2))",
    "restrict_value(goes-sim.b4-ir, 200, 320)",
    "scale(goes-sim.b4-ir, 2, 1)",
    "stretch(goes-sim.b4-ir, \"linear\")",
    "focal(goes-sim.b4-ir, \"mean\", 3)",
    "orient(goes-sim.b4-ir, \"rot90\")",
];

fn assert_identical(catalog: &Catalog, queries: &[&str]) {
    for &workers in &worker_counts() {
        let pool = WorkerPool::new(workers);
        for query in queries {
            for budget in BUDGETS {
                let serial = serial_oracle(catalog, query, budget);
                let merged = morsel_run(catalog, query, &pool, budget);
                assert_eq!(merged, serial, "{query} at {workers} workers, budget {budget}");
                assert_eq!(
                    point_bits(&merged),
                    point_bits(&serial),
                    "{query} bits at {workers} workers, budget {budget}"
                );
            }
        }
    }
}

#[test]
fn every_operator_is_byte_identical_across_workers_and_budgets() {
    assert_identical(&catalog(None), &OPERATOR_QUERIES);
}

#[test]
fn stacked_pipeline_is_byte_identical() {
    assert_identical(
        &catalog(None),
        &["restrict_value(stretch(scale(goes-sim.b4-ir, 2, 1), \"linear\"), 0, 1000)"],
    );
}

#[test]
fn operators_stay_byte_identical_under_chaos() {
    // A deterministic, genuinely nasty downlink: dropped rows and
    // sectors, missing end markers, duplicates, reordering, corrupted
    // values. StreamRepair below the split normalizes it identically
    // for the oracle and every morsel kernel.
    let plan = FaultPlan::seeded(42)
        .with_dropped_points(0.05)
        .with_dropped_rows(0.02)
        .with_dropped_end_markers(0.05)
        .with_duplicates(0.03)
        .with_reordering(0.05)
        .with_corruption(0.02, 50.0);
    let catalog = catalog(Some(plan));
    assert_identical(
        &catalog,
        &[
            "restrict_value(goes-sim.b4-ir, 200, 320)",
            "focal(goes-sim.b4-ir, \"mean\", 3)",
            "restrict_value(stretch(scale(goes-sim.b4-ir, 2, 1), \"linear\"), 0, 1000)",
        ],
    );
}

#[test]
fn shared_plans_on_the_pool_match_the_unshared_inline_runtime() {
    // Two structurally-equal counting queries (shared when
    // `share_plans` is on) plus a distinct one, over a chaotic feed.
    // The per-query facts must be invariant across {unshared + inline,
    // shared + inline, shared + 4 workers, unshared + 4 workers}.
    let requests = vec![
        req("restrict_value(scale(goes-sim.b4-ir, 2, 0), 0, 700)"),
        req("restrict_value(scale(goes-sim.b4-ir, 2, 0), 0, 700)"),
        req("scale(goes-sim.b3-wv, 3, 1)"),
    ];
    let run = |share_plans: bool, exec_workers: usize| -> Vec<(u64, u64)> {
        let scanner = goes_like(32, 16, 5);
        let config = RuntimeConfig {
            share_plans,
            exec_workers,
            fault_plan: Some(FaultPlan::seeded(9).with_dropped_points(0.03).with_duplicates(0.02)),
            ..RuntimeConfig::default()
        };
        let (results, _) = run_supervised(&scanner, SECTORS, &requests, &config).expect("run");
        results
            .iter()
            .map(|r| {
                let r = r.as_ref().expect("query result");
                (r.points, r.report.as_ref().expect("report").sectors)
            })
            .collect()
    };
    let inline = run(false, 0);
    for (share, workers) in [(true, 0), (true, 4), (false, 4)] {
        assert_eq!(run(share, workers), inline, "share={share} workers={workers}");
    }
}

/// One plan per operator class: a bare source (empty stage suffix), a
/// frame-granular and a sector-granular partitionable suffix, an
/// order-sensitive operator alone and under a partitionable suffix,
/// two blocking merges (one over two bands), and two plans that read
/// one band twice — the §3.3 change detection among them — each read
/// fed on its own.
const CLASS_PLANS: [&str; 9] = [
    "goes-sim.b4-ir",
    "restrict_value(scale(goes-sim.b4-ir, 2, 0), 0, 500)",
    "focal(goes-sim.b4-ir, \"mean\", 3)",
    "downsample(goes-sim.b1-vis, 4)",
    "scale(downsample(goes-sim.b1-vis, 4), 2, 0)",
    "agg_time(goes-sim.b4-ir, \"mean\", 2)",
    "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))",
    "sub(goes-sim.b4-ir, delay(goes-sim.b4-ir, 1))",
    "add(goes-sim.b4-ir, goes-sim.b4-ir)",
];

const FORMATS: [OutputFormat; 5] = [
    OutputFormat::Stats,
    OutputFormat::Json,
    OutputFormat::PngGray,
    OutputFormat::PngNdvi,
    OutputFormat::PngThermal,
];

/// What an entry point delivered for one (plan, format) cell: points,
/// sectors the report saw, and each frame's dimensions and bytes.
#[derive(Debug, PartialEq)]
struct Cell {
    points: u64,
    sectors: Option<u64>,
    frames: Vec<(u32, u32, Vec<u8>)>,
}

fn cell(result: &QueryResult) -> Cell {
    Cell {
        points: result.points,
        sectors: result.report.as_ref().map(|r| r.sectors),
        frames: result.frames.iter().map(|f| (f.width, f.height, f.png.clone())).collect(),
    }
}

#[test]
fn entry_points_agree_on_every_plan_class_and_format() {
    let scanner = goes_like(32, 16, 5);
    let table: Vec<(&str, OutputFormat)> =
        CLASS_PLANS.iter().flat_map(|q| FORMATS.iter().map(move |f| (*q, *f))).collect();
    let requests: Vec<ClientRequest> = table
        .iter()
        .map(|(q, format)| ClientRequest { query: q.to_string(), format: *format, sectors: 0 })
        .collect();
    // Returns the cells and how many shared-plan nodes evaluated them.
    let supervised = |requests: &[ClientRequest], config: RuntimeConfig| -> (Vec<Cell>, u64) {
        let config = RuntimeConfig { fanout: FanoutPolicy::Blocking, ..config };
        let (results, stats) = run_supervised(&scanner, SECTORS, requests, &config).expect("run");
        assert_eq!(stats.threads_joined, stats.threads_spawned);
        let cells = results.iter().map(|r| cell(r.as_ref().expect("query result"))).collect();
        (cells, stats.shared_plans)
    };

    let (inline, nodes) =
        supervised(&requests, RuntimeConfig { exec_workers: 0, ..Default::default() });
    assert_eq!(nodes, 0);
    for (row, (q, format)) in inline.iter().zip(&table) {
        let counting = matches!(format, OutputFormat::Stats | OutputFormat::Json);
        assert!(row.points > 0, "{q} {format:?}");
        // Supervised image runs return no report (frozen, see below).
        assert_eq!(row.sectors, counting.then_some(SECTORS), "{q} {format:?}");
        // A delay of 1 has nothing to pair with in the first sector.
        let frames = if counting { 0 } else { SECTORS - u64::from(q.contains("delay")) };
        assert_eq!(row.frames.len() as u64, frames, "{q} {format:?}");
    }

    // The worker pool is invisible in results, and publishes its
    // counters as gauges.
    let metrics = Arc::new(ServerMetrics::new());
    let (pooled, _) = supervised(
        &requests,
        RuntimeConfig {
            exec_workers: 2,
            metrics: Some(Arc::clone(&metrics)),
            ..Default::default()
        },
    );
    assert_eq!(pooled, inline, "2 workers diverged from inline");
    assert!(metrics.render_prometheus().contains("geostreams_exec_worker_jobs"));

    // Every request twice, so each counting plan has two members and
    // runs as a shared node; image formats evaluate their own pipeline.
    let doubled: Vec<ClientRequest> =
        requests.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
    let (shared, nodes) =
        supervised(&doubled, RuntimeConfig { share_plans: true, ..Default::default() });
    assert!(nodes >= CLASS_PLANS.len() as u64, "{nodes} shared nodes");
    for (pair, row) in shared.chunks(2).zip(&inline) {
        assert_eq!(&pair[0], row, "shared member diverged");
        assert_eq!(&pair[1], row, "shared member diverged");
    }

    // The one-shot path: same points, sectors, frame count and frame
    // dimensions everywhere; same PNG bytes wherever it renders in gray
    // too (it applies the NDVI/thermal color ramps, `run_supervised`
    // renders every image format in gray). It reports on image runs as
    // well, `sectors` counting the `SectorEnd` markers the sink pulled.
    let dsms = Dsms::over_scanner(&scanner, SECTORS);
    for ((q, format), row) in table.iter().zip(&inline) {
        let handle = dsms.register_text(q, *format, 0).expect("registers");
        let one_shot = cell(&dsms.run_query(&handle).expect("runs"));
        assert_eq!(one_shot.points, row.points, "{q} {format:?}");
        assert_eq!(one_shot.sectors, Some(SECTORS), "{q} {format:?}");
        let dims = |c: &Cell| c.frames.iter().map(|(w, h, _)| (*w, *h)).collect::<Vec<_>>();
        assert_eq!(dims(&one_shot), dims(row), "{q} {format:?}");
        if *format == OutputFormat::PngGray {
            assert_eq!(one_shot.frames, row.frames, "{q}: gray bytes");
        }
    }
}

fn req(q: &str) -> ClientRequest {
    ClientRequest { query: q.to_string(), format: OutputFormat::Stats, sectors: 0 }
}
