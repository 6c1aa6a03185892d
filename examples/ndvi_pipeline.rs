//! The paper's §3.4 running example, end to end, with and without the
//! optimizer:
//!
//! ```text
//! ((f_val((G1 − G2) ⊘ (G2 + G1))) ∘ f_UTM)|R
//! ```
//!
//! G1 = near-infrared, G2 = visible; f_val normalizes NDVI to [0,1];
//! f_UTM re-projects to UTM zone 14N; R restricts to a region of
//! interest given in UTM coordinates. The optimizer (a) fuses the NDVI
//! pattern into the §4 macro operator and (b) pushes the spatial
//! restriction inward across the re-projection, mapping R into the
//! source coordinate system.
//!
//! Run with `cargo run --release --example ndvi_pipeline`.

use geostreams_core::exec::run_to_end;
use geostreams_core::query::{optimize, parse_query, Plan, Planner};
use geostreams_dsms::Dsms;
use geostreams_satsim::goes_like;
use std::time::Instant;

fn main() {
    let scanner = goes_like(384, 192, 42);
    let server = Dsms::over_scanner(&scanner, 1);
    let catalog = server.catalog();

    // Region of interest around Kansas, specified in UTM 14N meters.
    let query = "restrict_space(
        reproject(
            normalize(
                div(sub(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)),
                    add(downsample(goes-sim.b1-vis, 4), goes-sim.b2-nir)),
                -1, 1),
            \"utm:14N\", \"bilinear\"),
        bbox(200000, 4100000, 700000, 4500000), \"utm:14N\")";

    let expr = parse_query(query).expect("parses");
    let optimized = optimize(&expr, catalog);
    println!("naive     : {expr}");
    println!("optimized : {optimized}\n");

    let planner = Planner::new(catalog);
    let mut rows = Vec::new();
    for (label, plan) in [("naive", &Plan::analyze(expr, catalog)), ("optimized", &optimized)] {
        // The static bound on points touched per sector: every operator
        // consumes what its inputs emit, each at most `points_per_sector`.
        let bound: u64 = plan.report().per_op.iter().map(|op| op.points_per_sector).sum();
        let mut pipeline = planner.build(plan).expect("plans");
        let start = Instant::now();
        let report = run_to_end(&mut pipeline);
        let wall = start.elapsed();
        rows.push((label, bound, report, wall));
    }

    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>14} {:>10}",
        "plan", "points out", "touched bound", "points touched", "peak buffer", "wall"
    );
    for (label, bound, report, wall) in &rows {
        println!(
            "{:<10} {:>12} {:>14} {:>14} {:>14} {:>9.1?}",
            label,
            report.points_delivered,
            bound * report.sectors,
            report.total_points_processed(),
            report.peak_buffered_points(),
            wall
        );
        assert!(report.total_points_processed() <= bound * report.sectors, "{label}: bound");
    }
    let naive = &rows[0];
    let opt = &rows[1];
    assert_eq!(
        naive.2.points_delivered, opt.2.points_delivered,
        "rewrites must not change the answer cardinality"
    );
    assert!(
        opt.2.total_points_processed() < naive.2.total_points_processed(),
        "pushdown must reduce points touched"
    );
    println!(
        "\npushdown touched {:.1}x fewer points",
        naive.2.total_points_processed() as f64 / opt.2.total_points_processed() as f64
    );
}
