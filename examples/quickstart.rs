//! Quickstart: from satellite downlink to a delivered NDVI product.
//!
//! Walks the whole Fig. 3 pipeline of the paper in ~80 lines:
//!
//! 1. simulate a GOES-like imager (stream generator),
//! 2. register a continuous NDVI query over two spectral bands through
//!    the textual query language,
//! 3. let the optimizer rewrite it (restriction pushdown),
//! 4. execute, and deliver color-mapped PNG frames.
//!
//! Run with `cargo run --release --example quickstart`.

use geostreams_dsms::{Dsms, OutputFormat};
use geostreams_satsim::goes_like;
use std::fs;
use std::sync::Arc;

fn main() {
    // 1. A GOES-East-like imager: 5 bands over a CONUS-like sector in
    //    native geostationary coordinates (256x128 visible band here;
    //    the real instrument's 20,840 x 10,820 works the same way).
    let scanner = goes_like(256, 128, 2006);
    let server = Arc::new(Dsms::over_scanner(&scanner, 3));
    println!("registered sources: {:?}", server.catalog().names());

    // 2. A continuous query in the algebra of §3: NDVI over the NIR and
    //    visible bands (resolutions matched by downsampling the 1 km
    //    visible band to the 4 km IR grid), restricted to a region of
    //    interest given in lat/lon, for 2 scan sectors.
    let query = "restrict_space(\
                   ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)),\
                   bbox(-105, 28, -85, 42), \"latlon\")";
    let handle = server.register_text(query, OutputFormat::PngNdvi, 2).expect("query registers");
    println!("\nquery      : {}", handle.text);
    println!("parsed     : {}", handle.expr);
    println!("optimized  : {}", handle.optimized);

    // 3. EXPLAIN: the static analyzer's bounds for the naive and the
    //    optimized plan — per operator, its blocking class, the points
    //    it can emit per sector and its worst-case buffer.
    let planner = geostreams_core::query::Planner::new(server.catalog());
    let naive = geostreams_core::query::Plan::analyze(handle.expr.clone(), server.catalog());
    println!("\nnaive plan:\n{}", planner.explain(&naive));
    println!("optimized plan:\n{}", planner.explain(&handle.optimized));

    // 4. Execute and deliver.
    let result = server.run_query(&handle).expect("query runs");
    let out_dir = std::path::Path::new("target/quickstart");
    fs::create_dir_all(out_dir).expect("create output dir");
    for frame in &result.frames {
        let path = out_dir.join(format!("ndvi_sector{}.png", frame.timestamp));
        fs::write(&path, &frame.png).expect("write png");
        println!(
            "delivered {} ({}x{} px, {} bytes)",
            path.display(),
            frame.width,
            frame.height,
            frame.png.len()
        );
    }
    println!("\nserver metrics: {}", server.metrics.summary());

    assert!(!result.frames.is_empty(), "quickstart must deliver frames");
    // The root's static bound covers what each sector delivered.
    let run = result.report.as_ref().expect("one-shot runs report");
    let bound = handle.optimized.report().per_op.last().expect("analyzed").points_per_sector;
    println!("points per sector: {} delivered, ≤{bound} bound", run.points_delivered / run.sectors);
    assert!(run.points_delivered <= bound * run.sectors, "the root bound must hold");
}
