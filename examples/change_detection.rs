//! Change detection: joining a GeoStream with its own past.
//!
//! Environmental monitoring (a §1 motivating application) watches for
//! *change*: cloud movement, flooding, burn scars. The algebra expresses
//! it as a self-join through the delay operator:
//!
//! ```text
//! abs(sub(G, delay(G, 1)))        -- per-cell |difference| between
//!                                 -- consecutive scan sectors
//! ```
//!
//! This example runs the change product over the simulated GOES visible
//! band (whose clouds drift between sectors), raises per-sector change
//! statistics, and writes a change-map PNG for the most active sector.
//!
//! Run with `cargo run --release --example change_detection`.

use geostreams_core::model::{tee2, Element, GeoStream};
use geostreams_core::ops::delivery::{PngSink, Rendering};
use geostreams_core::ops::{
    AggFunc, Compose, Delay, GammaOp, MapTransform, SpatialAggregate, ValueFunc,
};
use geostreams_geo::{Rect, Region};
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::PngOptions;
use geostreams_satsim::goes_like;
use std::fs;

fn main() {
    let scanner = goes_like(192, 96, 424_242);
    let sectors = 6;

    // |G - delay(G, 1)| over the visible band.
    let (live, past) = tee2(scanner.band_stream_by_id(1, sectors).expect("band 1"));
    let delayed = Delay::new(past, 1);
    let diff = Compose::new(live, delayed, GammaOp::Sub).expect("compose");
    let change: MapTransform<_, f32> = MapTransform::new(diff, ValueFunc::Abs);

    // Sector-level change energy for a console report.
    let world = scanner.instrument.base_lattice.world_bbox();
    let mut report = SpatialAggregate::new(
        change,
        AggFunc::Mean,
        Region::Rect(Rect::new(world.x_min, world.y_min, world.x_max, world.y_max)),
    );
    println!("sector   mean |change| (cloud drift between consecutive scans)");
    let mut levels = Vec::new();
    while let Some(el) = report.next_element() {
        if let Element::Point(p) = el {
            levels.push(p.value);
            let bar = "#".repeat((p.value * 400.0) as usize);
            println!("{:>6}   {:<8.5} {bar}", levels.len(), p.value);
        }
    }
    // The composition still frames sector 0 (no matches -> empty image,
    // aggregate 0): one report line per sector, the first one zero.
    assert_eq!(levels.len() as u64, sectors);
    assert!(levels[0].abs() < 1e-9, "sector 0 has no past to differ from");
    assert!(levels.iter().any(|&v| v > 1e-4), "the synthetic clouds do move");

    // Change map PNG for the final sector.
    let (live, past) = tee2(scanner.band_stream_by_id(1, sectors).expect("band 1"));
    let delayed = Delay::new(past, 1);
    let diff = Compose::new(live, delayed, GammaOp::Sub).expect("compose");
    let change: MapTransform<_, f32> = MapTransform::new(diff, ValueFunc::Abs);
    let rendering = Rendering::Mapped { lo: 0.0, hi: 0.4, map: ColorMap::thermal() };
    let mut sink = PngSink::new(change, Some(rendering), PngOptions::default());
    let mut last = None;
    while let Some(frame) = sink.next_frame() {
        last = Some(frame);
    }
    let frame = last.expect("frames produced");
    let out = std::path::Path::new("target/change_detection");
    fs::create_dir_all(out).expect("mkdir");
    let path = out.join(format!("change_sector{}.png", frame.timestamp));
    fs::write(&path, &frame.png).expect("write");
    println!("\nchange map written to {} ({} bytes)", path.display(), frame.png.len());
}
