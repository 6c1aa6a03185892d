//! Fire/hot-spot monitoring: a realistic continuous-query application.
//!
//! The paper's motivation (§1) lists disaster management among the
//! target applications. This example builds a hot-spot monitor over the
//! simulated GOES thermal bands:
//!
//! * a split-window difference of the two IR channels (the classic
//!   fire/cloud discriminator) via a composition,
//! * a value restriction selecting anomalously hot pixels,
//! * a sliding-window temporal aggregate (§6's extension operator)
//!   smoothing out single-sector noise, and
//! * a per-region spatial aggregate raising a scalar alert level per
//!   scan sector for a watched region.
//!
//! Run with `cargo run --release --example fire_monitor`.

use geostreams_core::model::{Element, GeoStream};
use geostreams_core::ops::{
    AggFunc, Compose, GammaOp, SpatialAggregate, TemporalAggregate, ValueRestrict,
};
use geostreams_geo::{Coord, Crs, Rect, Region};
use geostreams_satsim::goes_like;

fn main() {
    let scanner = goes_like(256, 128, 77);
    let sectors = 6;

    // Split-window difference of the two thermal channels. Band 4 and 5
    // share the 4 km lattice, so they compose directly.
    let b4 = scanner.band_stream_by_id(4, sectors).expect("band 4");
    let b5 = scanner.band_stream_by_id(5, sectors).expect("band 5");
    let diff = Compose::new(b4, b5, GammaOp::Sub).expect("compose");

    // The simulated channels are near-identical, so absolute differences
    // are tiny; treat the brightest fraction of band-4 as "hot" instead:
    // restrict on high brightness temperature.
    let b4_hot = scanner.band_stream_by_id(4, sectors).expect("band 4");
    let hot = ValueRestrict::range(b4_hot, 0.80, 1.00);

    // Smooth over a 3-sector window: persistent hot spots survive,
    // single-sector flickers do not.
    let smoothed = TemporalAggregate::new(hot, AggFunc::Min, 3);

    // Watch a region (central plains) and raise a scalar alert level.
    let geos = Crs::geostationary(-75.0);
    let sw = geos.forward(Coord::new(-102.0, 32.0)).expect("visible");
    let ne = geos.forward(Coord::new(-94.0, 40.0)).expect("visible");
    let watched = Region::Rect(Rect::new(sw.x, sw.y, ne.x, ne.y));
    let mut alerts = SpatialAggregate::new(smoothed, AggFunc::Count, watched);

    println!("sector   persistent hot pixels in watched region");
    let mut sector = 0;
    let mut alert_counts = Vec::new();
    while let Some(el) = alerts.next_element() {
        if let Element::Point(p) = el {
            let level = p.value as u64;
            let bar = "#".repeat((level as usize / 2).min(60));
            println!("{sector:>6}   {level:>6} {bar}");
            alert_counts.push(level);
            sector += 1;
        }
    }
    assert_eq!(alert_counts.len() as u64, sectors, "one alert level per sector");

    // Also report the split-window pipeline's join behavior.
    let mut diff = diff;
    let mut n = 0u64;
    let mut max_abs: f32 = 0.0;
    while let Some(el) = diff.next_element() {
        if let Element::Point(p) = el {
            n += 1;
            max_abs = max_abs.max(p.value.abs());
        }
    }
    println!("\nsplit-window difference: {n} matched points, max |ΔT| = {max_abs:.4}");
    assert!(n > 0, "IR bands must compose");
}
