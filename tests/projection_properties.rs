//! Property tests of the geospatial substrate: every projection's
//! forward/inverse pair must round-trip on its domain, and region
//! mapping across CRSs must be conservative (no false negatives for the
//! spatial restriction that consumes the mapped region).

mod common;

use common::Rng;
use geostreams::geo::{map_region, Coord, Crs, LatticeGeoref, Projection, Rect, Region};

/// CRSs under test with their geographic domains (lon range, lat range).
fn crs_cases() -> Vec<(Crs, Rect)> {
    vec![
        (Crs::LatLon, Rect::new(-179.0, -89.0, 179.0, 89.0)),
        (Crs::Mercator { lon0: 0.0 }, Rect::new(-179.0, -84.0, 179.0, 84.0)),
        (Crs::utm(10, true), Rect::new(-129.0, -79.0, -117.0, 84.0)),
        (Crs::utm(33, false), Rect::new(9.0, -79.0, 21.0, 83.0)),
        (
            Crs::LambertConformal { lat1: 33.0, lat2: 45.0, lat0: 39.0, lon0: -96.0 },
            Rect::new(-130.0, 10.0, -60.0, 70.0),
        ),
        (Crs::Sinusoidal { lon0: 0.0 }, Rect::new(-179.0, -89.0, 179.0, 89.0)),
        // Geostationary: keep well inside the visible disk.
        (Crs::geostationary(-75.0), Rect::new(-135.0, -55.0, -15.0, 55.0)),
        (
            Crs::Albers { lat1: 29.5, lat2: 45.5, lat0: 23.0, lon0: -96.0 },
            Rect::new(-130.0, 10.0, -60.0, 70.0),
        ),
        (
            Crs::PolarStereographic { north: true, lon0: -45.0 },
            Rect::new(-179.0, -30.0, 179.0, 89.0),
        ),
        (
            Crs::PolarStereographic { north: false, lon0: 0.0 },
            Rect::new(-179.0, -89.0, 179.0, 30.0),
        ),
    ]
}

#[test]
fn all_projections_round_trip() {
    for case in 0..128u64 {
        let mut rng = Rng::new(case);
        let (crs, dom) = crs_cases()[rng.index(10)];
        let lon = dom.x_min + rng.uniform(0.0, 1.0) * dom.width();
        let lat = dom.y_min + rng.uniform(0.0, 1.0) * dom.height();
        let p = Coord::new(lon, lat);
        let xy = crs.forward(p).unwrap();
        assert!(xy.is_finite());
        let ll = crs.inverse(xy).unwrap();
        assert!((ll.x - lon).abs() < 1e-5, "{crs}: lon {lon} -> {}", ll.x);
        assert!((ll.y - lat).abs() < 1e-5, "{crs}: lat {lat} -> {}", ll.y);
    }
}

/// `forward_batch` of `points` under `crs` equals `forward` point by
/// point: the same bits where `forward` succeeds, no result where it
/// fails.
fn assert_batch_is_forward(crs: Crs, proj: &dyn Projection, points: &[Coord], label: &str) {
    // A stale entry in `out` must not survive the call.
    let mut out = vec![Some(Coord::new(1.0, 2.0)); 3];
    proj.forward_batch(points, &mut out);
    assert_eq!(out.len(), points.len(), "{crs} {label}: one result per point");
    for (&p, got) in points.iter().zip(&out) {
        match (proj.forward(p), got) {
            (Ok(want), Some(got)) => assert!(
                want.x.to_bits() == got.x.to_bits() && want.y.to_bits() == got.y.to_bits(),
                "{crs} {label}: {p} -> {got}, forward gives {want}"
            ),
            (Err(_), None) => {}
            (want, got) => panic!("{crs} {label}: {p} -> {got:?}, forward gives {want:?}"),
        }
    }
}

#[test]
fn forward_batch_equals_forward_for_every_crs() {
    // Longitudes past ±180 and ±360, latitudes past ±90, non-finite
    // values, and for GOES-East the far side of the disk.
    let lons = |n: u32| (0..n).map(move |i| -400.0 + 800.0 * f64::from(i) / f64::from(n - 1));
    let special_lats = [0.0, 37.5, -89.9, 90.0, -90.0, 90.5, -91.0, f64::NAN, f64::INFINITY];
    let awkward = [
        Coord::new(-75.0, 10.0),
        Coord::new(f64::NAN, 10.0),
        Coord::new(-75.5, 10.0),
        Coord::new(500.0, 10.0),
        Coord::new(-74.0, 10.0),
        Coord::new(105.0, 10.0),
        Coord::new(-73.0, 10.0),
        Coord::new(-75.0, 91.0),
        Coord::new(-72.0, 10.0),
        Coord::new(f64::NEG_INFINITY, f64::NAN),
        Coord::new(180.0, 45.0),
        Coord::new(-180.0, 45.0),
        Coord::new(360.0, 45.0),
        Coord::new(-360.0, 45.0),
        Coord::new(360.5, 45.0),
        Coord::new(-0.0, -0.0),
        Coord::new(0.0, 0.0),
    ];
    for (case, (crs, dom)) in (0u64..).zip(crs_cases()) {
        let proj = crs.projection().unwrap();
        let mut rng = Rng::new(5000 + case);
        // Rows of one latitude, as a north-up lat/lon lattice row gives.
        let domain_lats = [dom.y_min, dom.center().y, dom.y_max];
        for lat in domain_lats.into_iter().chain(special_lats) {
            let row: Vec<Coord> = lons(97).map(|lon| Coord::new(lon, lat)).collect();
            assert_batch_is_forward(crs, &*proj, &row, &format!("row at lat {lat}"));
        }
        // Rows of mixed latitudes: random points, and runs of two.
        let mixed: Vec<Coord> = (0..200)
            .map(|_| Coord::new(rng.uniform(-370.0, 370.0), rng.uniform(-95.0, 95.0)))
            .collect();
        assert_batch_is_forward(crs, &*proj, &mixed, "mixed latitudes");
        let runs: Vec<Coord> =
            mixed.iter().flat_map(|&p| [p, Coord::new(p.x + 0.5, p.y)]).collect();
        assert_batch_is_forward(crs, &*proj, &runs, "runs of two");
        // A failing point inside a run of one latitude breaks no run.
        assert_batch_is_forward(crs, &*proj, &awkward, "awkward points");
        assert_batch_is_forward(crs, &*proj, &[], "no points");
    }
    // The geostationary rows above do cross the limb.
    let goes = Crs::geostationary(-75.0).projection().unwrap();
    let mut out = Vec::new();
    goes.forward_batch(&lons(97).map(|lon| Coord::new(lon, 0.0)).collect::<Vec<_>>(), &mut out);
    assert!(out.iter().any(Option::is_some) && out.iter().any(Option::is_none));
}

#[test]
fn conversion_through_any_pair_round_trips() {
    for case in 0..128u64 {
        let mut rng = Rng::new(1000 + case);
        let (a, dom_a) = crs_cases()[rng.index(10)];
        let (b, dom_b) = crs_cases()[rng.index(10)];
        // Pick a geographic point in both domains.
        let dom = dom_a.intersect(&dom_b);
        if dom.is_empty() {
            continue;
        }
        let lon = dom.x_min + rng.uniform(0.05, 0.95) * dom.width();
        let lat = dom.y_min + rng.uniform(0.05, 0.95) * dom.height();
        let pa = a.forward(Coord::new(lon, lat)).unwrap();
        let pb = a.convert_to(&b, pa).unwrap();
        let back = b.convert_to(&a, pb).unwrap();
        let tol = 1e-4 * a.meters_per_unit().max(1.0);
        assert!(pa.distance(back) < tol.max(1e-4), "{a} -> {b}: {pa} vs {back}");
    }
}

#[test]
fn region_mapping_is_conservative() {
    for case in 0..128u64 {
        let mut rng = Rng::new(2000 + case);
        let cx = rng.uniform(-120.0, -80.0);
        let cy = rng.uniform(15.0, 50.0);
        let w = rng.uniform(0.5, 8.0);
        let h = rng.uniform(0.5, 8.0);
        let (target, _) = crs_cases()[rng.index(10)];
        let region =
            Region::Rect(Rect::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0));
        let Ok(mapped) = map_region(&region, &Crs::LatLon, &target, 16) else {
            // Entirely invisible in the target; nothing to check.
            continue;
        };
        // Any interior point of the region that projects must land
        // inside the mapped rectangle.
        let p = Coord::new(
            cx - w / 2.0 + rng.uniform(0.0, 1.0) * w,
            cy - h / 2.0 + rng.uniform(0.0, 1.0) * h,
        );
        if let Ok(t) = target.forward(p) {
            assert!(
                mapped.contains(t),
                "point {p} -> {t} escaped mapped region {mapped:?} in {target}"
            );
        }
    }
}

#[test]
fn lattice_footprints_contain_exactly_their_cells() {
    for case in 0..48u64 {
        let mut rng = Rng::new(3000 + case);
        let w = rng.int(1, 64) as u32;
        let h = rng.int(1, 64) as u32;
        let x1 = rng.uniform(-124.0, -114.5);
        let y1 = rng.uniform(32.0, 41.5);
        let dx = rng.uniform(0.1, 6.0);
        let dy = rng.uniform(0.1, 6.0);
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 32.0, -114.0, 42.0), w, h);
        let rect = Rect::new(x1, y1, (x1 + dx).min(-114.0), (y1 + dy).min(42.0));
        let fp = lattice.footprint(&rect);
        for col in 0..w {
            for row in 0..h {
                let inside_fp =
                    fp.is_some_and(|b| b.contains(geostreams::geo::Cell::new(col, row)));
                let center = lattice.cell_to_world(geostreams::geo::Cell::new(col, row));
                // Allow boundary ties either way (floating rounding).
                let strictly_inside = center.x > rect.x_min + 1e-9
                    && center.x < rect.x_max - 1e-9
                    && center.y > rect.y_min + 1e-9
                    && center.y < rect.y_max - 1e-9;
                let strictly_outside = center.x < rect.x_min - 1e-9
                    || center.x > rect.x_max + 1e-9
                    || center.y < rect.y_min - 1e-9
                    || center.y > rect.y_max + 1e-9;
                if strictly_inside {
                    assert!(inside_fp, "cell ({col},{row}) center {center} missing");
                }
                if strictly_outside {
                    assert!(!inside_fp, "cell ({col},{row}) center {center} wrongly included");
                }
            }
        }
    }
}

#[test]
fn affine_inverse_round_trips() {
    use geostreams::geo::Affine;
    for case in 0..128u64 {
        let mut rng = Rng::new(4000 + case);
        let t = Affine::translation(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            .then(&Affine::rotation(rng.uniform(-180.0, 180.0)))
            .then(&Affine::scaling(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)));
        let inv = t.inverse().unwrap();
        let px = rng.uniform(-50.0, 50.0);
        let py = rng.uniform(-50.0, 50.0);
        let back = inv.apply(t.apply(Coord::new(px, py)));
        assert!((back.x - px).abs() < 1e-6 && (back.y - py).abs() < 1e-6, "case {case}");
    }
}
