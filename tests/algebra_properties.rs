//! Property tests of the query algebra: algebraic laws of the operators
//! (§3) and semantic preservation of the optimizer's rewrites (§3.4)
//! over seeded pseudo-random streams, regions and expressions.

mod common;

use common::Rng;
use geostreams::core::model::{
    Element, FrameInfo, GeoStream, PointRecord, SectorInfo, StreamSchema, TimeSemantics, Timestamp,
    VecStream,
};
use geostreams::core::ops::macro_ops::ndvi;
use geostreams::core::ops::{
    Compose, GammaOp, MapTransform, SpatialRestrict, ValueFunc, ValueRestrict,
};
use geostreams::core::query::{optimize, parse_query, Catalog, Plan, Planner};
use geostreams::geo::{Crs, LatticeGeoref, Rect, Region};

const W: u32 = 12;
const H: u32 = 10;

fn lattice() -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 12.0, 10.0), W, H)
}

/// Builds a deterministic stream whose values derive from a seed.
fn stream(seed: u64) -> VecStream<f32> {
    VecStream::single_sector("s", lattice(), 0, move |c, r| {
        let x = (u64::from(c) * 31 + u64::from(r) * 17 + seed * 1299709) % 1000;
        x as f64 / 100.0
    })
    .with_value_range(0.0, 10.0)
}

fn sorted_points<S: GeoStream<V = f32>>(mut s: S) -> Vec<PointRecord<f32>> {
    let mut pts = s.drain_points();
    pts.sort_by_key(|p| (p.cell.row, p.cell.col));
    pts
}

fn random_region(rng: &mut Rng) -> Region {
    let x = rng.uniform(0.0, 12.0);
    let y = rng.uniform(0.0, 10.0);
    let w = rng.uniform(0.5, 8.0);
    let h = rng.uniform(0.5, 8.0);
    Region::Rect(Rect::new(x, y, (x + w).min(12.0), (y + h).min(10.0)))
}

/// Restriction is idempotent: G|R|R = G|R.
#[test]
fn spatial_restriction_idempotent() {
    for case in 0..64u64 {
        let mut rng = Rng::new(case);
        let seed = rng.int(0, 500);
        let region = random_region(&mut rng);
        let once = sorted_points(SpatialRestrict::new(stream(seed), region.clone()));
        let twice = sorted_points(SpatialRestrict::new(
            SpatialRestrict::new(stream(seed), region.clone()),
            region,
        ));
        assert_eq!(once, twice, "case {case}");
    }
}

/// Restrictions commute: (G|R)|V = (G|V)|R.
#[test]
fn restrictions_commute() {
    for case in 0..64u64 {
        let mut rng = Rng::new(1000 + case);
        let seed = rng.int(0, 500);
        let region = random_region(&mut rng);
        let lo = rng.uniform(0.0, 5.0);
        let hi = lo + rng.uniform(0.5, 5.0);
        let a = sorted_points(ValueRestrict::range(
            SpatialRestrict::new(stream(seed), region.clone()),
            lo,
            hi,
        ));
        let b =
            sorted_points(SpatialRestrict::new(ValueRestrict::range(stream(seed), lo, hi), region));
        assert_eq!(a, b, "case {case}");
    }
}

/// Point-wise transforms commute with restrictions:
/// f(G|R) = f(G)|R when f does not change positions.
#[test]
fn map_commutes_with_spatial_restrict() {
    for case in 0..64u64 {
        let mut rng = Rng::new(2000 + case);
        let seed = rng.int(0, 500);
        let region = random_region(&mut rng);
        let f = ValueFunc::Linear { scale: rng.uniform(0.1, 3.0), offset: rng.uniform(-5.0, 5.0) };
        let a = sorted_points(MapTransform::<_, f32>::new(
            SpatialRestrict::new(stream(seed), region.clone()),
            f,
        ));
        let b = sorted_points(SpatialRestrict::new(
            MapTransform::<_, f32>::new(stream(seed), f),
            region,
        ));
        assert_eq!(a.len(), b.len(), "case {case}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cell, y.cell, "case {case}");
            assert!((x.value - y.value).abs() < 1e-5, "case {case}");
        }
    }
}

/// γ ∈ {+, ×, sup, inf} are commutative on matched points.
#[test]
fn commutative_gammas() {
    for case in 0..64u64 {
        let mut rng = Rng::new(3000 + case);
        let seed1 = rng.int(0, 200);
        let seed2 = rng.int(0, 200);
        let op = [GammaOp::Add, GammaOp::Mul, GammaOp::Sup, GammaOp::Inf][rng.index(4)];
        let ab = sorted_points(Compose::new(stream(seed1), stream(seed2), op).unwrap());
        let ba = sorted_points(Compose::new(stream(seed2), stream(seed1), op).unwrap());
        assert_eq!(ab.len(), ba.len(), "case {case}");
        for (x, y) in ab.iter().zip(&ba) {
            assert_eq!(x.cell, y.cell, "case {case}");
            assert!((x.value - y.value).abs() < 1e-5, "case {case}");
        }
    }
}

/// Composition distributes restriction: (G1 γ G2)|R = (G1|R) γ (G2|R).
#[test]
fn restriction_distributes_over_composition() {
    for case in 0..64u64 {
        let mut rng = Rng::new(4000 + case);
        let seed1 = rng.int(0, 200);
        let seed2 = rng.int(0, 200);
        let region = random_region(&mut rng);
        let outer = sorted_points(SpatialRestrict::new(
            Compose::new(stream(seed1), stream(seed2), GammaOp::Sub).unwrap(),
            region.clone(),
        ));
        let inner = sorted_points(
            Compose::new(
                SpatialRestrict::new(stream(seed1), region.clone()),
                SpatialRestrict::new(stream(seed2), region),
                GammaOp::Sub,
            )
            .unwrap(),
        );
        assert_eq!(outer, inner, "case {case}");
    }
}

/// NormDiff equals the three-composition NDVI formula.
#[test]
fn fused_normdiff_equals_formula() {
    for case in 0..16u64 {
        let mut rng = Rng::new(5000 + case);
        let seed1 = rng.int(0, 200);
        let seed2 = rng.int(0, 200);
        let fused =
            sorted_points(Compose::new(stream(seed1), stream(seed2), GammaOp::NormDiff).unwrap());
        let pts1 = sorted_points(stream(seed1));
        let pts2 = sorted_points(stream(seed2));
        for p in &fused {
            let a = pts1.iter().find(|q| q.cell == p.cell).unwrap().value;
            let b = pts2.iter().find(|q| q.cell == p.cell).unwrap().value;
            let denom = f64::from(a) + f64::from(b);
            let expect =
                if denom.abs() < 1e-12 { 0.0 } else { (f64::from(a) - f64::from(b)) / denom };
            assert!((f64::from(p.value) - expect).abs() < 1e-5, "case {case} at {:?}", p.cell);
        }
        // The literal §3.4 expression, three joins over two tees, agrees.
        let unfused = sorted_points(common::ndvi_unfused(stream(seed1), stream(seed2)));
        assert_eq!(unfused.len(), fused.len(), "case {case}");
        for (u, f) in unfused.iter().zip(&fused) {
            assert_eq!(u.cell, f.cell, "case {case}");
            assert!((u.value - f.value).abs() < 1e-5, "case {case} at {:?}", u.cell);
        }
    }
}

/// The fused `ndvi` reads at most half the points the literal
/// three-join expression reads, summed over every operator of the plan.
#[test]
fn fused_form_does_less_work() {
    let points_in = |s: &dyn GeoStream<V = f32>| {
        let mut report = Vec::new();
        s.collect_stats(&mut report);
        report.iter().map(|r| r.stats.points_in).sum::<u64>()
    };
    let mut fused = ndvi(stream(1), stream(2)).unwrap();
    let _ = fused.drain_points();
    let mut unfused = common::ndvi_unfused(stream(1), stream(2));
    let _ = unfused.drain_points();
    let (fused, unfused) = (points_in(&fused), points_in(&unfused));
    assert!(unfused >= 2 * fused, "unfused {unfused} vs fused {fused}");
}

/// Sectors of each fuzz source.
const SECTORS: u64 = 3;

/// A `SECTORS`-sector stream whose values derive from a seed and the
/// sector, stamped with sector ids.
fn sectors(seed: u64) -> VecStream<f32> {
    VecStream::sectors("s", lattice(), SECTORS, move |s, c, r| {
        let x = (u64::from(c) * 31 + u64::from(r) * 17 + (seed + 7 * s) * 1299709) % 1000;
        x as f64 / 100.0
    })
    .with_value_range(0.0, 10.0)
}

/// [`sectors`] under measurement-time semantics: row `r` of sector `s`
/// is stamped `s·H + r` and the sector `s·H`, so one sector holds `H`
/// timestamps.
fn measured(seed: u64) -> VecStream<f32> {
    let mut src = sectors(seed);
    let mut schema = src.schema().clone();
    schema.time_semantics = TimeSemantics::MeasurementTime;
    let stamp =
        |sector: u64, row: u32| Timestamp::new((sector * u64::from(H) + u64::from(row)) as i64);
    let elements = src
        .drain_elements()
        .into_iter()
        .map(|el| match el {
            Element::SectorStart(si) => {
                Element::SectorStart(SectorInfo { timestamp: stamp(si.sector_id, 0), ..si })
            }
            Element::FrameStart(fi) => Element::FrameStart(FrameInfo {
                timestamp: stamp(fi.sector_id, fi.cells.row_min),
                ..fi
            }),
            other => other,
        })
        .collect();
    VecStream::new(schema, elements)
}

/// A random time set: on the sector scale (`0..SECTORS`) or on the
/// measurement scale of [`measured`] (`0..SECTORS·H`).
fn gen_times(rng: &mut Rng) -> String {
    let scale = if rng.chance() { SECTORS } else { SECTORS * u64::from(H) };
    let lo = rng.int(0, scale);
    match rng.index(3) {
        0 => format!("instants({lo})"),
        1 => format!("instants({lo}, {})", rng.int(0, scale)),
        _ => format!("interval({lo}, {})", lo + rng.int(1, scale)),
    }
}

/// Random query generator for optimizer-equivalence fuzzing.
fn gen_query(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.index(4) == 0 {
        return ["g1", "g2", "m1"][rng.index(3)].to_string();
    }
    match rng.index(14) {
        0 => {
            let x = rng.uniform(0.0, 10.0);
            let y = rng.uniform(0.0, 8.0);
            let w = rng.uniform(1.0, 6.0);
            let h = rng.uniform(1.0, 6.0);
            format!(
                "restrict_space({}, bbox({x:.3}, {y:.3}, {:.3}, {:.3}), \"latlon\")",
                gen_query(rng, depth - 1),
                x + w,
                y + h
            )
        }
        1 => format!(
            "scale({}, {:.3}, {:.3})",
            gen_query(rng, depth - 1),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-1.0, 1.0)
        ),
        2 => format!(
            "restrict_value({}, {:.3}, {:.3})",
            gen_query(rng, depth - 1),
            rng.uniform(0.0, 5.0),
            rng.uniform(5.0, 10.0)
        ),
        3 => format!("add({}, {})", gen_query(rng, depth - 1), gen_query(rng, depth - 1)),
        4 => {
            let a = gen_query(rng, depth - 1);
            let b = gen_query(rng, depth - 1);
            format!("div(sub({a}, {b}), add({b}, {a}))")
        }
        5 => format!("magnify({}, 2)", gen_query(rng, depth - 1)),
        6 => format!("focal({}, \"mean\", 3)", gen_query(rng, depth - 1)),
        7 => format!("shed({}, \"points\", 2)", gen_query(rng, depth - 1)),
        8 => format!("shed({}, \"rows\", 2)", gen_query(rng, depth - 1)),
        9 | 10 => format!("restrict_time({}, {})", gen_query(rng, depth - 1), gen_times(rng)),
        11 => {
            let input = gen_query(rng, depth - 1);
            let scope = if rng.chance() { "frame" } else { "image" };
            format!("stretch({input}, \"linear\", \"{scope}\")")
        }
        12 => format!("delay({}, {})", gen_query(rng, depth - 1), rng.int(1, 3)),
        _ => {
            let func = if rng.chance() { "mean" } else { "max" };
            format!("agg_time({}, \"{func}\", {})", gen_query(rng, depth - 1), rng.int(2, 4))
        }
    }
}

/// Two sector-id sources and one measurement-time source, `SECTORS`
/// sectors each.
fn fuzz_catalog() -> Catalog {
    let mut cat = Catalog::new();
    for (name, seed) in [("g1", 1u64), ("g2", 2), ("m1", 3)] {
        let measurement = name.starts_with('m');
        let mut schema = StreamSchema::new(name, Crs::LatLon);
        schema.sector_lattice = Some(lattice());
        schema.value_range = (0.0, 10.0);
        if measurement {
            schema.time_semantics = TimeSemantics::MeasurementTime;
        }
        cat.register(schema, move || match measurement {
            true => Box::new(measured(seed)),
            false => Box::new(sectors(seed)),
        });
    }
    cat
}

/// The optimizer never changes query answers (the paper's rewrites are
/// equivalences), over several sectors and both time semantics: each
/// cell's points in stream order, point for point.
#[test]
fn optimizer_preserves_semantics() {
    for case in 0..256u64 {
        let mut rng = Rng::new(6000 + case);
        let q = gen_query(&mut rng, 3);
        let cat = fuzz_catalog();
        let planner = Planner::new(&cat);
        let expr = parse_query(&q).unwrap();
        let optimized = optimize(&expr, &cat);
        let mut base = planner.build(&Plan::analyze(expr.clone(), &cat)).unwrap();
        let mut opt = planner.build(&optimized).unwrap();
        let mut a = base.drain_points();
        let mut b = opt.drain_points();
        a.sort_by_key(|p| (p.cell.row, p.cell.col));
        b.sort_by_key(|p| (p.cell.row, p.cell.col));
        assert_eq!(a.len(), b.len(), "seed {}: {expr} vs {optimized}", 6000 + case);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cell, y.cell, "seed {}: {expr} vs {optimized}", 6000 + case);
            assert!(
                (x.value - y.value).abs() < 1e-4,
                "seed {}: {expr} vs {optimized}: {:?} {} != {}",
                6000 + case,
                x.cell,
                x.value,
                y.value
            );
        }
    }
}

/// Optimized and unoptimized runs of `q` over the fuzz catalog deliver
/// the same points, each cell's in stream order.
fn assert_optimizer_exact(q: &str, label: &str) {
    let cat = fuzz_catalog();
    let planner = Planner::new(&cat);
    let expr = parse_query(q).unwrap();
    let optimized = optimize(&expr, &cat);
    let run = |plan: &Plan| {
        let mut pts = planner.build(plan).unwrap().drain_points();
        pts.sort_by_key(|p| (p.cell.row, p.cell.col));
        pts
    };
    let (a, b) = (run(&Plan::analyze(expr.clone(), &cat)), run(&optimized));
    assert_eq!(a.len(), b.len(), "{label}: {expr} vs {optimized}");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cell, y.cell, "{label}: {expr} vs {optimized}");
        assert!(
            (x.value - y.value).abs() < 1e-4,
            "{label}: {expr} vs {optimized}: {:?} {} != {}",
            x.cell,
            x.value,
            y.value
        );
    }
}

/// Every operator a time restriction may cross, over a sector-id and a
/// measurement-time source, under time sets on both scales.
#[test]
fn time_pushdown_is_exact_per_operator() {
    let shapes = [
        "stretch({g}, \"linear\", \"frame\")",
        "stretch({g}, \"linear\", \"image\")",
        "shed({g}, \"points\", 2)",
        "shed({g}, \"rows\", 2)",
        "delay({g}, 1)",
        "agg_time({g}, \"mean\", 2)",
        "focal({g}, \"mean\", 3)",
        "reproject({g}, \"utm:31N\")",
        "magnify({g}, 2)",
        "downsample({g}, 2)",
        "orient({g}, \"rot90\")",
        "agg_space({g}, \"mean\", bbox(2, 2, 8, 8))",
    ];
    for g in ["g1", "m1"] {
        for shape in shapes {
            for times in ["instants(1)", "interval(1, 3)", "instants(10, 14)", "interval(5, 25)"] {
                let q = format!("restrict_time({}, {times})", shape.replace("{g}", g));
                assert_optimizer_exact(&q, "table");
            }
        }
    }
}

/// Parse/display round-trips on random generated queries.
#[test]
fn parser_display_round_trip() {
    for case in 0..48u64 {
        let mut rng = Rng::new(7000 + case);
        let q = gen_query(&mut rng, 3);
        let e1 = parse_query(&q).unwrap();
        let rendered = e1.to_string();
        let e2 = parse_query(&rendered).unwrap();
        assert_eq!(e1, e2);
    }
}
