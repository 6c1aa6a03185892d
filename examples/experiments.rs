//! The consolidated experiment suite: regenerates every figure/claim
//! table recorded in EXPERIMENTS.md.
//!
//! The paper (EDBT 2006) has no numeric evaluation tables; its
//! evaluation content is a set of per-operator cost and buffering
//! claims plus three structural figures. Each experiment below tests one
//! of them; DESIGN.md §4 maps experiment ids to paper sections.
//!
//! Run with `cargo run --release --example experiments`
//! (append `-- --quick` for a faster, smaller pass).

use geostreams_core::exec::{run_to_end, RunReport};
use geostreams_core::model::{split2, Element, GeoStream, StreamSchema, TimeSemantics, VecStream};
use geostreams_core::ops::{
    AggFunc, Compose, Downsample, FocalFunc, FocalTransform, GammaOp, Magnify, MapTransform,
    Orient, Orientation, Reproject, ReprojectConfig, SpatialRestrict, StretchMode, StretchScope,
    StretchTransform, TemporalAggregate, ValueFunc,
};
use geostreams_core::query::cascade::{CascadeTree, NaiveRegionIndex, RegionIndex};
use geostreams_core::query::{optimize, parse_query, Plan, Planner};
use geostreams_core::stats::OpReport;
use geostreams_dsms::{Dsms, OutputFormat};
use geostreams_geo::{Crs, LatticeGeoref, Rect, Region};
use geostreams_raster::png::{self, Filter, PngOptions, Strategy};
use geostreams_raster::resample::Kernel;
use geostreams_raster::Grid2D;
use geostreams_satsim::{airborne::airborne_camera, goes_like, lidar::lidar_profiler, Scanner};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 1 } else { 2 };

    println!("# GeoStreams experiment suite");
    println!("(scale factor {scale}; see DESIGN.md section 4 for the experiment index)\n");

    f1_point_organizations(scale);
    e1_restrictions(scale);
    e2_value_transforms(scale);
    f2_spatial_transforms(scale);
    e3_composition(scale);
    e4_rewriting(scale);
    e5_cascade_tree(scale);
    e6_aggregates(scale);
    f3_dsms_pipeline(scale);
    x1_extension_operators(scale);
    a1_resample_kernels(scale);
    a2_compose_paths(scale);
    a3_png_encoders(scale);
}

// ---------------------------------------------------------------------
// helpers

/// A plain lat/lon test lattice (keeps operator cost measurements free
/// of projection math in the source).
fn latlon_lattice(w: u32, h: u32) -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 32.0, -114.0, 42.0), w, h)
}

/// Materialized row-by-row stream elements (replayable cheaply).
fn ramp_elements(w: u32, h: u32, sectors: u64) -> (StreamSchema, Vec<Element<f32>>) {
    let mut s: VecStream<f32> =
        VecStream::sectors("ramp", latlon_lattice(w, h), sectors, |q, c, r| {
            f64::from(c) * 0.001 + f64::from(r) * 0.01 + q as f64 * 0.1
        })
        .with_value_range(0.0, 10.0);
    let schema = s.schema().clone();
    let elements = s.drain_elements();
    (schema, elements)
}

fn replay(schema: &StreamSchema, elements: &[Element<f32>]) -> VecStream<f32> {
    VecStream::new(schema.clone(), elements.to_vec())
}

fn time_run<S: GeoStream>(mut stream: S) -> (Duration, RunReport, Vec<OpReport>) {
    let start = Instant::now();
    let report = run_to_end(&mut stream);
    let wall = start.elapsed();
    let mut ops = Vec::new();
    stream.collect_stats(&mut ops);
    (wall, report, ops)
}

fn max_peak(ops: &[OpReport]) -> u64 {
    ops.iter().map(|o| o.stats.buffered_points_peak).max().unwrap_or(0)
}

fn ns_per_point(wall: Duration, points: u64) -> f64 {
    if points == 0 {
        f64::NAN
    } else {
        wall.as_nanos() as f64 / points as f64
    }
}

// ---------------------------------------------------------------------

/// F1 (Fig. 1): the three point organizations and their spatial
/// proximity structure.
fn f1_point_organizations(scale: u32) {
    println!("## F1 — point organizations (Fig. 1)");
    println!("| instrument | organization | frames/sector | pts/frame | consec. Δcell ≤ 1 | time-ordered |");
    println!("|---|---|---|---|---|---|");
    let n = 64 * scale;
    let cases: Vec<(&str, Scanner)> = vec![
        ("airborne camera", airborne_camera(Rect::new(-122.0, 37.0, -121.5, 37.4), n, n, 3)),
        ("GOES-like imager", goes_like(n, n / 2, 3)),
        ("LIDAR profiler", lidar_profiler(Rect::new(-120.0, 38.0, -119.0, 38.1), n * 2, 2, 3)),
    ];
    for (name, scanner) in cases {
        let mut stream = scanner.band_stream(0, 2);
        let mut frames = 0u64;
        let mut points = 0u64;
        let mut close = 0u64;
        let mut total_pairs = 0u64;
        let mut last_cell: Option<geostreams_geo::Cell> = None;
        let mut timestamps = Vec::new();
        let mut sectors = 0u64;
        while let Some(el) = stream.next_element() {
            match el {
                Element::SectorStart(_) => {
                    sectors += 1;
                    last_cell = None;
                }
                Element::FrameStart(fi) => {
                    frames += 1;
                    timestamps.push(fi.timestamp.value());
                    last_cell = None; // proximity measured within frames
                }
                Element::Point(p) => {
                    points += 1;
                    if let Some(prev) = last_cell {
                        total_pairs += 1;
                        if prev.chebyshev(p.cell) <= 1 {
                            close += 1;
                        }
                    }
                    last_cell = Some(p.cell);
                }
                _ => {}
            }
        }
        let monotone = timestamps.windows(2).all(|w| w[1] >= w[0]);
        println!(
            "| {} | {} | {} | {} | {:.1}% | {} |",
            name,
            scanner.instrument.organization,
            frames / sectors.max(1),
            points / frames.max(1),
            100.0 * close as f64 / total_pairs.max(1) as f64,
            monotone
        );
    }
    println!();
}

/// E1 (§3.1): restrictions are non-blocking with constant per-point cost.
fn e1_restrictions(scale: u32) {
    println!("## E1 — restriction operators (§3.1 claims)");
    println!(
        "| stream points | ns/point (25% bbox) | ns/point (100%) | ns/point (1%) | peak buffer |"
    );
    println!("|---|---|---|---|---|");
    for mult in [1u32, 2, 4, 8] {
        let w = 128 * scale * mult;
        let h = 128 * scale;
        let (schema, elements) = ramp_elements(w, h, 1);
        let world = latlon_lattice(w, h).world_bbox();
        let mut row = Vec::new();
        let mut peak = 0;
        for frac in [0.5f64, 1.0, 0.1] {
            // Selectivity frac² of the area.
            let region = Region::Rect(Rect::new(
                world.x_min,
                world.y_min,
                world.x_min + world.width() * frac,
                world.y_min + world.height() * frac,
            ));
            let op = SpatialRestrict::new(replay(&schema, &elements), region);
            let (wall, report, ops) = time_run(op);
            let touched = report.per_op.last().map(|o| o.stats.points_in).unwrap_or(0);
            row.push(ns_per_point(wall, touched));
            peak = peak.max(max_peak(&ops[1..]));
        }
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {} |",
            (w as u64) * (h as u64),
            row[0],
            row[1],
            row[2],
            peak
        );
    }
    println!();
}

/// E2 (§3.2): point-wise value transforms vs frame/image stretches.
fn e2_value_transforms(scale: u32) {
    println!("## E2 — value transforms (§3.2 claims)");
    println!("| frame (pts) | map ns/pt | stretch[frame] ns/pt | stretch[image] ns/pt | image buffer (pts) | frame buffer (pts) |");
    println!("|---|---|---|---|---|---|");
    for mult in [1u32, 2, 4] {
        let w = 128 * scale * mult;
        let h = 64 * scale * mult;
        let (schema, elements) = ramp_elements(w, h, 1);
        let points = (w as u64) * (h as u64);

        let map: MapTransform<_, f32> = MapTransform::new(
            replay(&schema, &elements),
            ValueFunc::Linear { scale: 0.5, offset: 1.0 },
        );
        let (t_map, _, _) = time_run(map);

        let sf = StretchTransform::new(
            replay(&schema, &elements),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Frame,
        );
        let (t_frame, _, ops_frame) = time_run(sf);

        let si = StretchTransform::new(
            replay(&schema, &elements),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Image,
        );
        let (t_image, _, ops_image) = time_run(si);

        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {} | {} |",
            points,
            ns_per_point(t_map, points),
            ns_per_point(t_frame, points),
            ns_per_point(t_image, points),
            max_peak(&ops_image),
            max_peak(&ops_frame),
        );
    }
    let paper = 20_840u64 * 10_820;
    println!(
        "\nExtrapolation: a full GOES visible sector is {paper} points; an image-scoped \
         stretch must buffer all of them ({} MB at 1 B/pt — the paper's ≈280 MB figure; \
         {} MB at our f32 pixels).\n",
        paper / 1_000_000,
        paper * 4 / 1_000_000
    );
}

/// F2 (Fig. 2 / §3.2): spatial transforms and their buffering.
fn f2_spatial_transforms(scale: u32) {
    println!("## F2 — spatial transforms (Fig. 2, §3.2 claims)");
    let w = 192 * scale;
    let h = 96 * scale;
    let (schema, elements) = ramp_elements(w, h, 1);
    println!("| operator | points out | peak buffer (pts) | expectation |");
    println!("|---|---|---|---|");

    let (_, rep, ops) = time_run(Magnify::new(replay(&schema, &elements), 3));
    println!(
        "| magnify x3 | {} | {} | 0 (no neighbors needed) |",
        rep.points_delivered,
        max_peak(&ops)
    );

    for k in [2u32, 4, 8] {
        let (_, rep, ops) = time_run(Downsample::new(replay(&schema, &elements), k));
        println!(
            "| downsample 1/{k} | {} | {} | ≈ (k−1)·width = {} |",
            rep.points_delivered,
            max_peak(&ops),
            (k - 1) * w
        );
    }

    // Re-projection on a GOES-like geostationary sector.
    let scanner = goes_like(w, h, 5);
    let stream = scanner.band_stream(0, 1);
    let op = Reproject::new(stream, ReprojectConfig::new(Crs::LatLon)).expect("reproject");
    let (_, rep, ops) = time_run(op);
    let streaming_peak = max_peak(&ops);
    println!(
        "| reproject geos→latlon (sector metadata) | {} | {} | narrow row band |",
        rep.points_delivered, streaming_peak
    );
    let stream = scanner.band_stream(0, 1);
    let op =
        Reproject::new(stream, ReprojectConfig::new(Crs::LatLon).blocking()).expect("reproject");
    let (_, rep, ops) = time_run(op);
    println!(
        "| reproject geos→latlon (blocking) | {} | {} | whole sector = {} |",
        rep.points_delivered,
        max_peak(&ops),
        (w as u64) * (h as u64)
    );
    println!();
}

/// E3 (§3.3): composition buffering vs organization; timestamp semantics.
fn e3_composition(scale: u32) {
    println!("## E3 — stream composition (§3.3 claims)");
    println!("| transmission | image (pts) | subsystem peak buffer (pts) | buffer / image |");
    println!("|---|---|---|---|");
    let w = 96 * scale;
    let h = 96 * scale;
    let image = (w as u64) * (h as u64);
    let (schema_a, a) = ramp_elements(w, h, 2);
    let (schema_b, b) = ramp_elements(w, h, 2);

    // Row-interleaved (row-by-row downlink).
    let transport = interleave_rows(&a, &b);
    let (s0, s1) = split2(transport.into_iter(), schema_a.renamed("a"), schema_b.renamed("b"));
    let op = Compose::new(s0, s1, GammaOp::Add).expect("compose");
    let (_, rep, ops) = time_run(op);
    assert_eq!(rep.points_delivered, image * 2);
    println!(
        "| row-by-row (line-interleaved) | {image} | {} | {:.3} |",
        max_peak(&ops),
        max_peak(&ops) as f64 / image as f64
    );

    // Band-sequential (image-by-image downlink): per sector, all of a
    // then all of b.
    let transport = band_sequential(&a, &b);
    let (s0, s1) = split2(transport.into_iter(), schema_a.renamed("a"), schema_b.renamed("b"));
    let op = Compose::new(s0, s1, GammaOp::Add).expect("compose");
    let (_, rep, ops) = time_run(op);
    assert_eq!(rep.points_delivered, image * 2);
    println!(
        "| image-by-image (band-sequential) | {image} | {} | {:.3} |",
        max_peak(&ops),
        max_peak(&ops) as f64 / image as f64
    );

    // Timestamp semantics: measurement-time streams never match.
    let mis_a = with_measurement_time(&schema_a, &a, 0);
    let mis_b = with_measurement_time(&schema_b, &b, 1);
    let op = Compose::new(mis_a, mis_b, GammaOp::Add).expect("compose");
    let (_, rep, _) = time_run(op);
    println!(
        "\nTimestamp semantics: sector-id join output = {} points; measurement-time join \
         output = {} points (the paper: 'a stream composition operator would never produce \
         new image data').\n",
        image * 2,
        rep.points_delivered
    );
}

fn interleave_rows(a: &[Element<f32>], b: &[Element<f32>]) -> Vec<(u8, Element<f32>)> {
    let groups = |els: &[Element<f32>]| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let boundary = matches!(el, Element::FrameEnd(_));
            out.last_mut().expect("nonempty").push(el.clone());
            if boundary {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    let (ga, gb) = (groups(a), groups(b));
    let mut out = Vec::new();
    for (x, y) in ga.into_iter().zip(gb) {
        out.extend(x.into_iter().map(|e| (0u8, e)));
        out.extend(y.into_iter().map(|e| (1u8, e)));
    }
    out
}

fn band_sequential(a: &[Element<f32>], b: &[Element<f32>]) -> Vec<(u8, Element<f32>)> {
    // Split per sector.
    let sectors = |els: &[Element<f32>]| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let boundary = matches!(el, Element::SectorEnd(_));
            out.last_mut().expect("nonempty").push(el.clone());
            if boundary {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    let (sa, sb) = (sectors(a), sectors(b));
    let mut out = Vec::new();
    for (x, y) in sa.into_iter().zip(sb) {
        out.extend(x.into_iter().map(|e| (0u8, e)));
        out.extend(y.into_iter().map(|e| (1u8, e)));
    }
    out
}

fn with_measurement_time(
    schema: &StreamSchema,
    elements: &[Element<f32>],
    offset: i64,
) -> VecStream<f32> {
    let mut schema = schema.clone();
    schema.time_semantics = TimeSemantics::MeasurementTime;
    let els: Vec<Element<f32>> = elements
        .iter()
        .cloned()
        .map(|el| match el {
            Element::FrameStart(mut fi) => {
                fi.timestamp =
                    geostreams_core::model::Timestamp::new(fi.frame_id as i64 * 2 + offset);
                Element::FrameStart(fi)
            }
            other => other,
        })
        .collect();
    VecStream::new(schema, els)
}

/// E4 (§3.4): restriction pushdown gains vs region selectivity.
fn e4_rewriting(scale: u32) {
    println!("## E4 — query rewriting (§3.4 claims)");
    let scanner = goes_like(128 * scale, 64 * scale, 42);
    let server = Dsms::over_scanner(&scanner, 1);
    let catalog = server.catalog();
    let planner = Planner::new(catalog);
    println!("| region (% of UTM window) | naive points touched | optimized | ratio | bound ratio | naive wall | optimized wall |");
    println!("|---|---|---|---|---|---|---|");
    // Sweep the region size; coordinates in UTM 14N.
    let center = (450_000.0, 4_300_000.0);
    for frac in [1.0f64, 0.5, 0.25, 0.1] {
        let half_w = 1_200_000.0 * frac / 2.0;
        let half_h = 900_000.0 * frac / 2.0;
        let q = format!(
            "restrict_space(
               reproject(normalize(div(sub(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)),
                                       add(downsample(goes-sim.b1-vis, 4), goes-sim.b2-nir)),
                                   -1, 1),
                         \"utm:14N\"),
               bbox({}, {}, {}, {}), \"utm:14N\")",
            center.0 - half_w,
            center.1 - half_h,
            center.0 + half_w,
            center.1 + half_h
        );
        let naive = Plan::analyze(parse_query(&q).expect("parses"), catalog);
        let optimized = optimize(&naive, catalog);
        // The analyzer's bound on points touched: Σ per-op points/sector.
        let bound =
            |p: &Plan| -> u64 { p.report().per_op.iter().map(|op| op.points_per_sector).sum() };
        let (bound_naive, bound_opt) = (bound(&naive), bound(&optimized));

        let mut naive_pipe = planner.build(&naive).expect("plan");
        let t0 = Instant::now();
        let naive_rep = run_to_end(&mut naive_pipe);
        let naive_wall = t0.elapsed();

        let mut opt_pipe = planner.build(&optimized).expect("plan");
        let t0 = Instant::now();
        let opt_rep = run_to_end(&mut opt_pipe);
        let opt_wall = t0.elapsed();

        assert_eq!(naive_rep.points_delivered, opt_rep.points_delivered, "same answer");
        println!(
            "| {:.0}% | {} | {} | {:.2}x | {:.2}x | {:.0?} | {:.0?} |",
            frac * 100.0,
            naive_rep.total_points_processed(),
            opt_rep.total_points_processed(),
            naive_rep.total_points_processed() as f64
                / opt_rep.total_points_processed().max(1) as f64,
            bound_naive as f64 / bound_opt.max(1) as f64,
            naive_wall,
            opt_wall
        );
    }
    println!();
}

/// E5 (§4 / [10]): cascade tree vs naive multi-query routing.
fn e5_cascade_tree(scale: u32) {
    println!("## E5 — multi-query spatial index (§4, dynamic cascade tree)");
    let lattice = latlon_lattice(128 * scale, 128 * scale);
    let world = lattice.world_bbox();
    // Pre-compute the world coordinates of one sector's points.
    let mut points = Vec::new();
    for row in 0..lattice.height {
        for col in 0..lattice.width {
            points.push(lattice.cell_to_world(geostreams_geo::Cell::new(col, row)));
        }
    }
    println!("| registered queries | naive ns/pt | cascade ns/pt | speedup | avg hits/pt |");
    println!("|---|---|---|---|---|");
    let mut rng = 0xDEADBEEFu64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 33) as f64) / (1u64 << 31) as f64
    };
    for n in [1usize, 4, 16, 64, 256, 1024] {
        let regions: Vec<Rect> = (0..n)
            .map(|_| {
                let w = world.width() * (0.01 + 0.1 * next());
                let h = world.height() * (0.01 + 0.1 * next());
                let x = world.x_min + next() * (world.width() - w);
                let y = world.y_min + next() * (world.height() - h);
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let route = |index: &mut dyn RegionIndex| -> (Duration, u64) {
            for (i, r) in regions.iter().enumerate() {
                index.insert(i as u32, *r);
            }
            let mut hits = Vec::with_capacity(16);
            let mut deliveries = 0u64;
            let start = Instant::now();
            for p in &points {
                hits.clear();
                index.query_point(*p, &mut hits);
                deliveries += hits.len() as u64;
            }
            (start.elapsed(), deliveries)
        };
        let (t_naive, d_naive) = route(&mut NaiveRegionIndex::new());
        let (t_casc, d_casc) = route(&mut CascadeTree::new(world, 10));
        assert_eq!(d_naive, d_casc, "identical routing results");
        println!(
            "| {} | {:.1} | {:.1} | {:.2}x | {:.2} |",
            n,
            ns_per_point(t_naive, points.len() as u64),
            ns_per_point(t_casc, points.len() as u64),
            t_naive.as_secs_f64() / t_casc.as_secs_f64(),
            d_naive as f64 / points.len() as f64
        );
    }
    println!();
}

/// E6 (§6 / [27]): spatio-temporal aggregates.
fn e6_aggregates(scale: u32) {
    println!("## E6 — spatio-temporal aggregates (§6 extension)");
    println!("| window (images) | ns/pt | peak buffer (pts) | expectation W·image |");
    println!("|---|---|---|---|");
    let w = 64 * scale;
    let h = 64 * scale;
    let image = (w as u64) * (h as u64);
    let (schema, elements) = ramp_elements(w, h, 40);
    for window in [2usize, 4, 8, 16, 32] {
        let op = TemporalAggregate::new(replay(&schema, &elements), AggFunc::Mean, window);
        let (wall, rep, ops) = time_run(op);
        println!(
            "| {} | {:.1} | {} | {} |",
            window,
            ns_per_point(wall, rep.points_delivered),
            max_peak(&ops),
            window as u64 * image
        );
    }
    println!();
}

/// F3 (Fig. 3): the end-to-end DSMS pipeline.
fn f3_dsms_pipeline(scale: u32) {
    println!("## F3 — end-to-end DSMS (Fig. 3)");
    let scanner = goes_like(128 * scale, 64 * scale, 9);
    let server = Arc::new(Dsms::over_scanner(&scanner, 2));
    let queries = [
        (
            "client 1: visible ROI",
            "restrict_space(goes-sim.b1-vis, bbox(-105, 30, -95, 40), \"latlon\")",
            OutputFormat::PngGray,
        ),
        (
            "client 2: NDVI",
            "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))",
            OutputFormat::PngNdvi,
        ),
        ("client 3: thermal", "stretch(goes-sim.b4-ir, \"linear\")", OutputFormat::PngThermal),
        (
            "client 4: WV stats",
            "agg_space(goes-sim.b3-wv, \"mean\", bbox(-8000000, -8000000, 8000000, 8000000))",
            OutputFormat::Stats,
        ),
    ];
    for (_, q, fmt) in &queries {
        server.register_text(q, *fmt, 2).expect("registers");
    }
    let start = Instant::now();
    let results = server.run_all_parallel();
    let wall = start.elapsed();
    println!("| client | frames | points | status |");
    println!("|---|---|---|---|");
    for ((name, _, _), result) in queries.iter().zip(&results) {
        match result {
            Ok(r) => println!("| {} | {} | {} | ok |", name, r.frames.len(), r.points),
            Err(e) => println!("| {} | - | - | error: {} |", name, e),
        }
    }
    println!(
        "\n4 concurrent continuous queries over 2 scan sectors: wall {:?}; metrics: {}\n",
        wall,
        server.metrics.summary()
    );
}

/// X1: extension operators beyond the paper's core set — neighborhood
/// (focal) operations (motivated in §1) and exact orientations (§3.2
/// names rotation among the spatial transforms).
fn x1_extension_operators(scale: u32) {
    println!("## X1 — extension operators (focal neighborhoods, orientations)");
    let w = 192 * scale;
    let h = 96 * scale;
    let (schema, elements) = ramp_elements(w, h, 1);
    println!("| operator | ns/pt | peak buffer (pts) | expectation |");
    println!("|---|---|---|---|");
    for (name, k, func) in [
        ("focal mean 3x3", 3u32, FocalFunc::Mean),
        ("focal mean 7x7", 7, FocalFunc::Mean),
        ("focal median 3x3", 3, FocalFunc::Median),
        ("focal sobel 3x3", 3, FocalFunc::Sobel),
    ] {
        let op = FocalTransform::new(replay(&schema, &elements), func, k);
        let (wall, rep, ops) = time_run(op);
        println!(
            "| {} | {:.1} | {} | ≈ k·width = {} |",
            name,
            ns_per_point(wall, rep.points_delivered),
            max_peak(&ops),
            k * w
        );
    }
    for o in [Orientation::Rot90, Orientation::FlipH] {
        let op = Orient::new(replay(&schema, &elements), o);
        let (wall, rep, ops) = time_run(op);
        println!(
            "| orient {} | {:.1} | {} | 0 (exact per-point remap) |",
            o.name(),
            ns_per_point(wall, rep.points_delivered),
            max_peak(&ops),
        );
    }
    println!();
}

/// A1: re-projection kernel ablation.
fn a1_resample_kernels(scale: u32) {
    println!("## A1 — reprojection kernels (ablation)");
    // Value = longitude; after reprojection, compare against truth.
    let lattice = latlon_lattice(96 * scale, 96 * scale);
    let src_schema = StreamSchema::new("lonfield", Crs::LatLon);
    let mut base: VecStream<f32> = VecStream::single_sector("lonfield", lattice, 0, move |c, r| {
        lattice.cell_to_world(geostreams_geo::Cell::new(c, r)).x
    });
    let elements = base.drain_elements();
    println!("| kernel | wall | RMSE (deg lon) | points out |");
    println!("|---|---|---|---|");
    for kernel in [Kernel::Nearest, Kernel::Bilinear, Kernel::Bicubic] {
        let src = VecStream::new(src_schema.clone(), elements.clone());
        let op = Reproject::new(src, ReprojectConfig::new(Crs::utm(11, true)).kernel(kernel))
            .expect("reproject");
        let mut op = op;
        let start = Instant::now();
        let mut out_lattice = None;
        let mut pts = Vec::new();
        while let Some(el) = op.next_element() {
            match el {
                Element::SectorStart(si) => out_lattice = Some(si.lattice),
                Element::Point(p) => pts.push(p),
                _ => {}
            }
        }
        let wall = start.elapsed();
        let out = out_lattice.expect("sector");
        let utm = Crs::utm(11, true);
        let mut sq = 0.0;
        let mut n = 0u64;
        for p in &pts {
            let w = out.cell_to_world(p.cell);
            if let Ok(ll) = utm.inverse(w) {
                // Skip the border band.
                if ll.x < -123.8 || ll.x > -114.2 || ll.y < 32.2 || ll.y > 41.8 {
                    continue;
                }
                let d = f64::from(p.value) - ll.x;
                sq += d * d;
                n += 1;
            }
        }
        println!(
            "| {:?} | {:.0?} | {:.5} | {} |",
            kernel,
            wall,
            (sq / n.max(1) as f64).sqrt(),
            pts.len()
        );
    }
    println!();
}

/// A2: the two paths of one composition — zipped runs and the keyed
/// buffer.
fn a2_compose_paths(scale: u32) {
    println!("## A2 — composition: zipped runs and the keyed buffer (ablation)");
    let w = 128 * scale;
    let h = 128 * scale;
    let (schema, a) = ramp_elements(w, h, 2);
    let (_, b) = ramp_elements(w, h, 2);
    println!("| input | wall | operator peak (pts) | subsystem peak (pts) | points out |");
    println!("|---|---|---|---|---|");
    let row = |label: &str, (wall, rep, ops): (Duration, RunReport, Vec<OpReport>)| {
        // The composition reports last, after its inputs.
        let own = ops.last().map_or(0, |o| o.stats.buffered_points_peak);
        println!(
            "| {label} | {wall:.0?} | {own} | {} | {} |",
            max_peak(&ops),
            rep.points_delivered
        );
    };
    let band =
        |name: &str, els: &[Element<f32>]| VecStream::new(schema.renamed(name), els.to_vec());

    // Row-by-row bands on one lattice: every run is zipped.
    let op = Compose::new(band("a", &a), band("b", &b), GammaOp::Mul).expect("compose");
    row("row-by-row, aligned", time_run(op));

    // Band-sequential downlink: the split queue holds band a's image
    // until band b's arrives, then the runs zip.
    let transport = band_sequential(&a, &b);
    let (s0, s1) = split2(transport.into_iter(), schema.renamed("a"), schema.renamed("b"));
    let op = Compose::new(s0, s1, GammaOp::Mul).expect("compose");
    row("band-sequential", time_run(op));

    // Differently restricted bands: each row's cells outside the
    // overlap go through the keyed buffer.
    let restricted = |name: &str, els: &[Element<f32>], rect: Rect| {
        SpatialRestrict::new(band(name, els), Region::Rect(rect))
    };
    let op = Compose::new(
        restricted("a", &a, Rect::new(-123.0, 33.0, -116.0, 41.0)),
        restricted("b", &b, Rect::new(-122.0, 34.0, -115.0, 40.0)),
        GammaOp::Mul,
    )
    .expect("compose");
    row("differently restricted", time_run(op));
    println!();
}

/// A3: PNG delivery encoder configurations.
fn a3_png_encoders(scale: u32) {
    println!("## A3 — PNG delivery encoders (ablation)");
    // Render one GOES visible sector to an 8-bit image.
    let scanner = goes_like(256 * scale, 128 * scale, 13);
    let mut assembler = geostreams_core::ops::ImageAssembler::new(scanner.band_stream(0, 1));
    let img = assembler.next_image().expect("image");
    let gray: Grid2D<u8> = img.grid.map(|v| (v.clamp(0.0, 1.0) * 255.0) as u8);
    let raw = gray.len();
    println!("| filter | deflate | bytes | ratio | encode time |");
    println!("|---|---|---|---|---|");
    for filter in [Filter::None, Filter::Sub] {
        for strategy in [Strategy::Stored, Strategy::FixedHuffman] {
            let start = Instant::now();
            let bytes = png::encode_gray(&gray, PngOptions { filter, strategy });
            let wall = start.elapsed();
            // Every configuration must decode back to the same image.
            match png::decode(&bytes).expect("decodes") {
                png::Decoded::Gray(g) => assert_eq!(g, gray),
                _ => unreachable!(),
            }
            println!(
                "| {:?} | {:?} | {} | {:.2} | {:.0?} |",
                filter,
                strategy,
                bytes.len(),
                bytes.len() as f64 / raw as f64,
                wall
            );
        }
    }
    println!();
}
