//! Layer probes of the traced run: each layer's public functions called
//! alone, on inputs made from the workload's own scanner and queries.
//! Every traced run of every workload reports them, so a layer's rate
//! can be read beside any workload's trace.

use crate::harness::{LayerValues, ProbeInputs};
use crate::inputs::{materialize, Materialized};
use crate::stats::median;
use crate::trace::{span, Tracer};
use geostreams_core::model::{GeoStream, PointRecord, StreamRepair, DEFAULT_CHUNK_BUDGET};
use geostreams_core::query::{analyze, optimize, parse_query, Planner};
use geostreams_dsms::protocol::{ClientRequest, OutputFormat};
use geostreams_dsms::Dsms;
use geostreams_geo::{Cell, Coord};
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::{self, PngOptions};
use geostreams_raster::{Grid2D, Rgb8};
use geostreams_satsim::Scanner;
use geostreams_store::codec::{decode_stripe, encode_stripe};
use geostreams_store::Codec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each probe repeats until this much time has passed (at least twice).
const PROBE_TIME: Duration = Duration::from_millis(200);

/// Median seconds of `pass`, repeated for [`PROBE_TIME`].
fn timed(mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 2 || started.elapsed() < PROBE_TIME {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Drains a stream chunk by chunk, returning its points.
pub fn drain<S: GeoStream>(stream: &mut S) -> u64 {
    let mut points = 0u64;
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        points += item.point_count() as u64;
        item.recycle();
    }
    points
}

/// Points per second of `Scanner::band_stream` drained alone.
fn scan_rate(scanner: &Scanner, band_idx: usize) -> f64 {
    let points = scanner.instrument.band_points_per_sector(band_idx) as f64;
    points
        / timed(|| {
            black_box(drain(&mut scanner.band_stream(band_idx, 1)));
        })
}

fn repair(sector: &Materialized, out: &mut LayerValues) {
    let bare = timed(|| {
        black_box(drain(&mut sector.source()));
    });
    let repaired = timed(|| {
        black_box(drain(&mut StreamRepair::new(sector.source())));
    });
    out.insert("model.repair_pts_per_s", sector.points as f64 / repaired);
    out.insert("model.repair_overhead_pct", (repaired / bare - 1.0) * 100.0);
}

/// Copy and streaming-sum rates over point records, the bytes every
/// kernel reads: the ceiling the O(1) restrictions are read against.
fn roofline(sector: &Materialized, out: &mut LayerValues) {
    // Well past the last-level cache, so the rates are memory rates.
    const POINTS: usize = 4 << 20;
    let sector_points: Vec<PointRecord<f32>> = sector.points().copied().collect();
    let src: Vec<PointRecord<f32>> = sector_points.iter().copied().cycle().take(POINTS).collect();
    let mut dst = vec![PointRecord { cell: Cell::new(0, 0), value: 0.0f32 }; POINTS];
    let copy = timed(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    let sum = timed(|| {
        black_box(black_box(&src).iter().map(|p| f64::from(p.value)).sum::<f64>());
    });
    let bytes = (POINTS * std::mem::size_of::<PointRecord<f32>>()) as f64;
    out.insert("roofline.memcpy_gb_per_s", bytes / copy / 1e9);
    out.insert("roofline.stream_sum_pts_per_s", POINTS as f64 / sum);
}

/// Median microseconds of each planning step over the query mix, by
/// direct calls, and of `Dsms::register` on a server that has not seen
/// the query.
fn query_steps(
    inputs: &ProbeInputs,
    tracer: Option<&Tracer>,
    out: &mut LayerValues,
) -> Result<(), String> {
    const REPS: usize = 5;
    let mut parse = Vec::new();
    let mut opt = Vec::new();
    let mut ana = Vec::new();
    let mut build = Vec::new();
    let mut register = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..REPS {
        let dsms = Dsms::over_scanner(&inputs.scanner, 1);
        let catalog = dsms.catalog();
        let planner = Planner::new(catalog);
        for text in &inputs.queries {
            let err = |e| format!("probe query `{text}`: {e}");
            let t = Instant::now();
            let expr = {
                let _s = span(tracer, "query.parse");
                parse_query(text).map_err(err)?
            };
            parse.push(us(t));
            let t = Instant::now();
            let optimized = {
                let _s = span(tracer, "query.optimize");
                optimize(&expr, catalog)
            };
            opt.push(us(t));
            let t = Instant::now();
            {
                let _s = span(tracer, "query.analyze");
                black_box(analyze(&optimized, catalog));
            }
            ana.push(us(t));
            let t = Instant::now();
            {
                let _s = span(tracer, "query.build");
                black_box(planner.build(&optimized).map_err(err)?.schema());
            }
            build.push(us(t));
            let request =
                ClientRequest { query: text.clone(), format: OutputFormat::Stats, sectors: 1 };
            let t = Instant::now();
            {
                let _s = span(tracer, "dsms.register");
                dsms.register(&request).map_err(err)?;
            }
            register.push(us(t));
        }
    }
    out.insert("query.parse_us", median(&parse));
    out.insert("query.optimize_us", median(&opt));
    out.insert("query.analyze_us", median(&ana));
    out.insert("query.build_us", median(&build));
    out.insert("dsms.register_us", median(&register));
    Ok(())
}

/// The sector as a dense row-major value grid.
fn value_grid(sector: &Materialized, width: u32, height: u32) -> Grid2D<f32> {
    let mut grid = Grid2D::<f32>::new(width, height);
    for p in sector.points() {
        grid.set(p.cell.col, p.cell.row, p.value);
    }
    grid
}

/// `codec::encode_stripe` / `decode_stripe` called directly on the
/// sector's rows, chained down each 64-column stripe with a keyframe
/// every 16 rows, as the archive's defaults do.
fn codec(grid: &Grid2D<f32>, range: (f64, f64), out: &mut LayerValues) -> Result<(), String> {
    const STRIPE: usize = 64;
    const KEY_EVERY: u32 = 16;
    let codec = Codec::default();
    let rows: Vec<Vec<Option<f32>>> =
        (0..grid.height()).map(|r| grid.row(r).iter().map(|v| Some(*v)).collect()).collect();
    let stripes = (grid.width() as usize).div_ceil(STRIPE);
    let mut payloads: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut failed = None;
    let encode = timed(|| {
        payloads.clear();
        let mut prev: Vec<Option<Vec<u32>>> = vec![None; stripes];
        for (r, row) in rows.iter().enumerate() {
            let key = (r as u32).is_multiple_of(KEY_EVERY);
            let mut encoded_row = Vec::with_capacity(stripes);
            for (s, values) in row.chunks(STRIPE).enumerate() {
                match encode_stripe(codec, range, values, prev[s].as_deref(), key) {
                    Ok(e) => {
                        prev[s] = Some(e.lanes);
                        encoded_row.push(e.payload);
                    }
                    Err(e) => failed = Some(e.to_string()),
                }
            }
            payloads.push(encoded_row);
        }
    });
    let decode = timed(|| {
        let mut prev: Vec<Option<Vec<u32>>> = vec![None; stripes];
        for (r, encoded_row) in payloads.iter().enumerate() {
            let key = (r as u32).is_multiple_of(KEY_EVERY);
            for (s, payload) in encoded_row.iter().enumerate() {
                let cells = rows[r].chunks(STRIPE).nth(s).map_or(0, <[_]>::len);
                match decode_stripe(codec, payload, cells, prev[s].as_deref(), key) {
                    Ok(d) => prev[s] = Some(d.lanes),
                    Err(e) => failed = Some(e.to_string()),
                }
            }
        }
    });
    if let Some(e) = failed {
        return Err(format!("codec probe: {e}"));
    }
    let raw_mb = grid.len() as f64 * 4.0 / 1e6;
    out.insert("store.encode_stripe_mb_per_s", raw_mb / encode);
    out.insert("store.decode_stripe_mb_per_s", raw_mb / decode);
    Ok(())
}

/// PNG encoding rates on one rendered sector.
fn png_rates(gray: &Grid2D<u8>, rgb: &Grid2D<Rgb8>, out: &mut LayerValues) {
    let mut png_len = 0usize;
    let gray_s = timed(|| png_len = black_box(png::encode_gray(gray, PngOptions::default())).len());
    let rgb_s = timed(|| {
        black_box(png::encode_rgb(rgb, PngOptions::default()));
    });
    out.insert("raster.png_gray_mb_per_s", gray.len() as f64 / 1e6 / gray_s);
    out.insert("raster.png_rgb_mb_per_s", rgb.len() as f64 * 3.0 / 1e6 / rgb_s);
    out.insert("raster.png_bytes_per_pixel", png_len as f64 / gray.len().max(1) as f64);
}

fn projection(scanner: &Scanner, out: &mut LayerValues) -> Result<(), String> {
    const N: usize = 200_000;
    let lattice = scanner.instrument.band_lattice(0);
    let proj = lattice.crs.projection().map_err(|e| e.to_string())?;
    // The central half of the footprint: its corners may lie off the
    // Earth's disc, where the projection has no inverse.
    let (w, h) = (lattice.width / 2, lattice.height / 2);
    let xy: Vec<Coord> = (0..N)
        .map(|i| {
            let i = i as u32;
            lattice.cell_to_world(Cell::new(w / 2 + i % w, h / 2 + (i / w) % h))
        })
        .collect();
    let lonlat: Vec<Coord> =
        xy.iter().map(|c| proj.inverse(*c)).collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    let inverse = timed(|| {
        for c in &xy {
            let _ = black_box(proj.inverse(black_box(*c)));
        }
    });
    let forward = timed(|| {
        for c in &lonlat {
            let _ = black_box(proj.forward(black_box(*c)));
        }
    });
    out.insert("geo.forward_ns_per_pt", forward * 1e9 / N as f64);
    out.insert("geo.inverse_ns_per_pt", inverse * 1e9 / N as f64);
    Ok(())
}

pub fn run(inputs: &ProbeInputs, tracer: Option<&Arc<Tracer>>) -> Result<LayerValues, String> {
    let tracer = tracer.map(Arc::as_ref);
    let mut out = LayerValues::new();
    let scanner = &inputs.scanner;
    {
        let _s = span(tracer, "satsim.probe_scan");
        out.insert("satsim.scan_vis_pts_per_s", scan_rate(scanner, 0));
        out.insert("satsim.scan_ir_pts_per_s", scan_rate(scanner, 3));
    }
    let sector = materialize(scanner.band_stream(0, 1));
    let lattice = scanner.instrument.band_lattice(0);
    {
        let _s = span(tracer, "model.probe_repair");
        repair(&sector, &mut out);
    }
    roofline(&sector, &mut out);
    query_steps(inputs, tracer, &mut out)?;
    let grid = value_grid(&sector, lattice.width, lattice.height);
    let (lo, hi) = sector.schema.value_range;
    {
        let _s = span(tracer, "store.probe_codec");
        codec(&grid, (lo, hi), &mut out)?;
    }
    {
        let _s = span(tracer, "raster.probe_png");
        let unit = |v: f32| ((f64::from(v) - lo) / (hi - lo)).clamp(0.0, 1.0);
        let thermal = ColorMap::thermal();
        png_rates(
            &grid.map(|v| (unit(v) * 255.0) as u8),
            &grid.map(|v| thermal.map(unit(v))),
            &mut out,
        );
    }
    {
        let _s = span(tracer, "geo.probe_projection");
        projection(scanner, &mut out)?;
    }
    Ok(out)
}
