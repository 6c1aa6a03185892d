//! `geobench verify`: every workload's generator at 1/16 size (a
//! quarter per axis) against the slow oracle — the plan as written,
//! never optimized (`Planner::plan_text(q, false)`), pulled one element
//! at a time by `exec::run_with`, one query at a time — comparing point
//! counts and FNV-1a digests of delivered values and PNG bytes.

use crate::harness::TmpDir;
use crate::inputs::{materialize, Fnv};
use crate::workloads::ops_kernels::{self, catalog_of, oracle, plan, run_chunked};
use crate::workloads::streams::{create_archive, QuerySpec};
use crate::workloads::{archive_rw, live_mixed, oneshot_http, swarm_shared};
use geostreams_core::model::{ChunkOrMarker, Element, GeoStream, DEFAULT_CHUNK_BUDGET};
use geostreams_core::ops::delivery::{PngSink, Rendering};
use geostreams_core::query::{Catalog, Planner};
use geostreams_dsms::protocol::OutputFormat;
use geostreams_dsms::{run_supervised, Dsms, HttpServer, RuntimeConfig};
use geostreams_raster::colormap::ColorMap;
use geostreams_raster::png::PngOptions;
use geostreams_satsim::{goes_like, Scanner};
use std::path::Path;
use std::sync::Arc;

/// Each axis of every workload's feed is divided by this.
const SHRINK: u32 = 4;

/// What a delivery format means, stated again here: gray and thermal
/// span the stream's value range, the NDVI ramp spans [-1, 1]. The
/// one-shot path renders so; `run_supervised` renders every image
/// format in gray (`ramps == false`), and the oracle follows each.
fn rendering(format: OutputFormat, range: (f64, f64), ramps: bool) -> Rendering {
    match format {
        _ if !ramps => Rendering::Gray { lo: range.0, hi: range.1 },
        OutputFormat::PngNdvi => Rendering::Mapped { lo: -1.0, hi: 1.0, map: ColorMap::ndvi() },
        OutputFormat::PngThermal => {
            Rendering::Mapped { lo: range.0, hi: range.1, map: ColorMap::thermal() }
        }
        _ => Rendering::Gray { lo: range.0, hi: range.1 },
    }
}

/// A catalog whose sources are `sectors` sectors of the scanner's
/// bands, scanned afresh for every query.
fn scanner_catalog(scanner: &Scanner, first_sector: u64, sectors: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for band in 0..scanner.instrument.bands.len() {
        let schema = scanner.band_stream(band, 1).schema().clone();
        let scanner = scanner.clone();
        catalog.register(schema, move || {
            Box::new(scanner.band_stream_from(band, first_sector, sectors))
        });
    }
    catalog
}

/// The oracle's answer to one query: points delivered and, for an
/// image format, the digest of every frame's PNG bytes.
fn oracle_answer(
    catalog: &Catalog,
    text: &str,
    format: OutputFormat,
    ramps: bool,
) -> Result<(u64, Vec<Fnv>), String> {
    if matches!(format, OutputFormat::Stats | OutputFormat::Json) {
        return Ok((oracle(catalog, text)?.0, Vec::new()));
    }
    let pipeline =
        Planner::new(catalog).plan_text(text, false).map_err(|e| format!("`{text}`: {e}"))?;
    let range = pipeline.schema().value_range;
    let mut sink =
        PngSink::new(pipeline, Some(rendering(format, range, ramps)), PngOptions::default());
    let mut frames = Vec::new();
    while let Some(frame) = sink.next_frame() {
        frames.push(Fnv::of(&frame.png));
    }
    Ok((frames.len() as u64, frames))
}

/// Runs the subscribers through `run_supervised` and holds every result
/// against the oracle's.
fn supervised_against_oracle(
    what: &str,
    scanner: &Scanner,
    sectors: u64,
    specs: &[QuerySpec],
    config: &RuntimeConfig,
    failures: &mut Vec<String>,
) -> u64 {
    let requests: Vec<_> = specs.iter().map(|s| s.request.clone()).collect();
    let (results, stats) = match run_supervised(scanner, sectors, &requests, config) {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("{what}: run_supervised: {e}"));
            return 0;
        }
    };
    if stats.restarts != 0 || stats.shed_elements != 0 {
        failures.push(format!("{what}: {} restarts, {} shed", stats.restarts, stats.shed_elements));
    }
    let catalog = scanner_catalog(scanner, 0, sectors);
    let mut answers: Vec<(String, (u64, Vec<Fnv>))> = Vec::new();
    for (spec, result) in specs.iter().zip(&results) {
        let text = &spec.request.query;
        if !answers.iter().any(|(t, _)| t == text) {
            match oracle_answer(&catalog, text, spec.request.format, false) {
                Ok(a) => answers.push((text.clone(), a)),
                Err(e) => {
                    failures.push(format!("{what}: oracle: {e}"));
                    continue;
                }
            }
        }
        let Some((_, (points, frames))) = answers.iter().find(|(t, _)| t == text) else { continue };
        match result {
            Err(e) => failures.push(format!("{what}: `{text}`: {e}")),
            Ok(r) => {
                let got: Vec<Fnv> = r.frames.iter().map(|f| Fnv::of(&f.png)).collect();
                if r.points != *points || got != *frames {
                    failures.push(format!(
                        "{what}: `{text}` delivered {} points / {} frames, the oracle {points} / {}{}",
                        r.points,
                        got.len(),
                        frames.len(),
                        if got.len() == frames.len() { " with other bytes" } else { "" }
                    ));
                }
            }
        }
    }
    specs.len() as u64
}

fn verify_live_mixed(seed: u64, tmp: &Path, failures: &mut Vec<String>) -> u64 {
    let scanner = goes_like(live_mixed::WIDTH / SHRINK, live_mixed::HEIGHT / SHRINK, seed);
    let specs = live_mixed::queries(&scanner, seed);
    let archive = match create_archive(&tmp.join("verify-live"), None) {
        Ok((a, _)) => a,
        Err(e) => {
            failures.push(e);
            return 0;
        }
    };
    let config = live_mixed::config(Some(archive));
    supervised_against_oracle(
        "live_mixed",
        &scanner,
        live_mixed::SECTORS,
        &specs,
        &config,
        failures,
    )
}

fn verify_swarm_shared(seed: u64, failures: &mut Vec<String>) -> u64 {
    let scanner = goes_like(swarm_shared::WIDTH / SHRINK, swarm_shared::HEIGHT / SHRINK, seed);
    let n = swarm_shared::SUBSCRIBERS;
    let specs = swarm_shared::subscribers(&swarm_shared::plans(&scanner, seed), n);
    let config = swarm_shared::config(n);
    supervised_against_oracle(
        "swarm_shared",
        &scanner,
        swarm_shared::SECTORS,
        &specs,
        &config,
        failures,
    )
}

fn verify_ops_kernels(seed: u64, failures: &mut Vec<String>) -> u64 {
    let scanner =
        ops_kernels::scanner(ops_kernels::WIDTH / SHRINK, ops_kernels::HEIGHT / SHRINK, seed);
    let sectors = ops_kernels::SECTORS;
    let vis = materialize(scanner.band_stream(0, sectors));
    let nir = materialize(scanner.band_stream(1, sectors));
    let catalog = catalog_of(&[&vis, &nir]);
    let kernels = ops_kernels::kernels(&scanner, &vis, sectors, seed);
    for kernel in &kernels {
        let mut fast = Fnv::default();
        let outcome = plan(&catalog, &kernel.text, None).and_then(|mut pipeline| {
            let report = run_chunked(&mut pipeline, Some(&mut fast));
            let (points, slow) = oracle(&catalog, &kernel.text)?;
            if report.points_delivered != points || fast != slow {
                return Err(format!(
                    "`{}`: {} points {fast:?}, the oracle {points} points {slow:?}",
                    kernel.text, report.points_delivered
                ));
            }
            match kernel.expected {
                Some(want) if want != points => {
                    Err(format!("`{}`: {points} points, the lattice says {want}", kernel.text))
                }
                _ => Ok(()),
            }
        });
        if let Err(e) = outcome {
            failures.push(format!("ops_kernels: {e}"));
        }
    }
    kernels.len() as u64
}

/// Digest and count of the points of `mat` a read must return.
fn expected_read(
    mat: &[ChunkOrMarker<f32>],
    rect: &geostreams_geo::Rect,
    lattice: &geostreams_geo::LatticeGeoref,
) -> (u64, Vec<(u32, u32)>) {
    let cells = lattice.footprint(rect);
    let mut keys = Vec::new();
    for item in mat {
        if let ChunkOrMarker::Chunk(c) = item {
            for p in &c.points {
                if cells.is_some_and(|b| {
                    (b.col_min..=b.col_max).contains(&p.cell.col)
                        && (b.row_min..=b.row_max).contains(&p.cell.row)
                }) {
                    keys.push((p.cell.col, p.cell.row));
                }
            }
        }
    }
    (keys.len() as u64, keys)
}

fn verify_archive_rw(seed: u64, tmp: &Path, failures: &mut Vec<String>) -> u64 {
    let scanner = goes_like(archive_rw::WIDTH / SHRINK, archive_rw::HEIGHT / SHRINK, seed);
    let sectors = archive_rw::SECTORS;
    // Every sector scanned, none repeated: the oracle here is the
    // scanner's own stream.
    let (schema, items) = archive_rw::sectors_to_ingest(&scanner, sectors, sectors);
    let fail = |failures: &mut Vec<String>, e: String| failures.push(format!("archive_rw: {e}"));
    let archive = match create_archive(&tmp.join("verify-archive"), None) {
        Ok((a, _)) => a,
        Err(e) => {
            fail(failures, e);
            return 0;
        }
    };
    let band = schema.band;
    let mut written = archive.bind_band(&schema).map_err(|e| e.to_string());
    for item in items.iter().flatten() {
        if let Err(e) = archive.ingest_chunk(band, item) {
            written = Err(e.to_string());
        }
    }
    if let Err(e) = written.and_then(|()| archive.flush().map_err(|e| e.to_string())) {
        fail(failures, e);
        return 1;
    }
    let lattice = scanner.instrument.band_lattice(0);
    let step = {
        let (lo, hi) = schema.value_range;
        ((hi - lo) / 65535.0) as f32 * 1.001
    };
    // Full replay, twice: same digest, same cells in the same order as
    // ingested, every value within one quantization step.
    let original: Vec<(u32, u32, f32)> = items
        .iter()
        .flatten()
        .filter_map(|i| match i {
            ChunkOrMarker::Chunk(c) => {
                Some(c.points.iter().map(|p| (p.cell.col, p.cell.row, p.value)))
            }
            ChunkOrMarker::Marker(_) => None,
        })
        .flatten()
        .collect();
    let mut digests = Vec::new();
    for _ in 0..2 {
        let mut fnv = Fnv::default();
        let mut replayed = Vec::new();
        match archive.replay(band, None, None, None) {
            Err(e) => fail(failures, e.to_string()),
            Ok(mut replay) => {
                while let Some(item) = replay.next_chunk(DEFAULT_CHUNK_BUDGET) {
                    fnv.item(&item);
                    if let ChunkOrMarker::Chunk(c) = &item {
                        replayed.extend(c.points.iter().map(|p| (p.cell.col, p.cell.row, p.value)));
                    }
                }
            }
        }
        let close = replayed.len() == original.len()
            && replayed
                .iter()
                .zip(&original)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && (a.2 - b.2).abs() <= step);
        if !close {
            fail(failures, "a full replay differs from what was ingested".to_string());
        }
        digests.push(fnv);
    }
    if digests[0] != digests[1] {
        fail(failures, "two full replays differ".to_string());
    }
    // Region reads: exactly the cells of the region, in stream order.
    let mut distinct: Vec<archive_rw::Read> = Vec::new();
    for read in archive_rw::reads(&scanner, sectors, seed, 100) {
        if !distinct.iter().any(|r| r.rect == read.rect) {
            distinct.push(read);
        }
    }
    for read in &distinct {
        let (want, cells) = expected_read(&items[read.sector as usize], &read.rect, &lattice);
        let mut got = Vec::new();
        match archive.replay(band, Some(read.sector), Some(read.sector + 1), Some(&read.rect)) {
            Err(e) => fail(failures, e.to_string()),
            Ok(mut replay) => {
                while let Some(el) = replay.next_element() {
                    if let Element::Point(p) = el {
                        got.push((p.cell.col, p.cell.row));
                    }
                }
            }
        }
        if want != read.points || got != cells {
            fail(
                failures,
                format!("a region read returned {} cells, the region has {want}", got.len()),
            );
        }
    }
    2 + distinct.len() as u64
}

fn verify_oneshot_http(seed: u64, failures: &mut Vec<String>) -> u64 {
    let scanner = goes_like(oneshot_http::WIDTH / SHRINK, oneshot_http::HEIGHT / SHRINK, seed);
    let dsms = Arc::new(Dsms::over_scanner(&scanner, 1));
    let server = match HttpServer::spawn(Arc::clone(&dsms), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("oneshot_http: bind: {e}"));
            return 0;
        }
    };
    let catalog = scanner_catalog(&scanner, 0, 1);
    let requests = oneshot_http::round_of_requests(&scanner, seed, 1);
    for request in &requests {
        let outcome = oneshot_http::fetch(server.addr(), &request.target)
            .map_err(|e| e.to_string())
            .and_then(|response| {
                let answer = oneshot_http::check_response(request, &response)?;
                if request.explain {
                    return Ok(());
                }
                let format = oneshot_http::format_of(request.format);
                let (want, frames) = oracle_answer(&catalog, &request.query, format, true)?;
                match answer.image {
                    None if answer.points == want => Ok(()),
                    None => Err(format!("{} points, the oracle {want}", answer.points)),
                    Some(png) if Some(&Fnv::of(png)) == frames.first() => Ok(()),
                    Some(_) => Err("PNG bytes differ from the oracle's".to_string()),
                }
            });
        if let Err(e) = outcome {
            failures.push(format!("oneshot_http: {}: {e}", request.target));
        }
    }
    server.stop();
    requests.len() as u64
}

/// Runs every check for `seed`; returns operations checked and failures.
pub fn run(seed: u64, out: &Path) -> Result<(u64, Vec<String>), String> {
    let tmp = TmpDir::create(out)?;
    let mut failures = Vec::new();
    let mut checked = 0;
    checked += verify_ops_kernels(seed, &mut failures);
    checked += verify_archive_rw(seed, &tmp.0, &mut failures);
    checked += verify_live_mixed(seed, &tmp.0, &mut failures);
    checked += verify_swarm_shared(seed, &mut failures);
    checked += verify_oneshot_http(seed, &mut failures);
    Ok((checked, failures))
}
