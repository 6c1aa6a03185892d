//! What `live_mixed` and `swarm_shared` share: rounds of
//! `run_supervised` over a live scanner feed, the checks on what each
//! subscriber received, and the isolation passes of the traced run.

use super::ops_kernels::{catalog_of, plan, run_chunked};
use crate::harness::{LayerValues, Measured, Section};
use crate::inputs::{materialize, Materialized};
use crate::probes::drain;
use crate::stats::median;
use crate::trace::{span, Tracer};
use crate::vfs::{TracingVfs, VfsCounters};
use geostreams_core::model::StreamRepair;
use geostreams_core::ops::delivery::DeliveredFrame;
use geostreams_core::query::parse_query;
use geostreams_dsms::protocol::{ClientRequest, OutputFormat};
use geostreams_dsms::{run_supervised, IngestStats, RuntimeConfig};
use geostreams_raster::png::{self, Decoded, PngOptions};
use geostreams_satsim::Scanner;
use geostreams_store::{Archive, ArchiveConfig, StdVfs};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a subscriber must have received after a round.
#[derive(Clone, Copy)]
pub enum Expect {
    /// Exactly this many points per sector.
    PointsPerSector(u64),
    /// One PNG frame of this size per sector.
    FramePerSector { width: u32, height: u32 },
    /// Some points; how many depends on the data or on a projection.
    SomePoints,
}

pub struct QuerySpec {
    pub request: ClientRequest,
    pub expect: Expect,
}

pub fn spec(query: String, format: OutputFormat, expect: Expect) -> QuerySpec {
    QuerySpec { request: ClientRequest { query, format, sectors: 0 }, expect }
}

/// An archive in `dir`, talking through the counting Vfs when traced.
pub fn create_archive(
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Arc<Archive>, Option<Arc<VfsCounters>>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ArchiveConfig::new(dir);
    let counters = tracer.map(|t| {
        let vfs = TracingVfs::new(Arc::new(StdVfs), Some(Arc::clone(t)));
        let counters = vfs.counters();
        cfg.vfs = Arc::new(vfs);
        counters
    });
    let archive = Archive::create(cfg).map_err(|e| format!("create archive: {e}"))?;
    Ok((Arc::new(archive), counters))
}

/// A live feed and its subscribers: what a stream workload keeps
/// between rounds.
pub struct Feed {
    pub scanner: Scanner,
    /// Sectors a round scans.
    pub sectors: u64,
    pub specs: Vec<QuerySpec>,
    /// First sector of the next round; rounds never rescan a sector.
    pub next_sector: u64,
}

impl Feed {
    pub fn requests(&self) -> Vec<ClientRequest> {
        self.specs.iter().map(|s| s.request.clone()).collect()
    }

    pub fn queries(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.request.query.clone()).collect()
    }

    /// Rounds an untraced pass ran, from its operation count.
    pub fn rounds_of(&self, measured: &Measured) -> f64 {
        measured.attempted.max(1) as f64 / self.specs.len() as f64
    }
}

/// Rounds of `run_supervised` over `feed` until `seconds` have passed.
/// Returns the frames the last round delivered.
pub fn measure_rounds(
    feed: &mut Feed,
    config: &RuntimeConfig,
    seconds: f64,
    tracer: Option<&Tracer>,
    m: &mut Measured,
) -> Vec<DeliveredFrame> {
    let Feed { scanner, sectors, specs, next_sector } = feed;
    let sectors = *sectors;
    let requests: Vec<ClientRequest> = specs.iter().map(|s| s.request.clone()).collect();
    let specs = specs.as_slice();
    let mut rates = Vec::new();
    let mut last_frames = Vec::new();
    let mut totals = IngestStats::default();
    let mut elements = 0u64;
    let started = Instant::now();
    let mut rounds = 0u32;
    while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
        let config = RuntimeConfig { start_sector: *next_sector, ..config.clone() };
        *next_sector += sectors;
        m.attempted += specs.len() as u64;
        let section = Section::start();
        let outcome = {
            let _s = span(tracer, "dsms.run_supervised");
            run_supervised(scanner, sectors, &requests, &config)
        };
        let (wall, cpu) = section.stop();
        rounds += 1;
        let (results, stats) = match outcome {
            Ok(o) => o,
            Err(e) => {
                m.failed += specs.len() as u64;
                m.errors.push(format!("run_supervised: {e}"));
                continue;
            }
        };
        // A clean, blocking run sheds nothing and never restarts.
        if stats.restarts != 0 || stats.shed_elements != 0 {
            m.errors.push(format!(
                "round {rounds}: {} restarts, {} shed elements",
                stats.restarts, stats.shed_elements
            ));
        }
        let mut delivered = 0u64;
        last_frames.clear();
        for (spec, result) in specs.iter().zip(results) {
            let r = match result {
                Ok(r) if !r.cancelled => r,
                Ok(_) => {
                    m.fail(format!("`{}` was cancelled", spec.request.query));
                    continue;
                }
                Err(e) => {
                    m.fail(format!("`{}`: {e}", spec.request.query));
                    continue;
                }
            };
            let pixels: u64 =
                r.frames.iter().map(|f| u64::from(f.width) * u64::from(f.height)).sum();
            let ok = match spec.expect {
                Expect::PointsPerSector(n) => r.points == n * sectors,
                Expect::FramePerSector { width, height } => {
                    r.frames.len() as u64 == sectors
                        && r.frames.iter().all(|f| f.width == width && f.height == height)
                }
                Expect::SomePoints => r.points > 0,
            };
            let full_run = r.report.as_ref().is_none_or(|rep| rep.sectors == sectors);
            if !ok || !full_run {
                m.fail(format!(
                    "`{}` delivered {} points in {} frames ({:?}) over {sectors} sectors",
                    spec.request.query,
                    r.points,
                    r.frames.len(),
                    r.frames.first().map(|f| (f.width, f.height))
                ));
                continue;
            }
            delivered += if r.frames.is_empty() { r.points } else { pixels };
            last_frames.extend(r.frames);
        }
        rates.push(delivered as f64 / wall);
        // The operation timed is the round: every subscriber admitted,
        // fed and finished. Its latency is the sector period the round
        // sustained — what the runtime reports per subscriber from
        // outside is when its thread happened to run, not when its
        // frames arrived. One sample a round: the median and the 95th
        // percentile coincide on the stream workloads.
        m.end_round(delivered, wall, cpu, vec![wall / sectors as f64 * 1e3]);
        elements += stats.elements_per_band.iter().map(|(_, n)| n).sum::<u64>();
        totals.restarts += stats.restarts;
        totals.shed_elements += stats.shed_elements;
        totals.shared_chunks_multicast += stats.shared_chunks_multicast;
        totals.payload_copies += stats.payload_copies;
        totals.shared_plans = stats.shared_plans;
    }
    m.pts_per_s = median(&rates);
    let per_round = |v: u64| v as f64 / f64::from(rounds);
    m.layer.insert("dsms.ingest_elements", per_round(elements));
    m.layer.insert("dsms.shed_elements", per_round(totals.shed_elements));
    m.layer.insert("dsms.restarts", per_round(totals.restarts));
    m.layer.insert("dsms.shared_plans", totals.shared_plans as f64);
    m.layer.insert("dsms.chunks_multicast", per_round(totals.shared_chunks_multicast));
    m.layer.insert("dsms.payload_copies", per_round(totals.payload_copies));
    m.info.push(("rounds", rounds.to_string()));
    m.info.push(("sectors_per_round", sectors.to_string()));
    m.info.push(("subscribers", specs.len().to_string()));
    last_frames
}

fn band_index(scanner: &Scanner, source: &str) -> Option<usize> {
    let name = source.strip_prefix(&format!("{}.", scanner.instrument.name))?;
    scanner.instrument.bands.iter().position(|b| b.name == name)
}

/// Seconds to encode again, alone, the images a round delivered.
pub fn reencode_seconds<'a>(pngs: impl Iterator<Item = &'a [u8]>) -> Result<f64, String> {
    let mut busy = 0.0;
    for bytes in pngs {
        let decoded = png::decode(bytes).map_err(|e| format!("delivered PNG: {e}"))?;
        let t = Instant::now();
        match &decoded {
            Decoded::Gray(g) => std::hint::black_box(png::encode_gray(g, PngOptions::default())),
            Decoded::Rgb(g) => std::hint::black_box(png::encode_rgb(g, PngOptions::default())),
        };
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
}

/// One round's inputs fed through each layer alone, single-threaded:
/// the scanner drained into memory (`satsim`), every subscription's
/// source through `StreamRepair` (`model`), every distinct plan planned
/// (`query`) and run through `run_chunked` over the in-memory sources
/// (`ops`, the operators under their driver), the delivered frames
/// encoded again (`raster`) and, with an archive attached, every band
/// ingested into a fresh one (`store`). Each is a share of the process
/// CPU an untraced round spent; what is left — pumps, channels,
/// fan-out, thread hand-offs — is `dsms.unattributed_share`.
pub fn isolate(
    scanner: &Scanner,
    sectors: u64,
    specs: &[QuerySpec],
    frames: &[DeliveredFrame],
    archive_dir: Option<&Path>,
    round_cpu_s: f64,
) -> Result<LayerValues, String> {
    let mut bands: Vec<usize> = Vec::new();
    let mut subscriptions: Vec<usize> = Vec::new();
    let mut plans: Vec<&str> = Vec::new();
    for spec in specs {
        let text = spec.request.query.as_str();
        let expr = parse_query(text).map_err(|e| format!("`{text}`: {e}"))?;
        for source in expr.source_names() {
            let band = band_index(scanner, &source).ok_or(format!("unknown source {source}"))?;
            subscriptions.push(band);
            if !bands.contains(&band) {
                bands.push(band);
            }
        }
        if !plans.contains(&text) {
            plans.push(text);
        }
    }
    // The archive persists every band the instrument has.
    if archive_dir.is_some() {
        bands = (0..scanner.instrument.bands.len()).collect();
    }

    let t = Instant::now();
    let materialized: Vec<(usize, Materialized)> =
        bands.iter().map(|b| (*b, materialize(scanner.band_stream(*b, sectors)))).collect();
    let satsim = t.elapsed().as_secs_f64();
    let of_band = |band: usize| {
        &materialized.iter().find(|(b, _)| *b == band).expect("band was materialized").1
    };

    let t = Instant::now();
    for band in &subscriptions {
        drain(&mut StreamRepair::new(of_band(*band).source()));
    }
    let model = t.elapsed().as_secs_f64();

    let sources: Vec<&Materialized> = materialized.iter().map(|(_, m)| m).collect();
    let catalog = catalog_of(&sources);
    let (mut query, mut ops) = (0.0, 0.0);
    for text in &plans {
        let t = Instant::now();
        let mut pipeline = plan(&catalog, text, None)?;
        query += t.elapsed().as_secs_f64();
        let t = Instant::now();
        run_chunked(&mut pipeline, None);
        ops += t.elapsed().as_secs_f64();
    }

    let raster = reencode_seconds(frames.iter().map(|f| f.png.as_slice()))?;

    let mut store = 0.0;
    if let Some(dir) = archive_dir {
        let (archive, _) = create_archive(dir, None)?;
        let t = Instant::now();
        for (_, mat) in &materialized {
            archive.bind_band(&mat.schema).map_err(|e| e.to_string())?;
            for item in mat.items.iter() {
                archive.ingest_chunk(mat.schema.band, item).map_err(|e| e.to_string())?;
            }
        }
        archive.flush().map_err(|e| e.to_string())?;
        store = t.elapsed().as_secs_f64();
        drop(archive);
        let _ = std::fs::remove_dir_all(dir);
    }

    let share = |busy: f64| busy / round_cpu_s.max(1e-9) * 100.0;
    let mut out = LayerValues::new();
    out.insert("satsim.busy_share", share(satsim));
    out.insert("model.busy_share", share(model));
    out.insert("query.busy_share", share(query));
    out.insert("ops.busy_share", share(ops));
    out.insert("raster.busy_share", share(raster));
    out.insert("store.busy_share", share(store));
    out.insert(
        "dsms.unattributed_share",
        100.0 - share(satsim + model + query + ops + raster + store),
    );
    Ok(out)
}

/// Store counters of a traced round: what the archive and the counting
/// Vfs under it saw.
pub fn store_counters(
    archive: &Archive,
    vfs: &VfsCounters,
    store_busy_ns: f64,
    out: &mut LayerValues,
) {
    let stats = archive.stats();
    let (append, sync, read) = (vfs.append.totals(), vfs.sync.totals(), vfs.read.totals());
    let pct = |ns: u64| ns as f64 / store_busy_ns.max(1.0) * 100.0;
    out.insert("store.vfs_append_count", append.calls as f64);
    out.insert("store.vfs_append_bytes", append.bytes as f64);
    out.insert("store.vfs_append_busy_pct", pct(append.busy_ns));
    out.insert("store.vfs_sync_count", sync.calls as f64);
    out.insert("store.vfs_sync_busy_pct", pct(sync.busy_ns));
    out.insert("store.vfs_read_count", read.calls as f64);
    out.insert("store.vfs_read_busy_pct", pct(read.busy_ns));
    out.insert("store.wal_bytes", stats.wal_bytes as f64);
    out.insert("store.segment_bytes", stats.bytes_written as f64);
    out.insert("store.wal_commits", stats.wal_commits as f64);
    out.insert(
        "store.write_amplification",
        append.bytes as f64 / stats.bytes_written.max(1) as f64,
    );
    out.insert(
        "store.stored_bytes_per_raw_byte",
        (stats.bytes_written + stats.wal_bytes) as f64 / stats.raw_bytes.max(1) as f64,
    );
}
