//! `archive_rw`: the store used three ways on one archive with the
//! default configuration (Quant16, fsync on commit, 8-frame commit
//! groups, 4 096-tile cache).
//!
//! A round creates a fresh archive and then (1) ingests six sectors of
//! the 1024 × 512 visible band, held in memory since set-up, and
//! flushes; (2) replays everything once, cold — a sector is 8 192
//! tiles, twice the tile cache; (3) answers 1 800 `[t, t+1) × region`
//! replays drawn from a hot set of six regions of 1 to 11 % of the
//! footprint whose stripes fit the cache together. Rounds repeat until the time
//! is up.

use super::streams::{create_archive, store_counters};
use crate::harness::{Env, LayerValues, Measured, ProbeInputs, Section, Workload};
use crate::inputs::{materialize, rect_of_cells, Fnv, Rng};
use crate::probes::drain;
use crate::stats::{geomean, median};
use crate::trace::{span, totals_by_name, SpanRecord, Tracer};
use crate::vfs::VfsCounters;
use geostreams_core::model::{
    ChunkOrMarker, Element, GeoStream, Marker, StreamSchema, Timestamp, DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::Registry;
use geostreams_geo::{CellBox, Rect};
use geostreams_satsim::{goes_like, Scanner};
use geostreams_store::{Archive, ArchiveConfig, StoreMetrics};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const WIDTH: u32 = 1024;
pub const HEIGHT: u32 = 512;
pub const SECTORS: u64 = 6;
/// Sectors actually scanned in set-up; the rest repeat them under new
/// sector and frame ids (tiles chain down a sector's rows, never across
/// sectors, so a repeated sector stores exactly like a fresh one).
const SCANNED: u64 = 2;
/// Hot regions as a share of the footprint, and how often a round reads
/// each. Small reads are the common ones; the counts put the median
/// read inside the 2 % group and the 95th percentile inside the 11 %
/// group, away from the edges between groups.
const HOT: [(f64, u32); 6] =
    [(0.01, 600), (0.02, 600), (0.03, 180), (0.05, 150), (0.07, 120), (0.11, 150)];

/// One region read: a one-sector time window and a rectangle.
#[derive(Clone, Copy)]
pub struct Read {
    pub sector: i64,
    pub rect: Rect,
    pub points: u64,
}

pub struct State {
    scanner: Scanner,
    schema: StreamSchema,
    /// The sectors to ingest, in stream order.
    sectors: Vec<Vec<ChunkOrMarker<f32>>>,
    points_per_sector: u64,
    reads: Vec<Read>,
    archives: u32,
    last: Option<(Arc<Archive>, Option<Arc<VfsCounters>>, PathBuf)>,
}

/// Rewrites the identity of one sector's markers: sector id, the frame
/// ids that follow from it, and the sector-id timestamp.
fn restamp(items: &mut [ChunkOrMarker<f32>], sector: u64, frames_per_sector: u64) {
    let ts = Timestamp::new(sector as i64);
    let mut first_frame = None;
    let mut fix = |m: &mut Marker| match m {
        Marker::SectorStart(s) => {
            s.sector_id = sector;
            s.timestamp = ts;
        }
        Marker::FrameStart(f) => {
            let base = *first_frame.get_or_insert(f.frame_id);
            f.frame_id = sector * frames_per_sector + (f.frame_id - base);
            f.sector_id = sector;
            f.timestamp = ts;
        }
        Marker::FrameEnd(f) => {
            let base = first_frame.unwrap_or(f.frame_id);
            f.frame_id = sector * frames_per_sector + (f.frame_id - base);
            f.sector_id = sector;
        }
        Marker::SectorEnd(s) => s.sector_id = sector,
    };
    for item in items {
        match item {
            ChunkOrMarker::Marker(m) => fix(m),
            ChunkOrMarker::Chunk(c) => {
                if let Some(m) = &mut c.end {
                    fix(m)
                }
            }
        }
    }
}

/// The `n` sectors to ingest: `scanned` from the scanner, the rest
/// repeats of those under their own ids.
pub fn sectors_to_ingest(
    scanner: &Scanner,
    n: u64,
    scanned: u64,
) -> (StreamSchema, Vec<Vec<ChunkOrMarker<f32>>>) {
    let mat = materialize(scanner.band_stream(0, scanned));
    let mut split: Vec<Vec<ChunkOrMarker<f32>>> = vec![Vec::new()];
    for item in mat.items.iter() {
        let ends_sector = matches!(item.marker(), Some(Marker::SectorEnd(_)));
        split.last_mut().expect("never empty").push(item.clone());
        if ends_sector {
            split.push(Vec::new());
        }
    }
    split.retain(|s| !s.is_empty());
    let frames = scanner.frames_per_sector(0);
    let sectors = (0..n)
        .map(|k| {
            let mut items = split[(k % scanned) as usize].clone();
            restamp(&mut items, k, frames);
            items
        })
        .collect();
    (mat.schema, sectors)
}

/// The round's region reads in the order they are issued.
///
/// A region replay decodes the 64-column stripes the region touches
/// over every row of the sector, so what a read costs, and what it
/// keeps in the tile cache, is whole stripes (512 tiles each here). The
/// hot regions therefore start on a stripe edge — every seed's read of
/// a given size touches the same number of stripes — and all lie in one
/// sector within the stripes of the widest of them (340 columns: 6
/// stripes, 3 072 of the cache's 4 096 tiles); their rows are free.
pub fn reads(scanner: &Scanner, sectors: u64, seed: u64, scale: u32) -> Vec<Read> {
    const STRIPE: u32 = 64;
    let lattice = scanner.instrument.band_lattice(0);
    let mut rng = Rng::new(seed);
    let sector = rng.range(0, sectors as u32 - 1) as i64;
    let size = |share: f64| {
        let side = share.sqrt();
        let w = (f64::from(lattice.width) * side) as u32;
        let h = (f64::from(lattice.height) * side) as u32;
        (w.max(1), h.max(1))
    };
    let stripes = |cols: u32| cols.div_ceil(STRIPE);
    let band = HOT.iter().map(|(share, _)| stripes(size(*share).0)).max().unwrap_or(1);
    let band_left = rng.range(0, (lattice.width / STRIPE).saturating_sub(band));
    let mut reads = Vec::new();
    for (share, count) in HOT {
        let (w, h) = size(share);
        let col = (band_left + rng.range(0, band - stripes(w))) * STRIPE;
        let (w, h) = (w.min(lattice.width - col), h.min(lattice.height));
        let row = rng.range(0, lattice.height - h);
        let cells = CellBox::new(col, row, col + w - 1, row + h - 1);
        let read = Read { sector, rect: rect_of_cells(&lattice, cells), points: cells.len() };
        reads.extend(std::iter::repeat_n(read, (count / scale).max(1) as usize));
    }
    rng.shuffle(&mut reads);
    reads
}

/// Drains a replay, optionally hashing what it delivers.
fn replay_points(
    archive: &Archive,
    band: u16,
    window: Option<(i64, i64)>,
    rect: Option<&Rect>,
    tracer: Option<&Tracer>,
    digest: Option<&mut Fnv>,
) -> Result<u64, String> {
    let (lo, hi) = (window.map(|w| w.0), window.map(|w| w.1));
    let mut replay = {
        let _s = span(tracer, "store.replay_open");
        archive.replay(band, lo, hi, rect).map_err(|e| format!("open replay: {e}"))?
    };
    let _s = span(tracer, "store.replay_drain");
    let points = match digest {
        None => drain(&mut replay),
        Some(fnv) => {
            let mut points = 0;
            while let Some(item) = replay.next_chunk(DEFAULT_CHUNK_BUDGET) {
                points += item.point_count() as u64;
                fnv.item(&item);
                item.recycle();
            }
            points
        }
    };
    if replay.failed() {
        return Err("replay ended on an error".to_string());
    }
    Ok(points)
}

/// After the timed rounds: sector 0 replayed twice must hash the same,
/// and every replayed value must lie within one Quant16 step of the
/// value that was ingested.
fn check_round_trip(state: &State, archive: &Archive, m: &mut Measured) {
    let band = state.schema.band;
    let mut digests = [Fnv::default(), Fnv::default()];
    for fnv in &mut digests {
        m.attempted += 1;
        match replay_points(archive, band, Some((0, 1)), None, None, Some(fnv)) {
            Ok(n) if n == state.points_per_sector => {}
            Ok(n) => m.fail(format!("check replay delivered {n} points")),
            Err(e) => m.fail(e),
        }
    }
    if digests[0] != digests[1] {
        m.fail("two replays of one sector differ".to_string());
    }
    let (lo, hi) = state.schema.value_range;
    let step = ((hi - lo) / 65535.0) as f32;
    let mut ingested = std::collections::HashMap::new();
    for item in &state.sectors[0] {
        if let ChunkOrMarker::Chunk(c) = item {
            ingested.extend(c.points.iter().map(|p| ((p.cell.col, p.cell.row), p.value)));
        }
    }
    let mut worst = 0.0f32;
    if let Ok(mut replay) = archive.replay(band, Some(0), Some(1), None) {
        while let Some(el) = replay.next_element() {
            if let Element::Point(p) = el {
                let was = ingested.get(&(p.cell.col, p.cell.row)).copied().unwrap_or(f32::NAN);
                let d = (p.value - was).abs();
                worst = if d.is_nan() { f32::INFINITY } else { worst.max(d) };
            }
        }
    }
    m.attempted += 1;
    // Half a step from rounding to the lane, and float slack.
    if worst > step * 1.001 {
        m.fail(format!("replayed values are off by up to {worst}, one Quant16 step is {step}"));
    }
}

pub struct ArchiveRw;

impl Workload for ArchiveRw {
    type State = State;

    fn setup(env: &Env) -> Result<State, String> {
        let scanner = goes_like(WIDTH, HEIGHT, env.seed);
        let (schema, sectors) = sectors_to_ingest(&scanner, SECTORS, SCANNED);
        let points_per_sector = scanner.instrument.band_points_per_sector(0);
        let reads = reads(&scanner, SECTORS, env.seed, 1);
        // The archive directory; a first frame group through the WAL.
        let dir = env.tmp.join("archive-setup");
        let (archive, _) = create_archive(&dir, None)?;
        archive.bind_band(&schema).map_err(|e| e.to_string())?;
        for item in sectors[0].iter().take(64) {
            archive.ingest_chunk(schema.band, item).map_err(|e| e.to_string())?;
        }
        archive.flush().map_err(|e| e.to_string())?;
        drop(archive);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(State { scanner, schema, sectors, points_per_sector, reads, archives: 0, last: None })
    }

    fn measure(
        state: &mut State,
        env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured {
        let mut m = Measured::default();
        let band = state.schema.band;
        let span_tracer = tracer.map(Arc::as_ref);
        let (mut ingest_rates, mut replay_rates, mut region_rates) = (vec![], vec![], vec![]);
        let (mut hits, mut misses, mut region_reads) = (0u64, 0u64, 0u64);
        let started = Instant::now();
        let mut rounds = 0u32;
        while rounds < 2 || started.elapsed().as_secs_f64() < seconds {
            rounds += 1;
            // Untimed: drop the previous round's archive, make a new one.
            if let Some((_, _, dir)) = state.last.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
            state.archives += 1;
            let dir = env.tmp.join(format!("archive-{}", state.archives));
            let (archive, counters) = match create_archive(&dir, tracer) {
                Ok(made) => made,
                Err(e) => {
                    m.errors.push(e);
                    break;
                }
            };
            let metrics = StoreMetrics::register(&Registry::new());
            archive.attach_metrics(metrics.clone());
            state.last = Some((Arc::clone(&archive), counters, dir));

            // (1) write
            m.attempted += 1;
            let section = Section::start();
            let mut wrote = archive.bind_band(&state.schema).map_err(|e| e.to_string());
            for sector in &state.sectors {
                for item in sector {
                    let _s = span(span_tracer, "store.ingest_chunk");
                    if let Err(e) = archive.ingest_chunk(band, item) {
                        wrote = Err(e.to_string());
                    }
                }
            }
            {
                let _s = span(span_tracer, "store.flush");
                if let Err(e) = archive.flush() {
                    wrote = Err(e.to_string());
                }
            }
            let (mut wall, mut cpu) = section.stop();
            let ingested = state.points_per_sector * state.sectors.len() as u64;
            match wrote {
                Ok(()) => ingest_rates.push(ingested as f64 / wall),
                Err(e) => m.fail(format!("ingest: {e}")),
            }

            // (2) scan read, cold
            m.attempted += 1;
            let section = Section::start();
            let scanned = replay_points(&archive, band, None, None, span_tracer, None);
            let (scan_wall, scan_cpu) = section.stop();
            match scanned {
                Ok(n) if n == ingested => replay_rates.push(n as f64 / scan_wall),
                Ok(n) => m.fail(format!("full replay delivered {n} of {ingested} points")),
                Err(e) => m.fail(e),
            }
            wall += scan_wall;
            cpu += scan_cpu;

            // (3) point reads from the hot set
            let (hits0, misses0) = (metrics.cache_hits.get(), metrics.cache_misses.get());
            let section = Section::start();
            let (mut read_points, mut read_s, mut reads_ms) = (0u64, 0.0, Vec::new());
            for read in &state.reads {
                m.attempted += 1;
                let t = Instant::now();
                let got = replay_points(
                    &archive,
                    band,
                    Some((read.sector, read.sector + 1)),
                    Some(&read.rect),
                    span_tracer,
                    None,
                );
                let dt = t.elapsed().as_secs_f64();
                match got {
                    Ok(n) if n == read.points => {
                        reads_ms.push(dt * 1e3);
                        read_points += n;
                        read_s += dt;
                    }
                    Ok(n) => m.fail(format!("region read delivered {n} of {} points", read.points)),
                    Err(e) => m.fail(e),
                }
            }
            let (reads_wall, reads_cpu) = section.stop();
            region_rates.push(read_points as f64 / read_s.max(1e-9));
            m.end_round(2 * ingested + read_points, wall + reads_wall, cpu + reads_cpu, reads_ms);
            hits += metrics.cache_hits.get() - hits0;
            misses += metrics.cache_misses.get() - misses0;
            region_reads += state.reads.len() as u64;
        }

        if let Some((archive, _, _)) = &state.last {
            check_round_trip(state, archive, &mut m);
            let stats = archive.stats();
            m.layer.insert(
                "store.stored_bytes_per_raw_byte",
                (stats.bytes_written + stats.wal_bytes) as f64 / stats.raw_bytes.max(1) as f64,
            );
            m.layer.insert("store.wal_bytes", stats.wal_bytes as f64);
            m.layer.insert("store.segment_bytes", stats.bytes_written as f64);
            m.layer.insert("store.wal_commits", stats.wal_commits as f64);
        }
        let phases = [median(&ingest_rates), median(&replay_rates), median(&region_rates)];
        // Equal weight to the three uses: a relative gain in one moves
        // the headline as much as the same gain in another.
        m.pts_per_s = geomean(&phases);
        m.layer.insert("store.ingest_pts_per_s", phases[0]);
        m.layer.insert("store.replay_pts_per_s", phases[1]);
        m.layer.insert("store.region_pts_per_s", phases[2]);
        m.layer.insert("store.cache_hit_rate", 100.0 * hits as f64 / (hits + misses).max(1) as f64);
        m.layer.insert(
            "store.cache_misses_per_region_query",
            misses as f64 / region_reads.max(1) as f64,
        );
        m.info.push(("rounds", rounds.to_string()));
        m.info.push(("band", format!("{WIDTH}x{HEIGHT} x {SECTORS} sectors a round")));
        m.info.push(("region_reads_per_round", state.reads.len().to_string()));
        m
    }

    fn attribute(
        state: &mut State,
        _env: &Env,
        _untraced: &Measured,
        traced: &Measured,
        spans: &[SpanRecord],
        _probes: &LayerValues,
    ) -> Result<LayerValues, String> {
        let mut out = LayerValues::new();
        let totals = totals_by_name(spans);
        let store_ns: u64 =
            totals.iter().filter(|(n, _)| n.starts_with("store.")).map(|(_, t)| t.self_ns).sum();
        // Calls are made one after another on this thread, so self
        // times add up to busy time; waiting on the disk is busy too.
        let share = store_ns as f64 / 1e9 / traced.wall_s.max(1e-9) * 100.0;
        out.insert("store.busy_share", share);
        out.insert("dsms.unattributed_share", 100.0 - share);
        let Some((archive, counters, dir)) = state.last.take() else {
            return Err("no archive left to reopen".to_string());
        };
        if let Some(vfs) = &counters {
            store_counters(&archive, vfs, store_ns as f64, &mut out);
        }
        // Recovery: the populated directory opened again.
        let stored = archive.stats().bytes_written + archive.stats().wal_bytes;
        drop(archive);
        let t = Instant::now();
        let reopened =
            Archive::open(ArchiveConfig::new(&dir)).map_err(|e| format!("reopen: {e}"))?;
        let open_s = t.elapsed().as_secs_f64();
        if reopened.watermark(state.schema.band).is_none() {
            return Err("the reopened archive is empty".to_string());
        }
        out.insert("store.open_recovery_mb_per_s", stored as f64 / 1e6 / open_s);
        Ok(out)
    }

    fn probe_inputs(state: &State) -> ProbeInputs {
        // The store takes no queries; the planning probes get the
        // request shapes the interactive path sees.
        let queries = super::oneshot_http::shapes(&state.scanner, &mut Rng::new(1))
            .into_iter()
            .map(|s| s.query)
            .collect();
        ProbeInputs { scanner: state.scanner.clone(), queries }
    }
}
