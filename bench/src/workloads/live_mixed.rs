//! `live_mixed`: the headline scenario. A live GOES-like feed
//! (visible band 1024 × 512, four infrared bands at a quarter of that
//! per axis) through `run_supervised` with the archive attached, eight
//! continuous queries covering every operator class, regions
//! overlapping pairwise by at least a quarter. A round is three sectors;
//! rounds repeat until the time is up.

use super::streams::{
    create_archive, isolate, measure_rounds, spec, store_counters, Expect, Feed, QuerySpec,
};
use crate::harness::{Env, LayerValues, Measured, ProbeInputs, Workload};
use crate::inputs::{bbox_text, rect_of_cells, seeded_cells, Rng};
use crate::trace::{totals_by_name, SpanRecord, Tracer};
use crate::vfs::VfsCounters;
use geostreams_core::ops::delivery::DeliveredFrame;
use geostreams_dsms::protocol::OutputFormat;
use geostreams_dsms::{FanoutPolicy, RuntimeConfig, ServerMetrics};
use geostreams_satsim::{goes_like, Scanner};
use geostreams_store::Archive;
use std::sync::Arc;

pub const WIDTH: u32 = 1024;
pub const HEIGHT: u32 = 512;
pub const SECTORS: u64 = 3;

pub struct State {
    feed: Feed,
    archives: u32,
    last: Option<(Arc<Archive>, Option<Arc<VfsCounters>>)>,
    last_frames: Vec<DeliveredFrame>,
}

/// The eight queries over `scanner`, regions drawn from `seed`.
pub fn queries(scanner: &Scanner, seed: u64) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed);
    let vis = scanner.instrument.band_lattice(0);
    let ir = scanner.instrument.band_lattice(3);
    // Half the footprint each way, placed within the middle of the room
    // left: any two overlap by a quarter of their area or more.
    let mut region = |lattice: &geostreams_geo::LatticeGeoref| {
        let cells = seeded_cells(&mut rng, lattice, lattice.width / 2, lattice.height / 2, 0.5);
        (cells, bbox_text(&rect_of_cells(lattice, cells)))
    };
    let (stats_cells, stats_region) = region(&vis);
    let (_, png_region) = region(&vis);
    let (_, reproject_region) = region(&ir);
    let whole_ir = Expect::PointsPerSector(ir.len());
    vec![
        spec(
            format!("restrict_space(goes-sim.b1-vis, {stats_region}, \"geos:-75\")"),
            OutputFormat::Stats,
            Expect::PointsPerSector(stats_cells.len()),
        ),
        spec(
            format!("restrict_space(goes-sim.b1-vis, {png_region}, \"geos:-75\")"),
            OutputFormat::PngGray,
            // The frame is the whole sector lattice, empty outside the
            // region.
            Expect::FramePerSector { width: vis.width, height: vis.height },
        ),
        // The documented same-lattice form of NDVI over this instrument.
        spec(
            "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))".to_string(),
            OutputFormat::PngNdvi,
            Expect::FramePerSector { width: ir.width, height: ir.height },
        ),
        spec(
            "stretch(goes-sim.b4-ir, \"linear\", \"frame\")".to_string(),
            OutputFormat::PngThermal,
            Expect::FramePerSector { width: ir.width, height: ir.height },
        ),
        spec(
            format!(
                "reproject(restrict_space(goes-sim.b4-ir, {reproject_region}, \"geos:-75\"), \"latlon\", \"bilinear\")"
            ),
            OutputFormat::Json,
            Expect::SomePoints,
        ),
        spec("focal(goes-sim.b3-wv, \"mean\", 3)".to_string(), OutputFormat::Stats, whole_ir),
        spec(
            "restrict_value(goes-sim.b5-ir, 0.3, 0.7)".to_string(),
            OutputFormat::Stats,
            Expect::SomePoints,
        ),
        spec("agg_time(goes-sim.b4-ir, \"mean\", 3)".to_string(), OutputFormat::Json, whole_ir),
    ]
}

pub fn config(archive: Option<Arc<Archive>>) -> RuntimeConfig {
    RuntimeConfig {
        // Lossless, so what every subscriber receives can be checked.
        fanout: FanoutPolicy::Blocking,
        exec_workers: 2,
        share_plans: false,
        archive,
        metrics: Some(Arc::new(ServerMetrics::new())),
        ..RuntimeConfig::default()
    }
}

impl State {
    fn fresh_archive(
        &mut self,
        env: &Env,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Arc<Archive>, String> {
        self.archives += 1;
        let made =
            create_archive(&env.tmp.join(format!("live-archive-{}", self.archives)), tracer)?;
        let archive = Arc::clone(&made.0);
        self.last = Some(made);
        Ok(archive)
    }
}

pub struct LiveMixed;

impl Workload for LiveMixed {
    type State = State;

    fn setup(env: &Env) -> Result<State, String> {
        let scanner = goes_like(WIDTH, HEIGHT, env.seed);
        let specs = queries(&scanner, env.seed);
        let feed = Feed { scanner, sectors: SECTORS, specs, next_sector: 0 };
        let mut state = State { feed, archives: 0, last: None, last_frames: Vec::new() };
        // Warm-up pass: one sector through the whole runtime.
        let archive = state.fresh_archive(env, None)?;
        let requests = state.feed.requests();
        geostreams_dsms::run_supervised(&state.feed.scanner, 1, &requests, &config(Some(archive)))
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(state)
    }

    fn measure(
        state: &mut State,
        env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured {
        let mut m = Measured::default();
        let archive = match state.fresh_archive(env, tracer) {
            Ok(a) => a,
            Err(e) => {
                m.errors.push(e);
                return m;
            }
        };
        state.last_frames = measure_rounds(
            &mut state.feed,
            &config(Some(archive)),
            seconds,
            tracer.map(Arc::as_ref),
            &mut m,
        );
        m.info.push(("feed", format!("goes_like({WIDTH}, {HEIGHT}), 5 bands")));
        m
    }

    fn attribute(
        state: &mut State,
        env: &Env,
        untraced: &Measured,
        _traced: &Measured,
        spans: &[SpanRecord],
        _probes: &LayerValues,
    ) -> Result<LayerValues, String> {
        let mut out = isolate(
            &state.feed.scanner,
            SECTORS,
            &state.feed.specs,
            &state.last_frames,
            Some(&env.tmp.join("live-isolated")),
            untraced.cpu_s / state.feed.rounds_of(untraced),
        )?;
        if let Some((archive, Some(vfs))) = &state.last {
            // The archive is written from the pump threads; what it
            // spent at the Vfs is read against all its Vfs time.
            let totals = totals_by_name(spans);
            let busy: u64 = totals
                .iter()
                .filter(|(name, _)| name.starts_with("store.vfs_"))
                .map(|(_, t)| t.total_ns)
                .sum();
            store_counters(archive, vfs, busy as f64, &mut out);
        }
        Ok(out)
    }

    fn probe_inputs(state: &State) -> ProbeInputs {
        ProbeInputs { scanner: state.feed.scanner.clone(), queries: state.feed.queries() }
    }
}
