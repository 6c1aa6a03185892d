//! `swarm_shared`: 256 subscribers over 8 distinct plans that share
//! subplans, plan sharing on, two tenants, statistics delivery. The
//! feed is small (`goes_like(512, 256)`, four sectors a round), so
//! per-subscriber fan-out, the subscription tree and thread and channel
//! overhead dominate.

use super::streams::{isolate, measure_rounds, spec, Expect, Feed, QuerySpec};
use crate::harness::{Env, LayerValues, Measured, ProbeInputs, Workload};
use crate::inputs::{bbox_text, rect_of_cells, seeded_cells, Rng};
use crate::trace::{SpanRecord, Tracer};
use geostreams_dsms::protocol::OutputFormat;
use geostreams_dsms::{run_supervised, FanoutPolicy, RuntimeConfig, ServerMetrics};
use geostreams_satsim::{goes_like, Scanner};
use std::sync::Arc;
use std::time::Instant;

pub const WIDTH: u32 = 512;
pub const HEIGHT: u32 = 256;
pub const SECTORS: u64 = 4;
pub const SUBSCRIBERS: usize = 256;

pub struct State {
    feed: Feed,
}

/// The eight plans: two focal stacks and three restrictions over one
/// shared smoothing of the thermal band, two overlapping restrictions
/// of the visible band, and one band as it is.
pub fn plans(scanner: &Scanner, seed: u64) -> Vec<(String, Expect)> {
    let mut rng = Rng::new(seed);
    let vis = scanner.instrument.band_lattice(0);
    let ir = scanner.instrument.band_lattice(3);
    let mut restrict = |input: &str, lattice: &geostreams_geo::LatticeGeoref| {
        let cells = seeded_cells(&mut rng, lattice, lattice.width / 2, lattice.height / 2, 0.5);
        (
            format!(
                "restrict_space({input}, {}, \"geos:-75\")",
                bbox_text(&rect_of_cells(lattice, cells))
            ),
            Expect::PointsPerSector(cells.len()),
        )
    };
    let base = "focal(scale(goes-sim.b4-ir, 2, 0), \"mean\", 5)";
    let whole_ir = Expect::PointsPerSector(ir.len());
    vec![
        (format!("focal({base}, \"max\", 5)"), whole_ir),
        (format!("focal({base}, \"min\", 5)"), whole_ir),
        restrict(base, &ir),
        restrict(base, &ir),
        restrict("goes-sim.b1-vis", &vis),
        restrict("goes-sim.b1-vis", &vis),
        ("goes-sim.b3-wv".to_string(), whole_ir),
        (format!("restrict_value({base}, 0.5, 1.5)"), Expect::SomePoints),
    ]
}

pub fn subscribers(plans: &[(String, Expect)], n: usize) -> Vec<QuerySpec> {
    (0..n)
        .map(|i| {
            let (text, expect) = &plans[i % plans.len()];
            spec(text.clone(), OutputFormat::Stats, *expect)
        })
        .collect()
}

pub fn config(n: usize) -> RuntimeConfig {
    RuntimeConfig {
        fanout: FanoutPolicy::Blocking,
        share_plans: true,
        // Every other subscriber belongs to the second tenant.
        tenants: (1..n).step_by(2).map(|i| (i, "tenant-b".to_string())).collect(),
        metrics: Some(Arc::new(ServerMetrics::new())),
        ..RuntimeConfig::default()
    }
}

pub struct SwarmShared;

impl Workload for SwarmShared {
    type State = State;

    fn setup(env: &Env) -> Result<State, String> {
        let scanner = goes_like(WIDTH, HEIGHT, env.seed);
        let specs = subscribers(&plans(&scanner, env.seed), SUBSCRIBERS);
        let feed = Feed { scanner, sectors: SECTORS, specs, next_sector: 0 };
        // Warm-up pass: one sector, every subscriber admitted.
        run_supervised(&feed.scanner, 1, &feed.requests(), &config(SUBSCRIBERS))
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(State { feed })
    }

    fn measure(
        state: &mut State,
        _env: &Env,
        seconds: f64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Measured {
        let mut m = Measured::default();
        measure_rounds(
            &mut state.feed,
            &config(SUBSCRIBERS),
            seconds,
            tracer.map(Arc::as_ref),
            &mut m,
        );
        m.info.push(("feed", format!("goes_like({WIDTH}, {HEIGHT}), 3 bands subscribed")));
        m
    }

    fn attribute(
        state: &mut State,
        env: &Env,
        untraced: &Measured,
        _traced: &Measured,
        _spans: &[SpanRecord],
        _probes: &LayerValues,
    ) -> Result<LayerValues, String> {
        let rounds = state.feed.rounds_of(untraced);
        // Each distinct plan evaluated once, unshared below its root:
        // shared subplans make the runtime's own share smaller, so the
        // unattributed remainder is a lower bound here.
        let distinct = subscribers(&plans(&state.feed.scanner, env.seed), 8);
        let mut out =
            isolate(&state.feed.scanner, SECTORS, &distinct, &[], None, untraced.cpu_s / rounds)?;

        // Fan-out alone: every subscriber asks for one band as it is.
        let identity: Vec<_> = (0..SUBSCRIBERS)
            .map(|_| {
                spec("goes-sim.b4-ir".to_string(), OutputFormat::Stats, Expect::SomePoints).request
            })
            .collect();
        let t = Instant::now();
        let (results, _) =
            run_supervised(&state.feed.scanner, SECTORS, &identity, &config(SUBSCRIBERS))
                .map_err(|e| format!("fan-out run: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        let delivered: u64 = results.iter().flatten().map(|r| r.points).sum();
        out.insert("dsms.fanout_pts_per_s", delivered as f64 / wall);
        Ok(out)
    }

    fn probe_inputs(state: &State) -> ProbeInputs {
        ProbeInputs {
            scanner: state.feed.scanner.clone(),
            queries: state.feed.queries().into_iter().take(8).collect(),
        }
    }
}
