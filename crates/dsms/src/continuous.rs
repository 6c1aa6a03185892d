//! Continuous shared-ingest execution under supervision.
//!
//! A one-shot `Dsms::run_query` reads private source instances, but a
//! real receiving station decodes the downlink **once**. This module
//! implements the actual Fig. 3 dataflow: one ingest thread per band
//! fans the element stream out to bounded channels, and each continuous
//! query runs its optimized pipeline on its own thread over them. Both
//! share one admission (`server::admission`), one routing of source
//! leaves (`route_leaves`: past windows to the archive, the live feed
//! joined at "now"), one source stack and one evaluator (`dsms::eval`).
//! A run is staged: admit, wire, spawn ingest, spawn evaluators, collect.
//!
//! Unlike the happy-path version this grew from, the runtime is
//! **supervised** (see DESIGN.md "Fault model & recovery"):
//!
//! * every ingest thread runs under a per-band supervisor that detects
//!   death (panic, injected crash, truncated downlink) and restarts the
//!   feed with capped exponential backoff, resuming at the next scan
//!   sector — restarts count into
//!   `geostreams_ingest_restarts_total`;
//! * fan-out is non-blocking under [`FanoutPolicy::Shed`]: a slow
//!   subscriber loses points (counted in
//!   `geostreams_fanout_shed_total`) instead of head-of-line-blocking
//!   every sibling query through the bounded channels, and a subscriber
//!   that stays wedged past a patience window is declared dead;
//! * each query's sources are wrapped in [`StreamRepair`], so
//!   frame-scoped operators emit *partial* frames with completeness
//!   ratios instead of blocking forever on rows the downlink lost;
//! * an optional per-query watchdog cancels (not hangs) a query that
//!   exceeds its deadline — e.g. one wedged on a stalled client — and
//!   counts into `geostreams_watchdog_cancellations_total`.
//!
//! Degradation is injected deterministically via [`FaultPlan`]: same
//! seed, same faults, byte-identical results (`geostreams-digest chaos`,
//! run twice and diffed by `scripts/determinism_gate.sh`).

use crate::eval::{conclude, Delivered, Evaluator};
use crate::metrics::ServerMetrics;
use crate::protocol::{ClientRequest, OutputFormat};
use crate::server::{admission, scanner_catalog, QueryResult, DEFAULT_MEMORY_BUDGET_BYTES};
use crate::share::{
    band_refs, lock, plan_sharing, share_refs, share_source_name, SubscriptionTree,
};
use geostreams_core::exec::{RunReport, WorkerPool};
use geostreams_core::model::{
    BoxedF32Stream, ChunkChannel, ChunkOrMarker, GeoStream, Marker, RepairCounters, RepairProbe,
    StreamRepair, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::{
    now_ns, FlightRecorder, Gauge, HistogramSnapshot, SpanGuard, SpanOutcome, SpanStream,
    TraceContext,
};
use geostreams_core::query::{
    key_hex, source_windows, AnalyzeOptions, Catalog, Plan, Planner, ReplayProvider, SourceWindow,
};
use geostreams_core::{CoreError, Result};
use geostreams_satsim::{ChaosStream, FaultPlan, FaultStats, Scanner};
use geostreams_store::{Archive, ArchiveReplay, SpliceStream, StoreMetrics};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Default channel capacity per subscriber: how many chunked items a
/// slow query may lag behind the downlink before the fan-out policy
/// kicks in.
const CHANNEL_CAP: usize = 8192;

/// Poll interval for watchdog-aware channel reads and stall slicing.
const POLL: Duration = Duration::from_millis(20);

/// Ceiling of the supervised-restart backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(250);

/// How the per-band ingest pump treats a subscriber whose bounded
/// channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutPolicy {
    /// Lossless blocking send: back-pressure is absolute, but one hung
    /// subscriber stalls the whole band (for callers that prefer
    /// loss-free delivery).
    Blocking,
    /// Never block ingest: points are shed (and counted) the moment a
    /// subscriber's buffer is full; framing markers are retried within
    /// a patience window, after which the subscriber is declared dead
    /// and unsubscribed.
    #[default]
    Shed,
}

/// Tuning knobs of the supervised runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bounded-channel capacity per (query, band) subscription.
    pub channel_cap: usize,
    /// Fan-out policy for full subscriber buffers.
    pub fanout: FanoutPolicy,
    /// Per-query deadline; a query still running past it is cancelled
    /// (its sources end early and buffered scopes flush partial).
    /// `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Maximum supervised restarts per band before giving up on the
    /// feed.
    pub max_restarts: u32,
    /// First restart backoff; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// How long the shed policy retries a framing marker into a full
    /// buffer before declaring the subscriber dead.
    pub marker_patience: Duration,
    /// Deterministic downlink degradation applied to every ingested
    /// band (`None` = clean feed).
    pub fault_plan: Option<FaultPlan>,
    /// Artificial per-element processing stall for selected queries
    /// (request index → stall), simulating slow or wedged clients; the
    /// watchdog cuts through the stall.
    pub query_stall: Vec<(usize, Duration)>,
    /// Server metrics to surface recovery actions on (`/metrics`).
    pub metrics: Option<Arc<ServerMetrics>>,
    /// Tiled raster archive. When set, every ingested element is also
    /// persisted, and queries whose temporal restriction reaches before
    /// [`RuntimeConfig::start_sector`] are served from the archive —
    /// alone (wholly past) or spliced into the live feed (hybrid).
    pub archive: Option<Arc<Archive>>,
    /// First live scan sector — the runtime's "now". Live feeds join
    /// the downlink here; earlier sectors exist only in the archive.
    pub start_sector: u64,
    /// Multi-query plan sharing (DESIGN.md §16): when enabled, admitted
    /// counting queries with structurally-equal canonical plans — or
    /// common subplans across different plans — are evaluated once per
    /// chunk and multicast through subscription trees. Off by default:
    /// shared evaluation trades each query's own scan→deliver span
    /// chain for O(distinct plans) cost, so swarm mode is opt-in. With
    /// it off every query evaluates its own pipeline — the unshared
    /// oracle `geostreams-digest swarm` and the sharing tests compare
    /// against.
    pub share_plans: bool,
    /// Tenant of each request (request index → tenant name), used for
    /// per-tenant shed accounting on shared plans. Unlisted requests
    /// belong to the `"default"` tenant.
    pub tenants: Vec<(usize, String)>,
    /// Morsel-execution workers (DESIGN.md §17). The runtime owns one
    /// work-stealing pool of this many threads; every query and
    /// shared-plan evaluator fans its data-parallel operator suffix
    /// out to it, morsel by morsel, and merges back in lattice order —
    /// output is byte-identical at every worker count. `0` executes
    /// kernels inline on the driver thread (same code path, no extra
    /// threads).
    pub exec_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_cap: CHANNEL_CAP,
            fanout: FanoutPolicy::Shed,
            watchdog: None,
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            marker_patience: Duration::from_secs(2),
            fault_plan: None,
            query_stall: Vec::new(),
            metrics: None,
            archive: None,
            start_sector: 0,
            share_plans: false,
            tenants: Vec::new(),
            exec_workers: 1,
        }
    }
}

/// Statistics of one continuous run.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Elements fanned out per band (band id → elements).
    pub elements_per_band: Vec<(u16, u64)>,
    /// Supervised ingest restarts per band (band id → restarts).
    pub restarts_per_band: Vec<(u16, u32)>,
    /// Total supervised ingest restarts.
    pub restarts: u64,
    /// Elements shed by the fan-out instead of blocking.
    pub shed_elements: u64,
    /// Queries cancelled by the watchdog.
    pub watchdog_cancellations: u64,
    /// Injected-fault counters per band (band id → stats), present
    /// when a fault plan was active.
    pub faults_per_band: Vec<(u16, FaultStats)>,
    /// Distinct shared plans (DAG nodes) the sharing runtime evaluated
    /// (0 = every query evaluated its own pipeline).
    pub shared_plans: u64,
    /// Chunked items delivered to shared-plan subscribers.
    pub shared_chunks_multicast: u64,
    /// Chunk payloads deep-copied anywhere in the fan-out (0 = every
    /// payload travelled by `Arc` reference only).
    pub payload_copies: u64,
    /// Elements shed by shared-plan subscription trees, per tenant (sorted).
    pub shed_per_tenant: Vec<(String, u64)>,
    /// Threads the runtime itself started: ingest supervisors, pumps,
    /// node evaluators, subscribers and query threads (the worker pool
    /// joins its own workers when it drops).
    pub threads_spawned: u64,
    /// Of those, the threads joined before `run_supervised` returned:
    /// anything short of `threads_spawned` is a leak.
    pub threads_joined: u64,
}

/// The channel end a query, or a shared-plan node, pulls from: whole
/// chunked items behind an [`Arc`], never deep-copied per subscriber.
type Rx = Receiver<Arc<ChunkOrMarker<f32>>>;

/// Repair probes by source name: what a query's result reports.
type Probes = Vec<(String, Arc<RepairProbe>)>;

/// Progress shared between an ingest attempt and its supervisor, so a
/// restart can resume behind the last delivered sector.
#[derive(Default)]
struct PumpProgress {
    elements: AtomicU64,
    /// `sector_id + 1` of the last `SectorStart` pumped (0 = none).
    last_sector: AtomicU64,
}

/// What every stage of one run borrows.
struct Runtime<'a> {
    scanner: &'a Scanner,
    n_sectors: u64,
    config: &'a RuntimeConfig,
    /// One source per instrument band — and, once wired, per shared
    /// subplan — used for its schema only.
    schemas: Catalog,
    /// The runtime's one morsel pool (DESIGN.md §17): evaluators run
    /// their data-parallel stage suffix on it, archive replays their
    /// tile decodes, instead of spawning threads of their own.
    pool: Arc<WorkerPool>,
    /// Deep copies of `Arc`-shared chunk payloads across the run: a
    /// consumer had to own what someone else still references.
    copies: Arc<AtomicU64>,
    ledger: ThreadLedger,
}

impl<'a> Runtime<'a> {
    fn new(scanner: &'a Scanner, n_sectors: u64, config: &'a RuntimeConfig) -> Self {
        Runtime {
            scanner,
            n_sectors,
            config,
            schemas: scanner_catalog(scanner, 1),
            pool: Arc::new(WorkerPool::new(config.exec_workers)),
            copies: Arc::new(AtomicU64::new(0)),
            ledger: ThreadLedger::default(),
        }
    }
}

/// Spawned/joined counts of the runtime's (scoped) threads, so a test
/// can assert from outside that none leaked.
#[derive(Default)]
struct ThreadLedger {
    spawned: AtomicU64,
    joined: AtomicU64,
}

impl ThreadLedger {
    fn spawn<'scope, T: Send + 'scope>(
        &self,
        scope: &'scope Scope<'scope, '_>,
        f: impl FnOnce() -> T + Send + 'scope,
    ) -> ScopedJoinHandle<'scope, T> {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        scope.spawn(f)
    }

    fn join<T>(&self, handle: ScopedJoinHandle<'_, T>) -> std::thread::Result<T> {
        let outcome = handle.join();
        self.joined.fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

/// An admitted request: the optimized plan, its delivery format, and
/// the feed of each source leaf (live channels not attached yet).
struct Admitted {
    plan: Plan,
    format: OutputFormat,
    /// Each source leaf and its feed, in leaf order.
    routes: Vec<(String, Feed<()>)>,
}

/// Where a source gets its elements; `L` is its live end.
enum Feed<L = Live> {
    /// The live end alone.
    Live(L),
    /// Archive backfill of `[lo, now)`, spliced into the live channel
    /// at the recorded watermark sector.
    Hybrid { replay: ArchiveReplay, watermark: Option<u64>, live: L },
    /// A wholly-past window: the replay is the source, nothing live.
    Archive(ArchiveReplay),
}

impl Feed<()> {
    /// This route with its live end, made by `live` where it has one.
    fn attach<L>(self, live: impl FnOnce() -> L) -> Feed<L> {
        match self {
            Feed::Live(()) => Feed::Live(live()),
            Feed::Hybrid { replay, watermark, .. } => {
                Feed::Hybrid { replay, watermark, live: live() }
            }
            Feed::Archive(replay) => Feed::Archive(replay),
        }
    }
}

/// The live end of a source.
enum Live {
    /// A channel from a band pump or an upstream shared-plan node.
    Channel(Rx),
    /// A one-shot run's private instance of a catalog source.
    Private(BoxedF32Stream),
}

/// One source of one evaluation, wired but not yet opened.
struct Source {
    name: String,
    feed: Feed,
    /// Band and archive sources are repaired, reporting here; interior
    /// `@share:*` edges were repaired upstream and pass untouched.
    probe: Option<Arc<RepairProbe>>,
}

/// An admitted request after wiring.
enum Slot {
    /// Served by this shared-plan node: counts what its tree delivers,
    /// reports repair facts from the node and everything upstream.
    Member(usize, Rx, Probes),
    /// Evaluates its own pipeline over these sources.
    Own(Box<Plan>, OutputFormat, Vec<Source>),
}

/// One ingested band; its pump fans out through the subscription tree.
struct Band {
    name: String,
    idx: usize,
    id: u16,
    tree: SubscriptionTree,
}

/// A shared-plan DAG node: evaluated once, multicast through its tree.
struct Node {
    plan: Plan,
    tree: SubscriptionTree,
}

/// The hand-off from wiring to the thread stages: every channel and
/// tree edge exists before any thread starts, so none misses a head.
struct Wiring {
    bands: Vec<Band>,
    /// In request order; `Err` for a request admission rejected.
    slots: Vec<Result<Slot>>,
    nodes: Vec<Node>,
    /// The sources of each node, moved into its evaluator thread.
    node_sources: Vec<Vec<Source>>,
}

struct BandReport {
    band_id: u16,
    elements: u64,
    restarts: u32,
    faults: Option<FaultStats>,
}

/// Runs a set of continuous queries over a scanner with shared,
/// supervised ingest (see the module docs for the recovery model):
/// each referenced band is generated once and fanned out. Returns
/// per-query results in request order, plus ingest statistics. The run
/// is staged — admit, wire, ingest, evaluate, collect — on scoped threads.
pub fn run_supervised(
    scanner: &Scanner,
    n_sectors: u64,
    requests: &[ClientRequest],
    config: &RuntimeConfig,
) -> Result<(Vec<Result<QueryResult>>, IngestStats)> {
    prepare_archive(config);
    let mut rt = Runtime::new(scanner, n_sectors, config);
    let admitted = admit(&rt, requests)?;
    let Wiring { bands, slots, nodes, node_sources } = wire(&mut rt, admitted)?;

    let rt = &rt;
    let (results, mut band_reports) = std::thread::scope(|s| {
        let ingest: Vec<_> =
            bands.iter().map(|band| rt.ledger.spawn(s, move || supervise_band(rt, band))).collect();
        let evaluators: Vec<_> = nodes
            .iter()
            .zip(node_sources)
            .map(|(node, sources)| rt.ledger.spawn(s, move || run_node(rt, node, sources)))
            .collect();
        // Subscribers start node by node, in the order their tree wakes
        // them, then the queries with a pipeline of their own. Started
        // interleaved across nodes, 256 subscribers on 2 cores cost 8 %
        // more CPU per point, all futex wake-ups and context switches.
        let mut slots: Vec<_> = slots.into_iter().enumerate().collect();
        slots.sort_by_key(|(_, slot)| match slot {
            Ok(Slot::Member(node, ..)) => *node,
            _ => usize::MAX,
        });
        let mut queries: Vec<_> = slots
            .into_iter()
            .map(|(qid, slot)| {
                let handle = slot.map(|slot| match slot {
                    Slot::Member(_, rx, probes) => {
                        rt.ledger.spawn(s, move || run_member(rt, qid, &rx, &probes))
                    }
                    Slot::Own(plan, format, sources) => {
                        rt.ledger.spawn(s, move || run_own(rt, qid, &plan, format, sources))
                    }
                });
                (qid, handle)
            })
            .collect();
        queries.sort_by_key(|(qid, _)| *qid);
        let results: Vec<Result<QueryResult>> = queries
            .into_iter()
            .map(|(_, q)| {
                rt.ledger
                    .join(q?)
                    .unwrap_or_else(|_| Err(CoreError::Unsupported("query thread panicked".into())))
            })
            .collect();
        let band_reports: Vec<_> =
            ingest.into_iter().filter_map(|h| rt.ledger.join(h).ok()).collect();
        for evaluator in evaluators {
            let _ = rt.ledger.join(evaluator);
        }
        (results, band_reports)
    });

    let mut stats = IngestStats::default();
    band_reports.sort_unstable_by_key(|report| report.band_id);
    for report in band_reports {
        stats.elements_per_band.push((report.band_id, report.elements));
        if report.restarts > 0 {
            stats.restarts_per_band.push((report.band_id, report.restarts));
            stats.restarts += u64::from(report.restarts);
        }
        if let Some(f) = report.faults {
            stats.faults_per_band.push((report.band_id, f));
        }
    }
    for band in &bands {
        stats.shed_elements += band.tree.shed_per_tenant().iter().map(|(_, n)| n).sum::<u64>();
    }
    stats.watchdog_cancellations =
        results.iter().filter(|r| r.as_ref().is_ok_and(|r| r.cancelled)).count() as u64;
    // Shared-plan accounting, from the trees and the run's copy count.
    stats.shared_plans = nodes.len() as u64;
    let mut shed_per_tenant: BTreeMap<String, u64> = BTreeMap::new();
    for node in &nodes {
        stats.shared_chunks_multicast += node.tree.chunks_multicast();
        for (tenant, n) in node.tree.shed_per_tenant() {
            *shed_per_tenant.entry(tenant).or_insert(0) += n;
        }
    }
    stats.shed_per_tenant = shed_per_tenant.into_iter().collect();
    stats.payload_copies = rt.copies.load(Ordering::Relaxed);
    stats.threads_spawned = rt.ledger.spawned.load(Ordering::Relaxed);
    stats.threads_joined = rt.ledger.joined.load(Ordering::Relaxed);
    if let Some(m) = &config.metrics {
        m.share_distinct_plans.set(stats.shared_plans);
        if stats.payload_copies > 0 {
            m.share_payload_copies.add(stats.payload_copies);
        }
        m.record_exec_workers(&rt.pool.stats());
    }
    Ok((results, stats))
}

/// Archive context of a run: metric handles are attached before any
/// query is admitted.
fn prepare_archive(config: &RuntimeConfig) {
    let Some(archive) = &config.archive else { return };
    if let Some(m) = &config.metrics {
        archive.attach_metrics(StoreMetrics::register(m.registry()));
    }
    // Surface what crash recovery did at open, including the
    // committed per-band watermarks hybrid splices hand off at.
    let report = archive.recovery_report();
    if !report.clean() {
        eprintln!(
            "archive recovery: {} frames kept in cut-back segments, {} frames lost \
             (uncommitted), {} bytes discarded, {} segments truncated, {} removed; \
             resuming at watermarks {:?}",
            report.frames_recovered,
            report.frames_discarded,
            report.bytes_discarded,
            report.segments_truncated,
            report.segments_removed,
            report.watermarks,
        );
    }
}

/// Stage 1: admit every request as a registration is, and route its
/// leaves. A refused plan (e.g. a wholly-past window the archive does
/// not cover, or a bound over [`DEFAULT_MEMORY_BUDGET_BYTES`]) gets a
/// `PlanRejected` slot; a parse error or an unknown source fails the run.
fn admit(rt: &Runtime<'_>, requests: &[ClientRequest]) -> Result<Vec<Result<Admitted>>> {
    let (config, catalog) = (rt.config, &rt.schemas);
    // "Now" is the first live sector.
    let now = config.start_sector as i64;
    let archive = config.archive.as_deref();
    let opts = AnalyzeOptions { now: Some(now), replay: archive.map(|a| a as &dyn ReplayProvider) };
    let admit_one = |(qid, req): (usize, &ClientRequest)| -> Result<Result<Admitted>> {
        // Directory entry + flight recorder, minted at admission: the
        // query shows on `GET /queries` and `/trace/<id>` from then on.
        if let Some(m) = &config.metrics {
            m.register_query(qid as u32, &req.query);
        }
        // The run's length is `n_sectors`: a request's own `sectors=`
        // (a one-shot parameter) is not applied here.
        let (_, plan, verdict) =
            admission(&req.query, 0, catalog, &opts, DEFAULT_MEMORY_BUDGET_BYTES)?;
        match verdict {
            Err(e @ CoreError::UnknownSource(_)) => Err(e),
            Err(e) => {
                if let Some(m) = &config.metrics {
                    m.set_query_state(qid as u32, "rejected");
                }
                Ok(Err(e))
            }
            Ok(()) => {
                let routes = route_leaves(&plan, catalog, archive.map(|a| (a, now)), &rt.pool)?;
                Ok(Ok(Admitted { plan, format: req.format, routes }))
            }
        }
    };
    requests.iter().enumerate().map(admit_one).collect()
}

/// The one route from a plan to its sources: each source leaf, in leaf
/// order, with the feed its own restriction chain asks of `archive` at
/// its "now". A wholly-past window replays from the archive alone; one
/// that starts in the past backfills `[lo, now)` and splices into the
/// live feed at the band's watermark; any other leaf is live. The chain
/// stays in the plan, so a replay only pre-filters.
fn route_leaves(
    plan: &Plan,
    catalog: &Catalog,
    archive: Option<(&Archive, i64)>,
    pool: &Arc<WorkerPool>,
) -> Result<Vec<(String, Feed<()>)>> {
    let Some((archive, now)) = archive else {
        return Ok(plan.source_leaves().into_iter().map(|name| (name, Feed::Live(()))).collect());
    };
    let route = |leaf: SourceWindow| {
        let (w, band) = (leaf.window, archive.band_of(&leaf.name));
        let Some(band) = band.filter(|_| w.reaches_before(now)) else {
            return Ok((leaf.name, Feed::Live(())));
        };
        let replay = |hi| -> Result<ArchiveReplay> {
            let replay = archive.replay(band, w.lo, hi, leaf.region.as_ref())?;
            Ok(replay.with_decode_pool(Arc::clone(pool)))
        };
        let feed = match w.wholly_before(now) {
            true => Feed::Archive(replay(w.hi)?),
            false => {
                let watermark = archive.watermark(band).map(|(s, _)| s);
                Feed::Hybrid { replay: replay(Some(now))?, watermark, live: () }
            }
        };
        Ok((leaf.name, feed))
    };
    source_windows(plan, catalog).into_iter().map(route).collect()
}

/// The sources of a one-shot run of `plan` (`Dsms::run_query`), routed
/// as `run_supervised` routes them, and the probes they report into. A
/// live end is a private instance of `catalog`'s source joined at "now"
/// ([`join_at`]), so a splice never serves a sector between the
/// watermark and "now"; it needs no repair, so its completeness is 1.
/// The instance starts at sector 0: the sectors before "now" are
/// synthesized and discarded. A wholly-past leaf opens no live end.
pub(crate) fn private_sources(
    plan: &Plan,
    catalog: &Catalog,
    archive: Option<(&Archive, i64)>,
    pool: &Arc<WorkerPool>,
    metrics: &Arc<ServerMetrics>,
) -> Result<(Catalog, Probes)> {
    let now = archive.map_or(0, |(_, now)| now.max(0) as u64);
    let mut sources = Vec::new();
    for (name, route) in route_leaves(plan, catalog, archive, pool)? {
        let probe = (!matches!(route, Feed::Live(()))).then(Arc::default);
        let feed = match route {
            Feed::Archive(replay) => Feed::Archive(replay),
            route => {
                let live = Live::Private(join_at(catalog.open(&name)?, now));
                route.attach(|| live)
            }
        };
        sources.push(Source { name, feed, probe });
    }
    let cx = SourceCtx { metrics: Some(Arc::clone(metrics)), ..SourceCtx::default() };
    Ok(source_catalog(sources, catalog, &cx))
}

/// Stage 2: decide sharing, then create every channel and tree edge.
///
/// Plan sharing (DESIGN.md §16) groups eligible plans by canonical key
/// and detects subplans shared across them; eligibility is conservative
/// — counting formats, no archive routes, no watchdog — so sharing
/// never changes a result. A query with its own pipeline subscribes
/// once per live-served source leaf (an archive-only source's band need
/// not be ingested at all); a node once per band leaf, its members to
/// its tree instead of any band. A plan that reads a band twice gets
/// two feeds: each leaf is a stream of its own.
fn wire(rt: &mut Runtime<'_>, admitted: Vec<Result<Admitted>>) -> Result<Wiring> {
    let (config, scanner, catalog) = (rt.config, rt.scanner, &mut rt.schemas);
    let metrics = config.metrics.as_ref();
    let depth_of = |qid: usize| metrics.and_then(|m| m.query_depth_gauge(qid as u32));
    let tenant_of = |qid: usize| {
        config.tenants.iter().find(|(i, _)| *i == qid).map_or("default", |(_, t)| t.as_str())
    };

    let sharing = config.share_plans && config.watchdog.is_none();
    let eligible = admitted.iter().enumerate().filter_map(|(qid, a)| {
        let a = a.as_ref().ok()?;
        let live = a.routes.iter().all(|(_, feed)| matches!(feed, Feed::Live(())));
        (sharing && a.format.is_counting() && live).then(|| (qid, (*a.plan).clone()))
    });
    let plan = plan_sharing(&eligible.collect::<Vec<_>>());
    let key_of: HashMap<String, usize> =
        plan.nodes.iter().enumerate().map(|(i, n)| (share_source_name(n.key), i)).collect();
    let deps: Vec<Vec<usize>> = plan
        .nodes
        .iter()
        .map(|n| share_refs(&n.expr).iter().filter_map(|r| key_of.get(r).copied()).collect())
        .collect();
    let member_of: HashMap<usize, usize> = plan
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(i, n)| n.members.iter().map(move |&qid| (qid, i)))
        .collect();
    // One repair probe per (node, band): members report the probes of
    // their node and of every upstream node it consumes.
    let node_probes: Vec<Probes> = plan
        .nodes
        .iter()
        .map(|n| band_refs(&n.expr).into_iter().map(|b| (b, Arc::default())).collect())
        .collect();
    let probes_of = |start: usize| -> Probes {
        let mut seen = vec![false; deps.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut seen[i], true) {
                out.extend(node_probes[i].iter().cloned());
                stack.extend(deps[i].iter().copied());
            }
        }
        out
    };

    // One tree per node, for its member queries and for the interior
    // (node → node) edges of the DAG.
    let multicast_counter = metrics.map(|m| m.share_chunks_multicast.clone());
    let trees: Vec<SubscriptionTree> = plan
        .nodes
        .iter()
        .map(|_| SubscriptionTree::new().with_counter(multicast_counter.clone()))
        .collect();
    let mut band_trees: BTreeMap<String, SubscriptionTree> = BTreeMap::new();
    let shed_counter = metrics.map(|m| m.fanout_shed.clone());
    let mut subscribe = |band: &str, tenant: &str, depth: Option<Gauge>| {
        let tree = band_trees.entry(band.to_string()).or_default();
        Live::Channel(tree.subscribe_query(config.channel_cap, tenant, depth, shed_counter.clone()))
    };
    let mut slots = Vec::new();
    for (qid, admitted) in admitted.into_iter().enumerate() {
        let Admitted { plan: own, format, routes } = match admitted {
            Ok(a) => a,
            Err(e) => {
                slots.push(Err(e));
                continue;
            }
        };
        if let Some(&i) = member_of.get(&qid) {
            let tenant = tenant_of(qid);
            let shed = metrics.map(|m| m.share_shed_counter(tenant));
            let rx = trees[i].subscribe_query(config.channel_cap, tenant, depth_of(qid), shed);
            slots.push(Ok(Slot::Member(i, rx, probes_of(i))));
            continue;
        }
        let sources = routes.into_iter().map(|(name, route)| {
            let feed = route.attach(|| subscribe(&name, tenant_of(qid), depth_of(qid)));
            Source { name, feed, probe: Some(Arc::default()) }
        });
        slots.push(Ok(Slot::Own(Box::new(own), format, sources.collect())));
    }

    // Each node is analyzed once and its schema registered under its
    // `@share:*` source name, producers before consumers (the DAG is
    // acyclic: a cut's body references only smaller subexpressions).
    let mut node_plans: Vec<Option<Plan>> = plan.nodes.iter().map(|_| None).collect();
    while let Some(i) = (0..node_plans.len())
        .find(|&i| node_plans[i].is_none() && deps[i].iter().all(|&d| node_plans[d].is_some()))
    {
        let node = &plan.nodes[i];
        let analyzed = Plan::analyze(node.expr.clone(), catalog);
        let mut schema = Planner::new(catalog).build(&analyzed)?.schema().clone();
        node_plans[i] = Some(analyzed);
        schema.name = share_source_name(node.key);
        let exhausted = schema.clone();
        catalog.register(schema, move || Box::new(ChunkChannel::new(exhausted.clone(), || None)));
    }
    let mut node_sources = Vec::new();
    for (node, probes) in plan.nodes.iter().zip(node_probes) {
        if let Some(m) = metrics {
            m.share_subscribers_gauge(&key_hex(node.key)).set(node.members.len() as u64);
        }
        let mut sources = Vec::new();
        for (name, probe) in probes {
            let feed = Feed::Live(subscribe(&name, "default", None));
            sources.push(Source { name, feed, probe: Some(probe) });
        }
        for name in share_refs(&node.expr) {
            if let Some(&producer) = key_of.get(&name) {
                let live = Live::Channel(trees[producer].subscribe_interior(config.channel_cap));
                sources.push(Source { name, feed: Feed::Live(live), probe: None });
            }
        }
        node_sources.push(sources);
    }
    let nodes = node_plans.into_iter().flatten().zip(trees).map(|(plan, tree)| Node { plan, tree });
    let nodes = nodes.collect();

    let bands = band_trees
        .into_iter()
        .map(|(name, tree)| {
            let idx = scanner
                .instrument
                .bands
                .iter()
                .position(|b| format!("{}.{}", scanner.instrument.name, b.name) == name)
                .ok_or_else(|| CoreError::UnknownSource(name.clone()))?;
            let id = scanner.instrument.bands[idx].id;
            Ok(Band { name, idx, id, tree })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Wiring { bands, slots, nodes, node_sources })
}

/// What the source stacks of one evaluation share: the pull side of
/// its live channels (watchdog deadline and flag, simulated client
/// stall, depth gauge, copy count) and what the optional layers report to.
#[derive(Clone, Default)]
struct SourceCtx {
    deadline: Option<Instant>,
    stall: Option<Duration>,
    cancelled: Arc<AtomicBool>,
    depth: Option<Gauge>,
    copies: Arc<AtomicU64>,
    metrics: Option<Arc<ServerMetrics>>,
    /// Source stacks are span-traced iff a recorder is present.
    recorder: Option<Arc<FlightRecorder>>,
}

impl SourceCtx {
    /// The context of query `qid` — its watchdog clock starts here —
    /// or, with no query, of a shared-plan node: no deadline, no
    /// stall, no gauge, no spans.
    fn new(rt: &Runtime<'_>, qid: Option<usize>) -> SourceCtx {
        let config = rt.config;
        let of_query = config.metrics.as_ref().zip(qid);
        SourceCtx {
            deadline: qid.and(config.watchdog).map(|d| Instant::now() + d),
            stall: qid.and_then(|q| stall_of(config, q)),
            cancelled: Arc::default(),
            depth: of_query.and_then(|(m, q)| m.query_depth_gauge(q as u32)),
            copies: Arc::clone(&rt.copies),
            metrics: config.metrics.clone(),
            recorder: of_query.map(|(m, q)| m.recorder(q as u32)),
        }
    }

    /// True once the deadline has passed. The first observer counts the
    /// cancellation and freezes the flight recorder for the postmortem.
    fn cancelled(&self) -> bool {
        if expired(self.deadline) && !self.cancelled.swap(true, Ordering::SeqCst) {
            if let Some(m) = &self.metrics {
                m.watchdog_cancellations.inc();
            }
            if let Some(rec) = &self.recorder {
                let t = now_ns();
                rec.record_span("watchdog", 0, t, t, 0, SpanOutcome::Cancelled);
                rec.freeze("watchdog");
            }
        }
        self.cancelled.load(Ordering::SeqCst)
    }

    /// The chunk pull over one live channel: polls when a deadline has
    /// to cut through an idle channel and blocks otherwise, ends on
    /// disconnect, and takes each payload copy-on-write — owned
    /// outright as the last reference (single-subscriber channels
    /// always are), deep-copied (counted) otherwise.
    fn pull(self, rx: Rx) -> impl FnMut() -> Option<ChunkOrMarker<f32>> + Send + 'static {
        let mut rx = Some(rx);
        move || loop {
            if self.cancelled() {
                return None;
            }
            let next = match self.deadline {
                Some(_) => rx.as_ref()?.recv_timeout(POLL),
                None => rx.as_ref()?.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(item) => {
                    if let Some(g) = &self.depth {
                        g.sub(1);
                    }
                    // Simulated slow client; sliced so the watchdog can
                    // cut through it.
                    if self.stall.is_some_and(|d| !stall_sliced(d, self.deadline)) {
                        continue;
                    }
                    return Some(Arc::try_unwrap(item).unwrap_or_else(|shared| {
                        self.copies.fetch_add(1, Ordering::Relaxed);
                        (*shared).clone()
                    }));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => rx = None,
            }
        }
    }
}

fn stall_of(config: &RuntimeConfig, qid: usize) -> Option<Duration> {
    config.query_stall.iter().find(|(i, _)| *i == qid).map(|(_, d)| *d)
}

/// Wraps `stream` in a span when the run is traced.
fn spanned(stream: BoxedF32Stream, guard: Option<SpanGuard>, capture_link: bool) -> BoxedF32Stream {
    match guard {
        Some(g) if capture_link => Box::new(SpanStream::new(stream, g).with_link_capture()),
        Some(g) => Box::new(SpanStream::new(stream, g)),
        None => stream,
    }
}

/// The one source stack: live end or replay → [splice] → [repair
/// (+ counters)], each layer under its own span when traced. Spans
/// chain repair ← splice ← scan under the planner's source span
/// (`build_parent`), ids reserved up front because the stack is built
/// inside-out; the scan span captures the first chunk-carried pump
/// context as its cross-trace link.
fn open_source(src: Source, schema: &StreamSchema, cx: &SourceCtx) -> BoxedF32Stream {
    let Source { name, feed, probe } = src;
    let rec = cx.recorder.as_ref();
    let repair_id = rec.map(|r| r.alloc_span());
    let scan = |live: Live, parent: Option<u64>| {
        let guard = rec.zip(parent).map(|(r, p)| r.begin(&format!("scan:{name}"), p));
        let stream: BoxedF32Stream = match live {
            Live::Channel(rx) => Box::new(ChunkChannel::new(schema.clone(), cx.clone().pull(rx))),
            Live::Private(stream) => stream,
        };
        spanned(stream, guard, true)
    };
    let stream = match feed {
        Feed::Live(live) => scan(live, repair_id),
        Feed::Archive(replay) => {
            let guard = rec.zip(repair_id).map(|(r, p)| r.begin(&format!("replay:{name}"), p));
            spanned(Box::new(replay), guard, false)
        }
        Feed::Hybrid { replay, watermark, live } => {
            let splice_id = rec.map(|r| r.alloc_span());
            let live = scan(live, splice_id);
            // The backfill phase is timed, and is a span of its own,
            // closed at the splice switch when its duration is known.
            let store_metrics = cx.metrics.as_ref().map(|m| StoreMetrics::register(m.registry()));
            let backfill = rec.cloned().zip(splice_id).map(|(r, id)| (r, id, now_ns()));
            let label = format!("backfill:{name}");
            let on_switch = (store_metrics.is_some() || backfill.is_some()).then(|| {
                Box::new(move |ns: u64| {
                    if let Some(sm) = &store_metrics {
                        sm.backfill_ns.record(ns);
                    }
                    if let Some((rec, splice_id, start)) = &backfill {
                        let end = start.saturating_add(ns);
                        rec.record_span(&label, *splice_id, *start, end, 0, SpanOutcome::Ok);
                    }
                }) as Box<dyn FnOnce(u64) + Send>
            });
            let spliced = SpliceStream::new(replay, live, watermark, on_switch);
            let guard = rec
                .zip(splice_id)
                .zip(repair_id)
                .map(|((r, id), parent)| r.begin_with_id(id, &format!("splice:{name}"), parent));
            spanned(Box::new(spliced), guard, false)
        }
    };
    let Some(probe) = probe else { return stream };
    let repaired = StreamRepair::with_probe(stream, probe);
    let repaired = match &cx.metrics {
        Some(m) => repaired.with_counters(RepairCounters {
            gaps: m.gaps_detected.clone(),
            duplicates: m.duplicates_dropped.clone(),
            disorder: m.disorder_detected.clone(),
            partial_frames: m.partial_frames.clone(),
        }),
        None => repaired,
    };
    let guard = rec
        .zip(repair_id)
        .map(|(r, id)| r.begin_with_id(id, &format!("repair:{name}"), r.build_parent()));
    spanned(Box::new(repaired), guard, false)
}

/// A catalog (schemas from `schemas`) whose factories open each wired
/// source once — a name wired for two leaves opens twice, each time on
/// a feed of its own, and a later open gets an exhausted stream — plus
/// the repair probes the sources report into.
fn source_catalog(sources: Vec<Source>, schemas: &Catalog, cx: &SourceCtx) -> (Catalog, Probes) {
    let mut probes = Vec::new();
    let mut wired: BTreeMap<String, (StreamSchema, VecDeque<Source>)> = BTreeMap::new();
    for src in sources {
        let Some(schema) = schemas.schema(&src.name) else { continue };
        if let Some(p) = &src.probe {
            probes.push((src.name.clone(), Arc::clone(p)));
        }
        let entry =
            wired.entry(src.name.clone()).or_insert_with(|| (schema.clone(), VecDeque::new()));
        entry.1.push_back(src);
    }
    let mut catalog = Catalog::new();
    for (schema, feeds) in wired.into_values() {
        let slot = Mutex::new(feeds);
        let cx = cx.clone();
        catalog.register(schema.clone(), move || match lock(&slot).pop_front() {
            Some(src) => open_source(src, &schema, &cx),
            None => Box::new(ChunkChannel::new(schema.clone(), || None)),
        });
    }
    (catalog, probes)
}

/// Stage 4a: one evaluator per shared-plan node, multicasting each
/// item Arc-shared: evaluation and protocol checking happen once per
/// chunk however many queries subscribe.
fn run_node(rt: &Runtime<'_>, node: &Node, sources: Vec<Source>) {
    let (catalog, _) = source_catalog(sources, &rt.schemas, &SourceCtx::new(rt, None));
    let eval = Evaluator { qid: 0, catalog: &catalog, pool: &rt.pool, metrics: None };
    let run = eval.count(&node.plan, |item| {
        node.tree.multicast(Arc::new(item.clone()), rt.config.fanout, rt.config.marker_patience);
    });
    // Members terminate when the tree closes, evaluated or not.
    node.tree.close();
    match (run, &rt.config.metrics) {
        (Ok(report), Some(m)) if report.protocol_violations > 0 => {
            m.protocol_violations.add(report.protocol_violations);
        }
        // Cannot happen for admitted plans: all sources are wired.
        (Err(e), _) => eprintln!("shared plan evaluation failed: {e}"),
        _ => {}
    }
}

/// Stage 4b: one lightweight subscriber per member of a shared plan,
/// counting what the shared evaluation delivers — the stream its own
/// pipeline root would have produced — payloads left in their `Arc`.
fn run_member(rt: &Runtime<'_>, qid: usize, rx: &Rx, probes: &Probes) -> Result<QueryResult> {
    let metrics = rt.config.metrics.as_deref();
    let depth = metrics.and_then(|m| m.query_depth_gauge(qid as u32));
    let stall = stall_of(rt.config, qid);
    if let Some(m) = metrics {
        m.set_query_state(qid as u32, "running");
    }
    let started = Instant::now();
    let (mut elements, mut points, mut sectors) = (0u64, 0u64, 0u64);
    while let Ok(item) = rx.recv() {
        if let Some(g) = &depth {
            g.sub(1);
        }
        if let Some(d) = stall {
            // Simulated slow client: backpressure builds in this
            // subscriber's own channel, where the tree sheds per
            // tenant instead of stalling the shared evaluation.
            std::thread::sleep(d);
        }
        elements += item.element_count();
        points += item.point_count() as u64;
        sectors += u64::from(matches!(item.marker(), Some(Marker::SectorEnd(_))));
    }
    let report = RunReport {
        wall: started.elapsed(),
        elements,
        points_delivered: points,
        sectors,
        per_op: Vec::new(),
        pull_latency: HistogramSnapshot::default(),
        protocol_violations: 0,
    };
    conclude(qid as u32, metrics, Ok(Delivered::counted(report)), probes, false)
}

/// Stage 4c: a query evaluating its own pipeline over channel-backed,
/// repaired sources.
fn run_own(
    rt: &Runtime<'_>,
    qid: usize,
    plan: &Plan,
    format: OutputFormat,
    sources: Vec<Source>,
) -> Result<QueryResult> {
    let metrics = rt.config.metrics.as_ref();
    let cx = SourceCtx::new(rt, Some(qid));
    if let Some(m) = metrics {
        m.set_query_state(qid as u32, "running");
    }
    let (catalog, probes) = source_catalog(sources, &rt.schemas, &cx);
    let eval = Evaluator { qid: qid as u32, catalog: &catalog, pool: &rt.pool, metrics };
    // Two known divergences from `Dsms::run_query`, frozen because the
    // benchmark's oracles and `geostreams-digest chaos` pin them (see
    // ROADMAP.md): every image format renders in gray here (`false`;
    // the one-shot path applies the NDVI/thermal color ramps), and an
    // image run returns no report.
    let run = eval.run(plan, format, false);
    let cancelled = cx.cancelled.load(Ordering::SeqCst);
    let mut result = conclude(qid as u32, metrics.map(Arc::as_ref), run, &probes, cancelled)?;
    if !format.is_counting() {
        result.report = None;
    }
    Ok(result)
}

/// Stage 3: one band's supervised ingest. Each attempt runs the pump
/// on a thread of its own (panic isolation); the supervisor inspects
/// its fate and restarts with capped exponential backoff, resuming at
/// the sector after the last one started.
fn supervise_band(rt: &Runtime<'_>, band: &Band) -> BandReport {
    let config = rt.config;
    let metrics = config.metrics.as_ref();
    let name = &band.name;
    // Ingest observability: the shared-ingest runtime records into the
    // reserved `u32::MAX` flight recorder, and each band exports how
    // long its pump has made no progress.
    let rec = metrics.map(|m| m.recorder(u32::MAX));
    let staleness =
        metrics.map(|m| m.registry().gauge("geostreams_band_staleness_ns", &[("band", name)]));
    let mut attempt: u32 = 0;
    let mut start_sector = config.start_sector;
    let mut elements: u64 = 0;
    let mut faults: Option<FaultStats> = None;
    loop {
        let base = rt.scanner.band_stream_from(band.idx, config.start_sector, rt.n_sectors);
        let plan = config.fault_plan.as_ref().map(|p| p.for_attempt(attempt));
        let (probe, stream): (_, BoxedF32Stream) = match plan {
            Some(p) if !p.is_benign() => {
                // Salt by band and attempt: bands sharing a seed
                // degrade independently, and a restarted feed sees a
                // fresh (still deterministic) fault pattern.
                let salt = (u64::from(attempt) << 32) | u64::from(band.id);
                let chaos = ChaosStream::new(base, p, salt);
                (Some(chaos.probe()), Box::new(chaos))
            }
            _ => (None, Box::new(base)),
        };
        // Span chain for this attempt: scan ← chaos ← pump. The pump
        // guard travels into the pump thread, counts points and stamps
        // its context onto every chunk fanned out.
        let span = |stage: &str, parent: Option<&SpanGuard>| {
            let parent = parent.map_or(0, SpanGuard::span_id);
            rec.as_ref().map(|r| r.begin(&format!("{stage}:{name}#{attempt}"), parent))
        };
        let scan = span("scan", None);
        let chaos = probe.as_ref().and_then(|_| span("chaos", scan.as_ref()));
        let pump_span = span("pump", chaos.as_ref().or(scan.as_ref()));
        let progress = PumpProgress::default();
        let panicked = std::thread::scope(|s| {
            let pump = rt.ledger.spawn(s, || {
                pump(stream, &band.tree, &progress, start_sector, config, band.id, pump_span);
            });
            // With metrics attached, the supervisor watches the pump
            // instead of blocking on it, to feed the staleness gauge.
            if let Some(g) = &staleness {
                let mut last_seen = progress.elements.load(Ordering::Relaxed);
                let mut last_progress_ns = now_ns();
                while !pump.is_finished() {
                    std::thread::sleep(POLL);
                    let seen = progress.elements.load(Ordering::Relaxed);
                    if seen != last_seen {
                        last_seen = seen;
                        last_progress_ns = now_ns();
                    }
                    g.set(now_ns().saturating_sub(last_progress_ns));
                }
                g.set(0);
            }
            rt.ledger.join(pump).is_err()
        });
        let attempt_faults = probe.as_ref().map(|p| p.stats());
        elements += progress.elements.load(Ordering::Relaxed);
        let crashed = panicked || attempt_faults.as_ref().is_some_and(|f| f.died || f.truncated);
        if let Some(f) = attempt_faults {
            faults.get_or_insert_with(FaultStats::default).merge(&f);
        }
        for span in [chaos, scan].into_iter().flatten() {
            span.finish(if crashed { SpanOutcome::Error } else { SpanOutcome::Ok });
        }
        if !crashed || attempt >= config.max_restarts {
            break;
        }
        // Supervised restart: resume at the sector after the last one
        // the dead attempt began delivering (the partial sector is
        // lost; queries see it finalized partial by their repair
        // stage).
        attempt += 1;
        start_sector = start_sector.max(progress.last_sector.load(Ordering::Relaxed));
        let backoff = restart_backoff(config, band.id, attempt);
        if let Some(m) = metrics {
            m.ingest_restarts.inc();
            m.ingest_backoff_ms.add(backoff.as_millis() as u64);
        }
        if let Some(rec) = &rec {
            // Failure edge: leave a restart marker span and freeze the
            // ring for postmortem inspection.
            let t = now_ns();
            let reason = if panicked { "panic" } else { "restart" };
            rec.record_span(&format!("{reason}:{name}#{attempt}"), 0, t, t, 0, SpanOutcome::Error);
            rec.freeze(&format!("{reason}:{name}"));
        }
        std::thread::sleep(backoff);
    }
    // Unsubscribe everyone: queries see end-of-stream.
    band.tree.close();
    BandReport { band_id: band.id, elements, restarts: attempt, faults }
}

/// Capped exponential backoff with bounded jitter: SplitMix64 over
/// (band, attempt) maps to a factor in [0.5, 1.5), so bands killed by
/// the same fault burst fan their restarts out instead of hammering
/// the shared archive lock in lockstep — while staying deterministic
/// for replayable supervision tests.
fn restart_backoff(config: &RuntimeConfig, band_id: u16, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let mut z =
        ((u64::from(band_id) << 32) | u64::from(attempt)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
    config.backoff_base.saturating_mul(1u32 << exp).min(BACKOFF_CAP).mul_f64(jitter)
}

/// True when a deadline exists and has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Sleeps `total` in watchdog-sized slices; returns `false` when the
/// deadline passed mid-stall.
fn stall_sliced(total: Duration, deadline: Option<Instant>) -> bool {
    let until = Instant::now() + total;
    while Instant::now() < until {
        if expired(deadline) {
            return false;
        }
        std::thread::sleep(POLL.min(until.saturating_duration_since(Instant::now())));
    }
    true
}

/// `stream` joined at sector `from`, as a band pump joins the downlink
/// and resumes after a restart: nothing goes out before the first
/// `SectorStart` numbered `from` or later, and a point run inside a
/// skipped sector is dropped whole.
fn join_at(mut stream: BoxedF32Stream, from: u64) -> BoxedF32Stream {
    if from == 0 {
        return stream;
    }
    let (schema, mut joined) = (stream.schema().clone(), false);
    Box::new(ChunkChannel::new(schema, move || {
        while !joined {
            let marker = match stream.next_chunk(DEFAULT_CHUNK_BUDGET)? {
                ChunkOrMarker::Marker(m) => Some(m),
                ChunkOrMarker::Chunk(mut c) => {
                    let end = c.end.take();
                    c.recycle();
                    end
                }
            };
            joined = matches!(&marker, Some(Marker::SectorStart(si)) if si.sector_id >= from);
            if joined {
                return marker.map(ChunkOrMarker::Marker);
            }
        }
        stream.next_chunk(DEFAULT_CHUNK_BUDGET)
    }))
}

/// One ingest attempt: drains the stream into every live subscriber,
/// joining it at `start_sector` (restart resume). When an
/// archive is attached, every delivered element (post-chaos, i.e. what
/// the downlink actually produced) is also persisted.
fn pump(
    stream: BoxedF32Stream,
    subscribers: &SubscriptionTree,
    progress: &PumpProgress,
    start_sector: u64,
    config: &RuntimeConfig,
    band_id: u16,
    mut span: Option<SpanGuard>,
) {
    let points_counter = config.metrics.as_ref().map(|m| m.points_ingested.clone());
    // Causal identity stamped onto every chunk this pump fans out, so
    // subscribing queries can link their scan span back to this pump.
    let ctx: Option<TraceContext> = span.as_ref().map(SpanGuard::ctx);
    let mut archive = config.archive.clone();
    if let Some(a) = &archive {
        if let Err(e) = a.bind_band(stream.schema()) {
            eprintln!("archive: bind band {band_id} failed, persistence disabled: {e}");
            archive = None;
        }
    }
    // Restart resume: nothing before `start_sector` goes out.
    let mut stream = join_at(stream, start_sector);
    while let Some(mut item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        if let ChunkOrMarker::Chunk(c) = &mut item {
            c.ctx = ctx;
        }
        if let Some(Marker::SectorStart(si)) = item.marker() {
            progress.last_sector.store(si.sector_id + 1, Ordering::Relaxed);
        }
        progress.elements.fetch_add(item.element_count(), Ordering::Relaxed);
        let n_points = item.point_count() as u64;
        if n_points > 0 {
            if let Some(c) = &points_counter {
                c.add(n_points);
            }
            if let Some(s) = &mut span {
                s.add_points(n_points);
            }
        }
        if let Some(a) = &archive {
            if let Err(e) = a.ingest_chunk(band_id, &item) {
                eprintln!("archive: ingest on band {band_id} failed, persistence disabled: {e}");
                archive = None;
            }
        }
        // One Arc wrap per item: subscribers share the payload and the
        // consumer side takes ownership copy-on-write.
        subscribers.multicast(Arc::new(item), config.fanout, config.marker_patience);
    }
    if let Some(a) = &archive {
        let _ = a.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Dsms;
    use geostreams_core::query::{optimize, parse_query};
    use geostreams_geo::{map_region, Cell, Crs, LatticeGeoref, Rect, Region};
    use geostreams_satsim::goes_like;
    use geostreams_store::{ArchiveConfig, Codec};
    use std::path::PathBuf;

    fn req(q: &str, format: OutputFormat) -> ClientRequest {
        ClientRequest { query: q.to_string(), format, sectors: 0 }
    }

    /// Lossless delivery, no watchdog, a clean feed.
    fn lossless() -> RuntimeConfig {
        RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() }
    }

    #[test]
    fn shared_ingest_runs_multiple_queries() {
        let scanner = goes_like(32, 16, 5);
        let requests = vec![
            req("restrict_value(goes-sim.b4-ir, 0, 1)", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
            req("goes-sim.b3-wv", OutputFormat::PngGray),
        ];
        let (results, stats) = run_supervised(&scanner, 2, &requests, &lossless()).unwrap();
        assert_eq!(results.len(), 3);
        let r0 = results[0].as_ref().unwrap();
        assert_eq!(r0.report.as_ref().unwrap().points_delivered, 2 * 8 * 4);
        let r2 = results[2].as_ref().unwrap();
        assert_eq!(r2.frames.len(), 2);
        // Band 4 was ingested once despite two subscribers.
        let b4 = stats.elements_per_band.iter().find(|(id, _)| *id == 4).unwrap();
        assert!(b4.1 > 0);
        assert_eq!(stats.elements_per_band.len(), 2, "only referenced bands ingest");
        // Clean feed: no recovery actions.
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.shed_elements, 0);
        assert_eq!(stats.watchdog_cancellations, 0);
    }

    #[test]
    fn cross_band_query_over_shared_ingest() {
        let scanner = goes_like(32, 16, 5);
        let requests = vec![req(
            "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))",
            OutputFormat::PngNdvi,
        )];
        let (results, _) = run_supervised(&scanner, 1, &requests, &lossless()).unwrap();
        let r = results[0].as_ref().unwrap();
        assert_eq!(r.frames.len(), 1);
        assert!(geostreams_raster::png::decode(&r.frames[0].png).is_ok());
    }

    #[test]
    fn unknown_source_fails_before_spawning() {
        let scanner = goes_like(8, 4, 1);
        let err =
            run_supervised(&scanner, 1, &[req("nosuch.band", OutputFormat::Stats)], &lossless());
        assert!(matches!(err, Err(CoreError::UnknownSource(_))));
    }

    #[test]
    fn query_ids_follow_request_order() {
        let scanner = goes_like(16, 8, 1);
        let requests = vec![
            req("goes-sim.b4-ir", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
            req("goes-sim.b5-ir", OutputFormat::Stats),
        ];
        let (results, _) = run_supervised(&scanner, 1, &requests, &lossless()).unwrap();
        let ids: Vec<u32> = results.iter().map(|r| r.as_ref().unwrap().id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn injected_death_triggers_supervised_restart() {
        let scanner = goes_like(32, 16, 1);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            // Kill the feed partway through sector 1 of 3.
            fault_plan: Some(FaultPlan::seeded(7).with_death_after(60)),
            backoff_base: Duration::from_millis(1),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let (results, stats) =
            run_supervised(&scanner, 3, &[req("goes-sim.b4-ir", OutputFormat::Stats)], &config)
                .unwrap();
        let r = results[0].as_ref().unwrap();
        assert!(r.report.is_some());
        assert_eq!(stats.restarts, 1, "{stats:?}");
        assert_eq!(metrics.ingest_restarts.get(), 1);
        assert!(stats.faults_per_band.iter().any(|(_, f)| f.died));
        // The feed resumed: later sectors were delivered after the
        // crash (the query still saw data past the cut).
        assert!(r.report.as_ref().unwrap().points_delivered > 0);
    }

    #[test]
    fn watchdog_cancels_hung_query_without_stalling_sibling() {
        let scanner = goes_like(32, 16, 5);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            watchdog: Some(Duration::from_millis(300)),
            // Query 1 "processes" each element for 10s: hopelessly
            // wedged, must be cancelled, not waited for.
            query_stall: vec![(1, Duration::from_secs(10))],
            marker_patience: Duration::from_millis(50),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let requests = vec![
            req("goes-sim.b4-ir", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
        ];
        let started = Instant::now();
        let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();
        // The healthy sibling on the same band is complete and correct.
        let r0 = results[0].as_ref().unwrap();
        assert!(!r0.cancelled);
        assert_eq!(r0.report.as_ref().unwrap().points_delivered, 2 * 8 * 4);
        // The wedged query was cancelled, and nobody waited 10s.
        let r1 = results[1].as_ref().unwrap();
        assert!(r1.cancelled);
        assert_eq!(stats.watchdog_cancellations, 1);
        assert_eq!(metrics.watchdog_cancellations.get(), 1);
        assert!(started.elapsed() < Duration::from_secs(8), "watchdog failed to cut through");
    }

    #[test]
    fn chaotic_feed_yields_partial_frames_with_completeness() {
        let scanner = goes_like(32, 16, 5);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            fault_plan: Some(
                FaultPlan::seeded(42)
                    .with_dropped_rows(0.1)
                    .with_dropped_points(0.05)
                    .with_dropped_end_markers(0.1)
                    .with_duplicates(0.05),
            ),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let (results, _) =
            run_supervised(&scanner, 4, &[req("goes-sim.b4-ir", OutputFormat::Stats)], &config)
                .unwrap();
        let r = results[0].as_ref().unwrap();
        let repair = &r.repair[0];
        assert!(repair.stats.completeness() < 1.0);
        assert!(repair.stats.completeness() > 0.5);
        assert!(!repair.sectors.is_empty());
        for s in &repair.sectors {
            assert!(s.ratio() <= 1.0);
        }
        assert!(metrics.gaps_detected.get() > 0);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let run = || {
            let scanner = goes_like(32, 16, 5);
            let config = RuntimeConfig {
                fault_plan: Some(
                    FaultPlan::seeded(9)
                        .with_dropped_rows(0.1)
                        .with_dropped_points(0.05)
                        .with_duplicates(0.05)
                        .with_reordering(0.05),
                ),
                // Big enough that timing can never shed.
                channel_cap: 1 << 16,
                ..RuntimeConfig::default()
            };
            let requests = vec![
                req("goes-sim.b4-ir", OutputFormat::Stats),
                req("goes-sim.b1-vis", OutputFormat::PngGray),
            ];
            run_supervised(&scanner, 3, &requests, &config).unwrap()
        };
        let (a, _) = run();
        let (b, _) = run();
        let a0 = a[0].as_ref().unwrap();
        let b0 = b[0].as_ref().unwrap();
        assert_eq!(
            a0.report.as_ref().unwrap().points_delivered,
            b0.report.as_ref().unwrap().points_delivered
        );
        let a1 = a[1].as_ref().unwrap();
        let b1 = b[1].as_ref().unwrap();
        assert_eq!(a1.frames.len(), b1.frames.len());
        for (fa, fb) in a1.frames.iter().zip(&b1.frames) {
            assert_eq!(fa.png, fb.png, "frame bytes must be identical across runs");
        }
        assert_eq!(
            a0.repair.first().map(|r| r.stats.clone()),
            b0.repair.first().map(|r| r.stats.clone())
        );
    }

    /// A delivered point: its cell and its value's bits.
    type Bits = (Cell, u32);

    /// The points of every chunk in `item`, in stream order.
    fn bits_of(item: &ChunkOrMarker<f32>, out: &mut Vec<Bits>) {
        if let ChunkOrMarker::Chunk(c) = item {
            out.extend(c.points.iter().map(|p| (p.cell, p.value.to_bits())));
        }
    }

    /// A lossless archive (in a fresh directory the caller removes) of
    /// sectors `[0, n_sectors)` of band `idx`, so archived and live
    /// values are bit-identical.
    fn lossless_archive(scanner: &Scanner, idx: usize, n_sectors: u64) -> (PathBuf, Archive, u16) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gs-routes-{}-{seq}", std::process::id()));
        let config = ArchiveConfig { codec: Codec::LosslessF32, ..ArchiveConfig::new(&dir) };
        let archive = Archive::create(config).unwrap();
        let mut stream = scanner.band_stream(idx, n_sectors);
        let band = stream.schema().band;
        archive.bind_band(stream.schema()).unwrap();
        while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
            archive.ingest_chunk(band, &item).unwrap();
        }
        archive.flush().unwrap();
        (dir, archive, band)
    }

    /// Admits, wires and evaluates one counting request as
    /// `run_supervised` does, returning the points it delivers.
    fn delivered_bits(
        scanner: &Scanner,
        n_sectors: u64,
        q: &str,
        config: &RuntimeConfig,
    ) -> Vec<Bits> {
        prepare_archive(config);
        let mut rt = Runtime::new(scanner, n_sectors, config);
        let admitted = admit(&rt, &[req(q, OutputFormat::Stats)]).unwrap();
        let Wiring { bands, slots, .. } = wire(&mut rt, admitted).unwrap();
        let Some(Ok(Slot::Own(plan, _, sources))) = slots.into_iter().next() else {
            panic!("{q}: not admitted to a pipeline of its own");
        };
        let rt = &rt;
        let mut out = Vec::new();
        std::thread::scope(|s| {
            for band in &bands {
                s.spawn(move || supervise_band(rt, band));
            }
            let (catalog, _) = source_catalog(sources, &rt.schemas, &SourceCtx::new(rt, Some(0)));
            let eval = Evaluator { qid: 0, catalog: &catalog, pool: &rt.pool, metrics: None };
            eval.count(&plan, |item| bits_of(item, &mut out)).unwrap();
        });
        out
    }

    /// Admits one query as `Dsms::register` does with `archive` attached
    /// at `now`, and evaluates it over the sources `Dsms::run_query`
    /// opens, the catalog's downlink holding sectors `[0, 4)`.
    fn one_shot_bits(scanner: &Scanner, q: &str, archive: &Archive, now: i64) -> Vec<Bits> {
        let catalog = scanner_catalog(scanner, 4);
        let opts = AnalyzeOptions { now: Some(now), replay: Some(archive as &dyn ReplayProvider) };
        let (_, plan, verdict) =
            admission(q, 0, &catalog, &opts, DEFAULT_MEMORY_BUDGET_BYTES).unwrap();
        verdict.unwrap();
        let pool = Arc::new(WorkerPool::new(0));
        let metrics = Arc::new(ServerMetrics::new());
        let (sources, _) =
            private_sources(&plan, &catalog, Some((archive, now)), &pool, &metrics).unwrap();
        let mut out = Vec::new();
        let eval = Evaluator { qid: 0, catalog: &sources, pool: &pool, metrics: None };
        eval.count(&plan, |item| bits_of(item, &mut out)).unwrap();
        out
    }

    /// The box around cells `from..=to` of `lattice`, drawn halfway
    /// between cell centres, in the lattice's CRS.
    fn cell_box(lattice: &LatticeGeoref, from: Cell, to: Cell) -> Rect {
        let (a, b) = (lattice.cell_to_world(from), lattice.cell_to_world(to));
        let (hx, hy) = (lattice.step_x.abs() / 2.0, lattice.step_y.abs() / 2.0);
        Rect::new(a.x.min(b.x) - hx, a.y.min(b.y) - hy, a.x.max(b.x) + hx, a.y.max(b.y) + hy)
    }

    /// The archive routes of both entry points against a full-history
    /// replay. Each plan shape is admitted with its window wholly past
    /// (`[1, 3)`, now 4, the archive holding sectors `[0, 4)`) and hybrid
    /// (`[1, 4)`, now 2, the archive holding `[0, 2)` and the downlink
    /// the rest). On both routes — `run_supervised`'s channels and the
    /// private sources of `Dsms::run_query` — each must deliver the
    /// (cell, bits) points that the same optimized plan delivers over a
    /// replay of the whole four-sector history. A third, hybrid row has
    /// an archive that stops short of now (it holds sector 0 only):
    /// sector 1 is lost, and both routes must deliver the same bits
    /// without it. The rows cover a restriction that must
    /// widen across an operator (stretch, focal, downsample, magnify, a
    /// lat/lon box across reproject), one that must reach back in time
    /// (`delay`, `agg_time`), and one band read by two leaves with
    /// different windows.
    #[test]
    fn archive_routes_deliver_what_a_full_history_replay_delivers() {
        const B4: usize = 3;
        let scanner = goes_like(64, 32, 11);
        let g = "goes-sim.b4-ir";
        let lattice = scanner.band_stream(B4, 1).schema().sector_lattice.unwrap();
        // A quarter cell past cells (3, 1)..=(10, 5): a 2× block
        // centred inside straddles its edge.
        let quarter = lattice.step_x.abs().min(lattice.step_y.abs()) / 4.0;
        let inner = cell_box(&lattice, Cell::new(3, 1), Cell::new(10, 5)).expand(quarter);
        let r = format!(
            "bbox({}, {}, {}, {}), \"{}\"",
            inner.x_min, inner.y_min, inner.x_max, inner.y_max, lattice.crs
        );
        let ll = map_region(&Region::Rect(inner), &lattice.crs, &Crs::LatLon, 16).unwrap();
        let l = format!("bbox({}, {}, {}, {}), \"latlon\"", ll.x_min, ll.y_min, ll.x_max, ll.y_max);
        let shapes = [
            format!("restrict_space(stretch({g}, \"linear\", \"frame\"), {r})"),
            format!("restrict_space(focal({g}, \"mean\", 3), {r})"),
            format!("restrict_space(downsample({g}, 2), {r})"),
            format!("agg_time({g}, \"mean\", 2)"),
            format!("delay({g}, 1)"),
            format!("restrict_space(magnify({g}, 2), {r})"),
            format!("restrict_space(reproject({g}, \"latlon\"), {l})"),
            format!("add({g}, delay({g}, 1))"),
        ];

        // The reference: every plan over a replay of the whole history.
        let (full_dir, full, band) = lossless_archive(&scanner, B4, 4);
        let full = Arc::new(full);
        let mut history = Catalog::new();
        let schema = full.replay(band, None, None, None).unwrap().schema().clone();
        history.register(schema, move || Box::new(full.replay(band, None, None, None).unwrap()));
        let schemas = scanner_catalog(&scanner, 1);

        let mut wrong = Vec::new();
        let modes = [
            ("wholly past", 4, 4, "interval(1, 3)"),
            ("hybrid", 2, 2, "interval(1, 4)"),
            ("hybrid, archive short of now", 1, 2, "interval(1, 4)"),
        ];
        for (mode, archived, now, window) in modes {
            for shape in &shapes {
                let q = format!("restrict_time({shape}, {window})");
                let (dir, archive, _) = lossless_archive(&scanner, B4, archived);
                let archive = Arc::new(archive);
                // The supervised run persists its live sectors: it goes
                // second.
                let one_shot = one_shot_bits(&scanner, &q, &archive, now as i64);
                let config = RuntimeConfig {
                    archive: Some(archive),
                    start_sector: now,
                    ..RuntimeConfig::default()
                };
                let supervised = delivered_bits(&scanner, 4 - now, &q, &config);
                let _ = std::fs::remove_dir_all(&dir);
                let expected = match archived < now {
                    true => supervised.clone(),
                    false => {
                        let plan = optimize(&parse_query(&q).unwrap(), &schemas);
                        let mut expected = Vec::new();
                        let mut reference = Planner::new(&history).build(&plan).unwrap();
                        while let Some(item) = reference.next_chunk(DEFAULT_CHUNK_BUDGET) {
                            bits_of(&item, &mut expected);
                        }
                        expected
                    }
                };
                assert!(!expected.is_empty(), "{mode}: {q} selects nothing");
                for (route, got) in [("run_supervised", supervised), ("run_query", one_shot)] {
                    if got != expected {
                        wrong.push(format!("{mode}, {route}: {q}"));
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&full_dir);
        assert!(
            wrong.is_empty(),
            "routes that differ from the full history:\n{}",
            wrong.join("\n")
        );
    }

    /// `run_supervised` admits through the server's one admission: a plan
    /// over the per-query budget — `agg_time` at the paper's frame size —
    /// is refused with the text registration refuses it with. Nothing
    /// runs.
    #[test]
    fn supervised_admission_refuses_what_registration_refuses() {
        let scanner = goes_like(20_840, 10_820, 1);
        let q = "agg_time(goes-sim.b1-vis, \"mean\", 3)";
        let config = RuntimeConfig::default();
        let admitted = admit(&Runtime::new(&scanner, 1, &config), &[req(q, OutputFormat::Stats)]);
        let admitted = admitted.unwrap().pop().unwrap().err();
        let registered = Dsms::over_scanner(&scanner, 1).register_text(q, OutputFormat::Stats, 0);
        match (admitted, registered) {
            (Some(CoreError::PlanRejected(a)), Err(CoreError::PlanRejected(b))) => {
                assert!(a.contains("exceeds the per-query budget"), "{a}");
                assert_eq!(a, b);
            }
            (a, b) => panic!("both must refuse: {a:?} / {b:?}"),
        }
    }
}
