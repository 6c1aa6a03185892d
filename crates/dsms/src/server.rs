//! The DSMS server: query registration and execution.

use crate::eval::{conclude, Evaluator};
use crate::metrics::ServerMetrics;
use crate::protocol::{ClientRequest, OutputFormat};
use crate::share::{lock, ShareRegistry, TenantQuota};
use geostreams_core::exec::{RunReport, WorkerPool};
use geostreams_core::model::GeoStream;
use geostreams_core::ops::delivery::DeliveredFrame;
use geostreams_core::query::{
    canonical_key, key_hex, optimize_with, parse_query, AnalyzeOptions, Catalog, Expr, Plan,
    PlanReport, ReplayProvider,
};
use geostreams_core::stats::OpReport;
use geostreams_core::{CoreError, Result};
use geostreams_satsim::Scanner;
use geostreams_store::{Archive, StoreMetrics};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-query worst-case memory budget: 1 GiB.
pub const DEFAULT_MEMORY_BUDGET_BYTES: u64 = 1 << 30;

/// A registered continuous query.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    /// Server-assigned query id.
    pub id: u32,
    /// Original query text.
    pub text: String,
    /// Parsed expression.
    pub expr: Expr,
    /// Optimized plan actually executed; its report is the admission
    /// evidence.
    pub optimized: Plan,
    /// Delivery format.
    pub format: OutputFormat,
    /// Sectors to run.
    pub sectors: u64,
    /// Canonical plan key (16 hex digits): queries with equal keys
    /// share one evaluated pipeline under swarm mode (DESIGN.md §16).
    pub canonical_key: String,
    /// Owning tenant (`"default"` unless registered via
    /// [`Dsms::register_as`]).
    pub tenant: String,
}

/// The answer to an `EXPLAIN` request: the plan as the server would run
/// it, its static analysis, and the admission verdict — without
/// executing anything.
#[derive(Debug, Clone, Serialize)]
pub struct Explanation {
    /// Original query text.
    pub query: String,
    /// Optimized algebra expression (re-parsable text form).
    pub optimized: String,
    /// Static plan analysis of the optimized expression.
    pub report: PlanReport,
    /// Whether registration would admit this plan.
    pub admitted: bool,
    /// The budget the admission decision was made against.
    pub budget_bytes: u64,
    /// Canonical plan key (16 hex digits).
    pub canonical_key: String,
    /// Live queries currently subscribed to this exact plan.
    pub shared_with: u64,
    /// A structurally-equal plan was live when this was explained.
    pub cache_hit: bool,
}

/// Stream-repair outcome of one source feeding a query (supervised
/// runs; see [`crate::continuous`]).
#[derive(Debug, Clone, Serialize)]
pub struct SourceRepair {
    /// Source (band) name.
    pub source: String,
    /// Cumulative repair counters.
    pub stats: geostreams_core::model::RepairStats,
    /// Per-sector completeness records.
    pub sectors: Vec<geostreams_core::model::SectorCompleteness>,
}

/// Result of running one continuous query to completion.
#[derive(Debug)]
pub struct QueryResult {
    /// The query that ran (request-order index under
    /// [`crate::continuous::run_supervised`], server id otherwise).
    pub id: u32,
    /// Delivered PNG frames (empty for `Stats` format).
    pub frames: Vec<DeliveredFrame>,
    /// Executor report (per-operator stats); `None` for an image run
    /// under [`crate::continuous::run_supervised`].
    pub report: Option<RunReport>,
    /// Points delivered by the pipeline root.
    pub points: u64,
    /// Per-source repair/completeness outcome (empty when the run was
    /// unsupervised or the sources needed no repair accounting).
    pub repair: Vec<SourceRepair>,
    /// The per-query watchdog cancelled this query before its sources
    /// ended; delivered frames up to the deadline are still present.
    pub cancelled: bool,
}

/// The prototype DSMS server of §4.
pub struct Dsms {
    catalog: Arc<Catalog>,
    queries: Mutex<Vec<QueryHandle>>,
    next_id: Mutex<u32>,
    /// Per-query worst-case memory budget for admission control.
    budget_bytes: AtomicU64,
    /// Attached raster archive and the "now" timestamp admissions are
    /// decided against (`GET /archive`, replay-aware plan analysis).
    archive: Mutex<Option<(Arc<Archive>, i64)>>,
    /// Server metrics (shared with query threads).
    pub metrics: Arc<ServerMetrics>,
    /// Sharing bookkeeping: live plans by canonical key, tenant quotas,
    /// and the `GET /share` subscription topology.
    share: ShareRegistry,
}

impl Dsms {
    /// Builds a server over a scanner: every instrument band becomes a
    /// catalog source named `<instrument>.<band>`, streaming `n_sectors`
    /// scan sectors per query execution.
    pub fn over_scanner(scanner: &Scanner, n_sectors: u64) -> Self {
        Self::over_catalog(scanner_catalog(scanner, n_sectors))
    }

    /// Builds a server over an existing catalog.
    pub fn over_catalog(catalog: Catalog) -> Self {
        Dsms {
            catalog: Arc::new(catalog),
            queries: Mutex::new(Vec::new()),
            next_id: Mutex::new(1),
            budget_bytes: AtomicU64::new(DEFAULT_MEMORY_BUDGET_BYTES),
            archive: Mutex::new(None),
            metrics: Arc::new(ServerMetrics::new()),
            share: ShareRegistry::new(),
        }
    }

    /// The sharing registry: live plans, tenant usage, `/share`
    /// topology.
    pub fn share(&self) -> &ShareRegistry {
        &self.share
    }

    /// Sets (or replaces) a tenant's admission quota.
    pub fn set_tenant_quota(&self, tenant: &str, quota: TenantQuota) {
        self.share.set_quota(tenant, quota);
    }

    /// The server's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Sets the per-query worst-case memory budget. Registrations whose
    /// static buffer bound exceeds it are refused; already-registered
    /// queries are unaffected.
    pub fn set_memory_budget(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// The current per-query memory budget in bytes.
    pub fn memory_budget(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Attaches a tiled raster archive: plan analysis becomes
    /// replay-aware (a temporal restriction reaching before `now` is
    /// classified against the archive's coverage), `GET /archive`
    /// serves its statistics, and `geostreams_store_*` metrics land on
    /// this server's `/metrics` endpoint.
    pub fn attach_archive(&self, archive: Arc<Archive>, now: i64) {
        archive.attach_metrics(StoreMetrics::register(self.metrics.registry()));
        *lock(&self.archive) = Some((archive, now));
    }

    /// The attached archive, if any.
    pub fn archive(&self) -> Option<Arc<Archive>> {
        lock(&self.archive).as_ref().map(|(a, _)| Arc::clone(a))
    }

    /// Optimizes and analyzes a plan in the server's temporal context:
    /// with an archive attached, replay classification runs against its
    /// coverage; without one, the analysis is context-free.
    fn optimize(&self, expr: &Expr) -> Plan {
        let archive = lock(&self.archive).clone();
        let opts = AnalyzeOptions {
            now: archive.as_ref().map(|(_, now)| *now),
            replay: archive.as_ref().map(|(a, _)| a.as_ref() as &dyn ReplayProvider),
        };
        optimize_with(expr, &self.catalog, &opts)
    }

    /// The canonical key of a plan, and whether a structurally-equal
    /// plan is live (counted in `plan_cache_hits`).
    fn live_key(&self, plan: &Plan) -> (u64, bool) {
        let key = canonical_key(plan);
        let live = self.share.subscribers_of(key) > 0;
        if live {
            self.metrics.plan_cache_hits.inc();
        }
        (key, live)
    }

    /// Registers a query from a parsed client request (as the
    /// `"default"` tenant).
    pub fn register(&self, request: &ClientRequest) -> Result<QueryHandle> {
        self.register_as("default", request)
    }

    /// Registers a query on behalf of `tenant`, enforcing the tenant's
    /// [`TenantQuota`] with sharing-aware accounting: subscribing to a
    /// plan another of the tenant's queries already holds charges its
    /// buffer bound once, not per subscription.
    pub fn register_as(&self, tenant: &str, request: &ClientRequest) -> Result<QueryHandle> {
        match self.register_inner(tenant, request) {
            Ok(h) => {
                self.metrics.queries_registered.inc();
                Ok(h)
            }
            Err(e) => {
                self.metrics.queries_rejected.inc();
                Err(e)
            }
        }
    }

    fn register_inner(&self, tenant: &str, request: &ClientRequest) -> Result<QueryHandle> {
        let expr = parse_request(&request.query, request.sectors)?;
        known_sources(&expr, &self.catalog)?;
        let plan = self.optimize(&expr);
        // Admission control (§3's cost analysis, enforced): reject plans
        // with error diagnostics, no static buffer bound, or a bound
        // over the server's per-query memory budget.
        let (key, _) = self.live_key(&plan);
        self.admission_check(&plan)?;
        let mut id_guard = lock(&self.next_id);
        let id = *id_guard;
        *id_guard += 1;
        drop(id_guard);
        // Tenant quotas (sharing-aware): this can still refuse the
        // query even though the plan itself is admissible.
        let report = plan.report();
        let bytes = report.peak_buffer_bytes.unwrap_or(0);
        self.share.admit(tenant, key, &report.sharing.canonical_text, bytes, id)?;
        let others = self.share.subscribers_of(key).saturating_sub(1);
        let handle = QueryHandle {
            id,
            text: request.query.clone(),
            expr,
            optimized: plan.shared_with(others),
            format: request.format,
            sectors: request.sectors,
            canonical_key: key_hex(key),
            tenant: tenant.to_string(),
        };
        lock(&self.queries).push(handle.clone());
        // Observability: directory entry plus flight recorder, so the
        // query shows on `GET /queries` and is traceable via
        // `GET /trace/<id>` from registration on.
        self.metrics.register_query(id, &request.query);
        Ok(handle)
    }

    /// The admission decision for an analyzed plan: its
    /// [`Plan::verdict`], then the static buffer bound against the
    /// per-query memory budget.
    fn admission_check(&self, plan: &Plan) -> Result<()> {
        plan.verdict()?;
        let budget = self.memory_budget();
        match plan.report().peak_buffer_bytes {
            None => Err(CoreError::PlanRejected("plan has no static buffer bound".to_string())),
            Some(bytes) if bytes > budget => Err(CoreError::PlanRejected(format!(
                "worst-case buffering of {bytes} bytes exceeds the per-query budget of \
                 {budget} bytes"
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Statically explains a query without running it: parse, optimize
    /// (which analyzes), and report the admission verdict against the
    /// current budget. Fails only when the query does not parse; an
    /// unknown source is a diagnostic of the report.
    pub fn explain(&self, request: &ClientRequest) -> Result<Explanation> {
        let expr = parse_request(&request.query, request.sectors)?;
        let plan = self.optimize(&expr);
        let (key, cache_hit) = self.live_key(&plan);
        let plan = plan.shared_with(self.share.subscribers_of(key));
        Ok(Explanation {
            query: request.query.clone(),
            optimized: plan.to_string(),
            admitted: self.admission_check(&plan).is_ok(),
            budget_bytes: self.memory_budget(),
            canonical_key: key_hex(key),
            shared_with: plan.report().sharing.shared_with,
            cache_hit,
            report: plan.report().clone(),
        })
    }

    /// Unregisters a query: drops its handle, releases its sharing
    /// subscription (refunding the tenant's charge on the tenant's
    /// last reference, and tearing down the plan's entry when no
    /// subscriber remains), and marks its directory entry. Returns
    /// `false` for unknown ids.
    pub fn unregister(&self, id: u32) -> bool {
        let known = self.forget(id);
        if known {
            self.metrics.set_query_state(id, "released");
        }
        known
    }

    /// Drops a query's handle and sharing subscription, leaving its
    /// directory entry as it stands.
    fn forget(&self, id: u32) -> bool {
        let mut queries = lock(&self.queries);
        let before = queries.len();
        queries.retain(|h| h.id != id);
        let known = queries.len() != before;
        drop(queries);
        self.share.release(id);
        known
    }

    /// Registers a query given as raw algebra text.
    pub fn register_text(
        &self,
        query: &str,
        format: OutputFormat,
        sectors: u64,
    ) -> Result<QueryHandle> {
        self.register(&ClientRequest { query: query.to_string(), format, sectors })
    }

    /// Currently registered queries.
    pub fn registered(&self) -> Vec<QueryHandle> {
        lock(&self.queries).clone()
    }

    /// Runs one registered query to completion (synchronously), on
    /// private instances of its sources: the same evaluator as the
    /// supervised runtime, inline on the calling thread.
    ///
    /// The run is traced, every operator in place: the returned report
    /// carries per-op pull/frame latency histograms, the query's spans
    /// land in its flight recorder (`GET /trace/<id>`), and its wall
    /// time is recorded in the `geostreams_query_wall_ns` histogram.
    pub fn run_query(&self, handle: &QueryHandle) -> Result<QueryResult> {
        let pool = WorkerPool::new(0);
        let metrics = &self.metrics;
        let eval = Evaluator {
            qid: handle.id,
            catalog: &self.catalog,
            pool: &pool,
            metrics: Some(metrics),
        };
        metrics.set_query_state(handle.id, "running");
        let started = Instant::now();
        // `true`: NDVI/thermal frames get their color ramps here, while
        // `run_supervised` renders every image format in gray (and
        // returns no report for one): known divergences, frozen because
        // `bench/` pins both sides (see ROADMAP.md).
        let run = eval.run(&handle.optimized, handle.format, true);
        if let Ok(delivered) = &run {
            let per_op = &delivered.report.per_op;
            metrics.frames_delivered.add(delivered.frames.len() as u64);
            metrics.bytes_delivered.add(delivered.frames.iter().map(|f| f.png.len() as u64).sum());
            // Sources are private to this run, so what they emitted is
            // what the server ingested for it.
            metrics.points_ingested.add(source_points(per_op));
            // Observed buffering over the static bound means the
            // analyzer's cost model under-estimated.
            if handle.optimized.report().buffer_overrun(delivered.report.peak_buffered_bytes()) {
                metrics.plan_buffer_overruns.inc();
            }
            metrics.query_wall_ns.record(started.elapsed().as_nanos() as u64);
        }
        // No repair stage on private sources: completeness is 1.
        conclude(handle.id, Some(metrics), run, &[], false)
    }

    /// Runs every registered query, one OS thread per query (the
    /// multi-user mode of Fig. 3), returning results in registration
    /// order.
    pub fn run_all_parallel(self: &Arc<Self>) -> Vec<Result<QueryResult>> {
        let handles = self.registered();
        let mut joins = Vec::new();
        for handle in handles {
            let server = Arc::clone(self);
            joins.push(std::thread::spawn(move || server.run_query(&handle)));
        }
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err(CoreError::Unsupported("query thread panicked".into())))
            })
            .collect()
    }

    /// Handles a raw HTTP-style request end-to-end, returning response
    /// bytes (the first delivered frame, or an error response).
    ///
    /// Besides `/query`, serves the operational endpoints: `GET
    /// /metrics` (Prometheus text exposition v0.0.4), `GET /healthz`,
    /// `GET /share` (sharing topology: distinct plans, subscribers,
    /// tenant usage), and `GET /explain` (static plan analysis as
    /// JSON, no execution).
    pub fn handle_http(&self, raw: &str) -> Vec<u8> {
        match crate::protocol::request_target(raw) {
            ("GET", "/metrics") => {
                return crate::protocol::text_response(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &self.metrics.render_prometheus(),
                );
            }
            ("GET", "/healthz") => {
                return crate::protocol::text_response(200, "text/plain", "ok\n");
            }
            ("GET", "/queries") => {
                return crate::protocol::json_response(self.metrics.queries_json().as_bytes());
            }
            ("GET", target) if target.starts_with("/trace/") => {
                let id = target.strip_prefix("/trace/").and_then(|s| s.parse::<u32>().ok());
                return match id.and_then(|id| self.metrics.recorder_json(id)) {
                    Some(body) => crate::protocol::json_response(body.as_bytes()),
                    None => crate::protocol::error_response(404, "no trace for that query id"),
                };
            }
            ("GET", "/share") => {
                let body = serde_json::to_vec(&self.share.topology()).unwrap_or_default();
                return crate::protocol::json_response(&body);
            }
            ("GET", "/archive") => {
                return match self.archive() {
                    Some(archive) => {
                        let body = serde_json::to_vec(&archive.stats()).unwrap_or_default();
                        crate::protocol::json_response(&body)
                    }
                    None => crate::protocol::error_response(404, "no archive attached"),
                };
            }
            ("GET", "/explain") => {
                let request = match crate::protocol::parse_explain(raw) {
                    Ok(r) => r,
                    Err(e) => return crate::protocol::error_response(400, &e.to_string()),
                };
                return match self.explain(&request) {
                    Ok(explanation) => {
                        let body = serde_json::to_vec(&explanation).unwrap_or_default();
                        crate::protocol::json_response(&body)
                    }
                    Err(e) => crate::protocol::error_response(400, &e.to_string()),
                };
            }
            _ => {}
        }
        let request = match crate::protocol::parse_request(raw) {
            Ok(r) => r,
            Err(e) => return crate::protocol::error_response(400, &e.to_string()),
        };
        let handle = match self.register(&request) {
            Ok(h) => h,
            Err(e) => return crate::protocol::error_response(400, &e.to_string()),
        };
        let response = match self.run_query(&handle) {
            Ok(QueryResult { report: Some(report), .. }) if handle.format.is_counting() => {
                let body = serde_json::to_vec(&report.summary()).unwrap_or_default();
                crate::protocol::json_response(&body)
            }
            Ok(result) => match result.frames.first() {
                Some(frame) => crate::protocol::png_response(&frame.png),
                None => crate::protocol::error_response(204, "no frames produced"),
            },
            Err(e) => crate::protocol::error_response(500, &e.to_string()),
        };
        // A one-shot `/query` is finished once its response is built:
        // drop its handle and shared-plan reference, so ad-hoc traffic
        // neither re-runs under `run_all_parallel`, pins plans in
        // `/share` nor piles up quota charges; `/queries` keeps its entry.
        self.forget(handle.id);
        response
    }

    /// Snapshot of the server metrics counters.
    pub fn frames_delivered(&self) -> u64 {
        self.metrics.frames_delivered.get()
    }
}

/// Points emitted by source operators (those that consume no input):
/// the server's ingest measure.
fn source_points(per_op: &[OpReport]) -> u64 {
    per_op.iter().filter(|r| r.stats.points_in == 0).map(|r| r.stats.points_out).sum()
}

/// A catalog with one source per instrument band, named
/// `<instrument>.<band>`, each open streaming `n_sectors` scan sectors.
pub(crate) fn scanner_catalog(scanner: &Scanner, n_sectors: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for band_idx in 0..scanner.instrument.bands.len() {
        let schema = scanner.band_stream(band_idx, n_sectors).schema().clone();
        let scanner = scanner.clone();
        catalog.register(schema, move || Box::new(scanner.band_stream(band_idx, n_sectors)));
    }
    catalog
}

/// Parses a query and realizes a `sectors=` parameter (0 = none) as a
/// temporal restriction `[0, sectors)` — the algebra's own mechanism,
/// which the optimizer pushes to the sources.
pub(crate) fn parse_request(query: &str, sectors: u64) -> Result<Expr> {
    let expr = parse_query(query)?;
    if sectors == 0 {
        return Ok(expr);
    }
    let times = geostreams_core::model::TimeSet::Interval { lo: None, hi: Some(sectors as i64) };
    Ok(Expr::RestrictTime { input: Box::new(expr), times })
}

/// Fails fast on a source the catalog does not know (`register`,
/// `run_supervised`); `explain` reports it as a diagnostic instead.
pub(crate) fn known_sources(expr: &Expr, catalog: &Catalog) -> Result<()> {
    match expr.source_names().into_iter().find(|n| catalog.schema(n).is_none()) {
        Some(name) => Err(CoreError::UnknownSource(name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_satsim::goes_like;

    fn server() -> Arc<Dsms> {
        Arc::new(Dsms::over_scanner(&goes_like(32, 16, 11), 2))
    }

    #[test]
    fn bands_are_registered_as_sources() {
        let s = server();
        let names = s.catalog().names();
        assert!(names.contains(&"goes-sim.b1-vis".to_string()));
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn register_and_run_gray_query() {
        let s = server();
        let h = s
            .register_text("restrict_value(goes-sim.b1-vis, 0, 1)", OutputFormat::PngGray, 2)
            .unwrap();
        let result = s.run_query(&h).unwrap();
        assert_eq!(result.frames.len(), 2, "one PNG per sector");
        assert!(s.frames_delivered() >= 2);
        // Frames decode as PNGs.
        assert!(geostreams_raster::png::decode(&result.frames[0].png).is_ok());
    }

    #[test]
    fn register_rejects_unknown_sources() {
        let s = server();
        let err = s.register_text("scale(nosuch.band, 1, 0)", OutputFormat::PngGray, 1);
        assert!(matches!(err, Err(CoreError::UnknownSource(_))));
        assert_eq!(s.metrics.queries_rejected.get(), 1);
        // `explain` answers for the same query, with a diagnostic.
        let request = ClientRequest {
            query: "scale(nosuch.band, 1, 0)".into(),
            format: OutputFormat::PngGray,
            sectors: 1,
        };
        let explained = s.explain(&request).unwrap();
        assert!(!explained.admitted && explained.report.has_errors());
    }

    #[test]
    fn ndvi_query_runs_with_colormap() {
        let s = server();
        let h = s
            .register_text(
                "ndvi(goes-sim.b2-nir, scale(goes-sim.b1-vis, 1, 0))",
                OutputFormat::PngNdvi,
                1,
            )
            .unwrap();
        // NDVI needs matching lattices: b2 is 1/4 resolution of b1, so
        // downsample b1 by 4 first. Re-register a correct query:
        let h2 = s
            .register_text(
                "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))",
                OutputFormat::PngNdvi,
                1,
            )
            .unwrap();
        let _ = h;
        let result = s.run_query(&h2).unwrap();
        assert_eq!(result.frames.len(), 1);
        match geostreams_raster::png::decode(&result.frames[0].png).unwrap() {
            geostreams_raster::png::Decoded::Rgb(_) => {}
            other => panic!("expected RGB NDVI frame, got {other:?}"),
        }
    }

    #[test]
    fn parallel_execution_runs_all_queries() {
        let s = server();
        s.register_text("restrict_value(goes-sim.b4-ir, 0, 1)", OutputFormat::PngGray, 1).unwrap();
        s.register_text("scale(goes-sim.b3-wv, 1, 0)", OutputFormat::PngGray, 1).unwrap();
        s.register_text("goes-sim.b5-ir", OutputFormat::Stats, 1).unwrap();
        let results = s.run_all_parallel();
        assert_eq!(results.len(), 3);
        for r in results {
            let r = r.unwrap();
            assert!(r.points > 0 || !r.frames.is_empty());
        }
    }

    #[test]
    fn http_round_trip_delivers_png_and_run_summaries() {
        let s = server();
        let response = s.handle_http("GET /query?q=goes-sim.b4-ir&format=png&sectors=1 HTTP/1.1");
        let text = String::from_utf8_lossy(&response[..64.min(response.len())]).to_string();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        // Body is a valid PNG.
        let body_start = response.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert!(geostreams_raster::png::decode(&response[body_start..]).is_ok());
        // Both counting formats answer with the run summary as JSON: a
        // counting query has no frames, but it did run.
        for format in ["stats", "json"] {
            let raw = format!("GET /query?q=goes-sim.b4-ir&format={format}&sectors=1 HTTP/1.1");
            let text = String::from_utf8_lossy(&s.handle_http(&raw)).to_string();
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{format}: {text}");
            let body = &text[text.find("\r\n\r\n").unwrap() + 4..];
            let summary: geostreams_core::exec::RunSummary = serde_json::from_str(body).unwrap();
            assert_eq!(summary.points_delivered, 8 * 4, "{format}");
        }
    }

    #[test]
    fn one_shot_http_queries_leave_no_handle_behind() {
        let s = server();
        for _ in 0..3 {
            let response = s.handle_http("GET /query?q=goes-sim.b4-ir&format=json HTTP/1.1");
            assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));
        }
        // Ad-hoc traffic must not accumulate handles (`run_all_parallel`
        // would re-run every query ever served) or pin shared plans...
        assert!(s.registered().is_empty());
        assert_eq!(s.share().topology().distinct_plans, 0);
        // ...while the directory still lists what was served.
        let text = String::from_utf8_lossy(&s.handle_http("GET /queries HTTP/1.1")).to_string();
        let statuses: Vec<crate::QueryStatus> =
            serde_json::from_str(&text[text.find("\r\n\r\n").unwrap() + 4..]).unwrap();
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|q| q.state == "done"), "{statuses:?}");
    }

    #[test]
    fn http_errors_are_4xx() {
        let s = server();
        let response = s.handle_http("GET /query?q=magnify(goes-sim.b1-vis) HTTP/1.1");
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn registration_counts_live_plans_by_canonical_key() {
        let s = server();
        let a = s.register_text("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats, 2).unwrap();
        assert_eq!(s.metrics.plan_cache_hits.get(), 0);
        // The same plan again: it is live, same key.
        let b = s.register_text("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats, 2).unwrap();
        assert_eq!(s.metrics.plan_cache_hits.get(), 1);
        assert_eq!(a.canonical_key, b.canonical_key);
        assert_eq!(b.optimized.report().sharing.shared_with, 1);
        // Explain sees the live plan and its subscribers.
        let e = s
            .explain(&ClientRequest {
                query: "scale(goes-sim.b4-ir, 2, 0)".into(),
                format: OutputFormat::Stats,
                sectors: 2,
            })
            .unwrap();
        assert!(e.cache_hit);
        assert_eq!(e.canonical_key, a.canonical_key);
        assert_eq!(e.shared_with, 2);
        // A different plan is not live.
        let c = s.register_text("scale(goes-sim.b4-ir, 3, 0)", OutputFormat::Stats, 2).unwrap();
        assert_ne!(c.canonical_key, a.canonical_key);
        assert_eq!(s.metrics.plan_cache_hits.get(), 2);
    }

    #[test]
    fn tenant_quota_bounds_registration_and_release_refunds() {
        let s = server();
        s.set_tenant_quota("acme", TenantQuota { max_queries: Some(2), memory_budget_bytes: None });
        let q = "scale(goes-sim.b4-ir, 2, 0)";
        let req = ClientRequest { query: q.into(), format: OutputFormat::Stats, sectors: 1 };
        let a = s.register_as("acme", &req).unwrap();
        let _b = s.register_as("acme", &req).unwrap();
        let err = s.register_as("acme", &req);
        assert!(matches!(err, Err(CoreError::PlanRejected(_))), "{err:?}");
        // Releasing one subscription frees a quota slot.
        assert!(s.unregister(a.id));
        assert!(!s.unregister(a.id), "double release is a no-op");
        let c = s.register_as("acme", &req).unwrap();
        assert_eq!(c.tenant, "acme");
        let topo = s.share().topology();
        assert_eq!(topo.distinct_plans, 1);
        assert_eq!(topo.tenants.len(), 1);
        assert_eq!(topo.tenants[0].queries, 2);
    }

    #[test]
    fn http_share_endpoint_serves_topology() {
        let s = server();
        let q = "restrict_value(goes-sim.b4-ir, 0, 1)";
        s.register_text(q, OutputFormat::Stats, 1).unwrap();
        s.register_text(q, OutputFormat::Stats, 1).unwrap();
        let resp = s.handle_http("GET /share HTTP/1.1");
        let text = String::from_utf8_lossy(&resp).to_string();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        let body = &text[text.find("\r\n\r\n").unwrap() + 4..];
        let topo: serde_json::Value = serde_json::from_str(body).unwrap();
        assert!(
            matches!(
                topo.get("distinct_plans"),
                Some(serde_json::Value::U64(1) | serde_json::Value::I64(1))
            ),
            "{body}"
        );
        let plans = match topo.get("plans") {
            Some(serde_json::Value::Array(plans)) => plans,
            other => panic!("plans missing: {other:?}"),
        };
        match plans[0].get("subscribers") {
            Some(serde_json::Value::Array(subs)) => assert_eq!(subs.len(), 2),
            other => panic!("subscribers missing: {other:?}"),
        }
    }

    #[test]
    fn stats_format_returns_report() {
        let s = server();
        let h = s
            .register_text(
                "restrict_space(goes-sim.b4-ir, bbox(-100, 30, -90, 40), \"latlon\")",
                OutputFormat::Stats,
                1,
            )
            .unwrap();
        // The region is in lat/lon but the stream is geostationary: the
        // planner maps it (§3.4).
        let result = s.run_query(&h).unwrap();
        let report = result.report.unwrap();
        assert!(report.points_delivered > 0);
        assert!(report.points_delivered < 8 * 4 * 8 * 4);
    }
}
