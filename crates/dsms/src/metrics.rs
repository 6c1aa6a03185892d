//! Server-wide metrics, built on the `geostreams-core` observability
//! registry.
//!
//! Every metric carries the stable `geostreams_` prefix and is
//! registered once at server construction; the hot paths only touch
//! lock-free handles. `GET /metrics` (see [`crate::net`]) renders the
//! whole registry as Prometheus text exposition v0.0.4.

use geostreams_core::model::FrameInfo;
use geostreams_core::obs::{now_ns, Counter, FlightRecorder, Gauge, HistogramHandle, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Live status of one registered query — the payload of `GET /queries`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryStatus {
    /// Query id.
    pub id: u32,
    /// Query text as registered.
    pub query: String,
    /// Lifecycle state: `registered`, `running`, `done`, `cancelled`,
    /// `failed`.
    pub state: String,
    /// Trace id of the query's flight recorder.
    pub trace_id: u64,
    /// Points delivered so far.
    pub points_delivered: u64,
    /// Frames delivered so far.
    pub frames_delivered: u64,
    /// Event-time watermark: latest delivered frame timestamp
    /// (sector-id semantics), or -1 before the first frame.
    pub watermark: i64,
    /// Tick of the last frame delivery ([`now_ns`] clock; 0 = never).
    pub last_delivery_ns: u64,
    /// Time since the last frame delivery (0 until the first frame,
    /// frozen once the query leaves the `running` state).
    pub staleness_ns: u64,
    /// Median synthesis→delivery lag, nanoseconds.
    pub e2e_lag_p50_ns: u64,
    /// 95th-percentile synthesis→delivery lag, nanoseconds.
    pub e2e_lag_p95_ns: u64,
    /// Repair-stage completeness ratio (1.0 until a run reports one).
    pub completeness: f64,
    /// Items currently queued in the query's fan-out channels.
    pub queue_depth: u64,
}

/// Mutable per-query bookkeeping behind the directory mutex.
#[derive(Debug)]
struct QueryState {
    query: String,
    state: String,
    trace_id: u64,
    points: u64,
    frames: u64,
    watermark: Option<i64>,
    last_delivery_ns: u64,
    completeness: f64,
    lag: HistogramHandle,
    watermark_gauge: Gauge,
    staleness_gauge: Gauge,
    depth_gauge: Gauge,
}

/// Metric and trace handles shared across the server's query threads.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Continuous queries registered since start.
    pub queries_registered: Counter,
    /// Queries rejected at parse/plan time.
    pub queries_rejected: Counter,
    /// PNG frames delivered to clients.
    pub frames_delivered: Counter,
    /// Total PNG bytes delivered.
    pub bytes_delivered: Counter,
    /// Points pulled from source streams.
    pub points_ingested: Counter,
    /// Connections served successfully by the HTTP front end.
    pub requests_handled: Counter,
    /// Connections that failed mid-request (read/write errors).
    pub requests_errored: Counter,
    /// Executions whose observed peak buffering exceeded the static
    /// plan-analysis bound (a cost-model soundness alarm).
    pub plan_buffer_overruns: Counter,
    /// Supervised restarts of dead/stalled ingest threads.
    pub ingest_restarts: Counter,
    /// Gap detections in ingested streams (incomplete frames, missing
    /// rows/sectors).
    pub gaps_detected: Counter,
    /// Frames finalized partial (missing points) instead of blocking.
    pub partial_frames: Counter,
    /// Duplicate frames/points dropped at the repair stage.
    pub duplicates_dropped: Counter,
    /// Out-of-order element observations.
    pub disorder_detected: Counter,
    /// Elements shed by the non-blocking fan-out instead of
    /// head-of-line blocking the band.
    pub fanout_shed: Counter,
    /// Queries cancelled by the per-query watchdog.
    pub watchdog_cancellations: Counter,
    /// Stream-protocol violations observed by the debug-build runtime
    /// validator (marker bracketing breaks, chunks crossing frame or
    /// sector edges). Always 0 in release builds, where the validator
    /// compiles out.
    pub protocol_violations: Counter,
    /// Spans evicted from the flight recorders' bounded rings, synced
    /// at scrape time.
    pub trace_dropped: Counter,
    /// Cumulative supervised-restart backoff, milliseconds.
    pub ingest_backoff_ms: Counter,
    /// Distinct shared plans evaluated by the sharing runtime (DAG
    /// nodes; 1 for N identical queries).
    pub share_distinct_plans: Gauge,
    /// Chunked items multicast to shared-plan subscribers.
    pub share_chunks_multicast: Counter,
    /// Chunk payload deep copies on the subscriber side: the
    /// copy-on-write fallback when a fanned-out `Arc` chunk is still
    /// referenced elsewhere. 0 means fan-out was zero-copy throughout.
    pub share_payload_copies: Counter,
    /// Registrations and explains whose canonical plan was already
    /// live.
    pub plan_cache_hits: Counter,
    /// Per-query wall time, nanoseconds.
    pub query_wall_ns: HistogramHandle,
    /// Per-connection request latency, nanoseconds.
    pub request_ns: HistogramHandle,
    /// End-to-end synthesis→delivery lag, nanoseconds (all queries;
    /// per-query series carry a `query` label).
    pub e2e_lag_ns: HistogramHandle,
    /// Per-query flight recorders, keyed by query id.
    recorders: Mutex<BTreeMap<u32, Arc<FlightRecorder>>>,
    /// Live query directory, keyed by query id.
    queries: Mutex<BTreeMap<u32, QueryState>>,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let help: &[(&str, &str)] = &[
            ("geostreams_queries_registered_total", "Continuous queries registered."),
            ("geostreams_queries_rejected_total", "Queries rejected at parse/plan time."),
            ("geostreams_frames_delivered_total", "PNG frames delivered to clients."),
            ("geostreams_bytes_delivered_total", "PNG bytes delivered to clients."),
            ("geostreams_points_ingested_total", "Points pulled from source streams."),
            ("geostreams_requests_handled_total", "Connections served successfully."),
            ("geostreams_requests_errored_total", "Connections that failed mid-request."),
            (
                "geostreams_plan_buffer_overrun_total",
                "Query runs whose observed peak buffering exceeded the static bound.",
            ),
            (
                "geostreams_ingest_restarts_total",
                "Supervised restarts of dead/stalled ingest threads.",
            ),
            (
                "geostreams_gaps_detected_total",
                "Gap detections in ingested streams (incomplete frames, missing rows/sectors).",
            ),
            (
                "geostreams_partial_frames_total",
                "Frames finalized partial (missing points) instead of blocking.",
            ),
            (
                "geostreams_duplicates_dropped_total",
                "Duplicate frames and points dropped at the repair stage.",
            ),
            ("geostreams_disorder_total", "Out-of-order element observations."),
            (
                "geostreams_fanout_shed_total",
                "Elements shed by the non-blocking fan-out instead of blocking the band.",
            ),
            (
                "geostreams_watchdog_cancellations_total",
                "Queries cancelled by the per-query watchdog.",
            ),
            (
                "geostreams_protocol_violation_total",
                "Stream-protocol violations observed by the debug-build runtime validator.",
            ),
            (
                "geostreams_trace_dropped_total",
                "Spans evicted from the flight recorders' bounded rings.",
            ),
            (
                "geostreams_ingest_backoff_ms_total",
                "Cumulative supervised-restart backoff in milliseconds.",
            ),
            ("geostreams_query_wall_ns", "Per-query wall time in nanoseconds."),
            ("geostreams_request_ns", "Per-connection request latency in nanoseconds."),
            ("geostreams_e2e_lag_ns", "End-to-end synthesis-to-delivery lag in nanoseconds."),
            (
                "geostreams_watermark",
                "Per-query event-time watermark (latest delivered frame timestamp).",
            ),
            ("geostreams_staleness_ns", "Per-query nanoseconds since the last frame delivery."),
            (
                "geostreams_band_staleness_ns",
                "Per-band nanoseconds since ingest last made progress.",
            ),
            ("geostreams_fanout_depth", "Fan-out channel depth (queued items) per query source."),
            (
                "geostreams_share_distinct_plans",
                "Distinct shared plans evaluated by the sharing runtime.",
            ),
            ("geostreams_share_subscribers", "Subscribers attached per shared plan."),
            (
                "geostreams_share_chunks_multicast_total",
                "Chunked items multicast to shared-plan subscribers.",
            ),
            ("geostreams_share_shed_total", "Elements shed per tenant by the subscription tree."),
            (
                "geostreams_share_payload_copies_total",
                "Chunk payload deep copies made on the subscriber side (copy-on-write fallback).",
            ),
            (
                "geostreams_plan_cache_hits_total",
                "Registrations and explains whose canonical plan was already live.",
            ),
        ];
        for (name, text) in help {
            registry.set_help(name, text);
        }
        ServerMetrics {
            queries_registered: registry.counter("geostreams_queries_registered_total", &[]),
            queries_rejected: registry.counter("geostreams_queries_rejected_total", &[]),
            frames_delivered: registry.counter("geostreams_frames_delivered_total", &[]),
            bytes_delivered: registry.counter("geostreams_bytes_delivered_total", &[]),
            points_ingested: registry.counter("geostreams_points_ingested_total", &[]),
            requests_handled: registry.counter("geostreams_requests_handled_total", &[]),
            requests_errored: registry.counter("geostreams_requests_errored_total", &[]),
            plan_buffer_overruns: registry.counter("geostreams_plan_buffer_overrun_total", &[]),
            ingest_restarts: registry.counter("geostreams_ingest_restarts_total", &[]),
            gaps_detected: registry.counter("geostreams_gaps_detected_total", &[]),
            partial_frames: registry.counter("geostreams_partial_frames_total", &[]),
            duplicates_dropped: registry.counter("geostreams_duplicates_dropped_total", &[]),
            disorder_detected: registry.counter("geostreams_disorder_total", &[]),
            fanout_shed: registry.counter("geostreams_fanout_shed_total", &[]),
            watchdog_cancellations: registry
                .counter("geostreams_watchdog_cancellations_total", &[]),
            protocol_violations: registry.counter("geostreams_protocol_violation_total", &[]),
            trace_dropped: registry.counter("geostreams_trace_dropped_total", &[]),
            ingest_backoff_ms: registry.counter("geostreams_ingest_backoff_ms_total", &[]),
            share_distinct_plans: registry.gauge("geostreams_share_distinct_plans", &[]),
            share_chunks_multicast: registry
                .counter("geostreams_share_chunks_multicast_total", &[]),
            share_payload_copies: registry.counter("geostreams_share_payload_copies_total", &[]),
            plan_cache_hits: registry.counter("geostreams_plan_cache_hits_total", &[]),
            query_wall_ns: registry.histogram("geostreams_query_wall_ns", &[]),
            request_ns: registry.histogram("geostreams_request_ns", &[]),
            e2e_lag_ns: registry.histogram("geostreams_e2e_lag_ns", &[]),
            recorders: Mutex::new(BTreeMap::new()),
            queries: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// The underlying registry (for registering further metrics).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The flight recorder for `query_id`, minting one on first use.
    pub fn recorder(&self, query_id: u32) -> Arc<FlightRecorder> {
        let mut recs = self.recorders.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            recs.entry(query_id).or_insert_with(|| Arc::new(FlightRecorder::for_query(query_id))),
        )
    }

    /// The flight recorder for `query_id`, if one was minted.
    pub fn try_recorder(&self, query_id: u32) -> Option<Arc<FlightRecorder>> {
        let recs = self.recorders.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        recs.get(&query_id).map(Arc::clone)
    }

    /// Registers (or re-registers) a query in the live directory and
    /// mints its flight recorder. Returns the recorder.
    pub fn register_query(&self, query_id: u32, query: &str) -> Arc<FlightRecorder> {
        let rec = self.recorder(query_id);
        let label = query_id.to_string();
        let state = QueryState {
            query: query.to_string(),
            state: "registered".to_string(),
            trace_id: rec.trace_id(),
            points: 0,
            frames: 0,
            watermark: None,
            last_delivery_ns: 0,
            completeness: 1.0,
            lag: self.registry.histogram("geostreams_e2e_lag_ns", &[("query", &label)]),
            watermark_gauge: self.registry.gauge("geostreams_watermark", &[("query", &label)]),
            staleness_gauge: self.registry.gauge("geostreams_staleness_ns", &[("query", &label)]),
            depth_gauge: self.registry.gauge("geostreams_fanout_depth", &[("query", &label)]),
        };
        let mut dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        dir.insert(query_id, state);
        rec
    }

    /// Moves a query to a new lifecycle state.
    pub fn set_query_state(&self, query_id: u32, state: &str) {
        let mut dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(q) = dir.get_mut(&query_id) {
            q.state = state.to_string();
        }
    }

    /// The per-plan subscriber gauge (`geostreams_share_subscribers`,
    /// labeled by the plan's canonical key).
    pub fn share_subscribers_gauge(&self, plan_key: &str) -> Gauge {
        self.registry.gauge("geostreams_share_subscribers", &[("plan", plan_key)])
    }

    /// The per-tenant shed counter of the subscription tree
    /// (`geostreams_share_shed_total`, labeled by tenant).
    pub fn share_shed_counter(&self, tenant: &str) -> Counter {
        self.registry.counter("geostreams_share_shed_total", &[("tenant", tenant)])
    }

    /// Publishes the morsel-execution pool's lifetime counters
    /// (`geostreams_exec_worker_{jobs,steals,busy_ns}`, labeled by
    /// worker index). Gauges are set-style: a runtime records once
    /// when it settles, so repeated runs over one registry show the
    /// latest run's pool.
    pub fn record_exec_workers(&self, stats: &[geostreams_core::exec::WorkerStatsSnapshot]) {
        for s in stats {
            let w = s.worker.to_string();
            self.registry.gauge("geostreams_exec_worker_jobs", &[("worker", &w)]).set(s.jobs);
            self.registry.gauge("geostreams_exec_worker_steals", &[("worker", &w)]).set(s.steals);
            self.registry.gauge("geostreams_exec_worker_busy_ns", &[("worker", &w)]).set(s.busy_ns);
        }
    }

    /// The fan-out depth gauge of a registered query (shared with the
    /// pump and pull sides of its channels).
    pub fn query_depth_gauge(&self, query_id: u32) -> Option<Gauge> {
        let dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        dir.get(&query_id).map(|q| q.depth_gauge.clone())
    }

    /// Delivery-side freshness accounting: called once per delivered
    /// `FrameStart`. Records synthesis→delivery lag (global and
    /// per-query), advances the event-time watermark, and stamps the
    /// last-delivery tick consulted by the staleness gauge.
    pub fn note_frame(&self, query_id: u32, fi: &FrameInfo) {
        let now = now_ns();
        let lag = now.saturating_sub(fi.synth_ns);
        if fi.synth_ns > 0 {
            self.e2e_lag_ns.record(lag);
        }
        let mut dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(q) = dir.get_mut(&query_id) {
            if fi.synth_ns > 0 {
                q.lag.record(lag);
            }
            q.frames += 1;
            q.last_delivery_ns = now;
            let ts = fi.timestamp.value();
            if q.watermark.is_none_or(|w| ts > w) {
                q.watermark = Some(ts);
                q.watermark_gauge.set(ts.max(0) as u64);
            }
            q.staleness_gauge.set(0);
        }
    }

    /// Final accounting when a query run ends.
    pub fn finish_query(&self, query_id: u32, state: &str, points: u64, completeness: f64) {
        let mut dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(q) = dir.get_mut(&query_id) {
            q.state = state.to_string();
            q.points = points;
            q.completeness = completeness;
        }
    }

    /// Snapshot of the live query directory, ordered by id.
    pub fn query_statuses(&self) -> Vec<QueryStatus> {
        self.refresh();
        let dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        dir.iter()
            .map(|(&id, q)| QueryStatus {
                id,
                query: q.query.clone(),
                state: q.state.clone(),
                trace_id: q.trace_id,
                points_delivered: q.points,
                frames_delivered: q.frames,
                watermark: q.watermark.unwrap_or(-1),
                last_delivery_ns: q.last_delivery_ns,
                staleness_ns: q.staleness_gauge.get(),
                e2e_lag_p50_ns: q.lag.percentile(0.50),
                e2e_lag_p95_ns: q.lag.percentile(0.95),
                completeness: q.completeness,
                queue_depth: q.depth_gauge.get(),
            })
            .collect()
    }

    /// The `GET /queries` payload.
    pub fn queries_json(&self) -> String {
        serde_json::to_string(&self.query_statuses()).unwrap_or_else(|_| "[]".to_string())
    }

    /// The `GET /trace/<id>` payload, if the query has a recorder.
    pub fn recorder_json(&self, query_id: u32) -> Option<String> {
        let rec = self.try_recorder(query_id)?;
        serde_json::to_string(&rec.to_snapshot()).ok()
    }

    /// Scrape-time sync of derived series: the `trace_dropped` counter
    /// (the registry `Counter` is monotone, so the delta against the
    /// flight recorders' own drop counts is added) and per-query
    /// staleness gauges.
    pub fn refresh(&self) {
        let total: u64 = {
            let recs = self.recorders.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            recs.values().map(|r| r.dropped()).sum()
        };
        self.trace_dropped.add(total.saturating_sub(self.trace_dropped.get()));
        let now = now_ns();
        let dir = self.queries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for q in dir.values() {
            if q.state == "running" && q.last_delivery_ns > 0 {
                q.staleness_gauge.set(now.saturating_sub(q.last_delivery_ns));
            }
        }
    }

    /// Renders every metric as Prometheus text exposition v0.0.4.
    pub fn render_prometheus(&self) -> String {
        self.refresh();
        self.registry.render_prometheus()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "queries={} rejected={} frames={} bytes={} points_in={} requests={} errored={}",
            self.queries_registered.get(),
            self.queries_rejected.get(),
            self.frames_delivered.get(),
            self.bytes_delivered.get(),
            self.points_ingested.get(),
            self.requests_handled.get(),
            self.requests_errored.get(),
        )
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new();
        m.frames_delivered.add(3);
        m.frames_delivered.add(2);
        assert_eq!(m.frames_delivered.get(), 5);
        assert!(m.summary().contains("frames=5"));
        assert!(m.summary().contains("errored=0"));
    }

    #[test]
    fn prometheus_rendering_includes_all_series() {
        let m = ServerMetrics::new();
        m.queries_registered.inc();
        m.query_wall_ns.record(1_500_000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE geostreams_queries_registered_total counter"));
        assert!(text.contains("geostreams_queries_registered_total 1"));
        assert!(text.contains("# TYPE geostreams_query_wall_ns histogram"));
        assert!(text.contains("geostreams_query_wall_ns_count 1"));
        assert!(text.contains("geostreams_requests_errored_total 0"));
    }
}
