//! Shared-plan multicast: multi-query optimization and the
//! subscription tree (DESIGN.md §16).
//!
//! The DSMS registers continuous queries once and evaluates them
//! forever (§3), so N identical dashboards must not cost N pipelines.
//! This module turns the per-query engine into an O(distinct plans)
//! serving layer:
//!
//! * [`plan_sharing`] groups admitted plans by their canonical key
//!   (see [`geostreams_core::query::canon`]) and detects common
//!   subexpressions *across* plans, emitting a shared-subplan DAG: one
//!   [`ShareNode`] per distinct plan or shared cut, with synthetic
//!   `@share:<key>` sources wiring consumers to producers;
//! * [`SubscriptionTree`] multicasts one evaluation's chunked output
//!   to every subscriber as [`Arc`]-shared payloads — never cloned per
//!   subscriber — with two delivery tiers: *interior* edges (node →
//!   node) are lossless and blocking, *query* edges (node → client)
//!   follow the runtime's fan-out policy, shedding per tenant instead
//!   of head-of-line-blocking siblings;
//! * [`ShareRegistry`] is the server-side bookkeeping: the live plans
//!   by canonical key, per-tenant admission quotas extending the
//!   memory-budget admission control, and the `/share` topology.
//!
//! The load-bearing invariant: **sharing never changes per-subscriber
//! results**. It holds because canonicalization is bit-exact and every
//! subscriber of a node receives the identical chunk sequence the
//! unshared pipeline would have produced.

use crate::continuous::FanoutPolicy;
use geostreams_core::obs::{Counter, Gauge};
use geostreams_core::query::{canonical_key, canonicalize, key_hex, Expr};
use geostreams_core::{model::ChunkOrMarker, CoreError, Result};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Prefix of synthetic catalog sources that reference another share
/// node's output instead of an instrument band.
pub const SHARE_SOURCE_PREFIX: &str = "@share:";

/// The synthetic source name of a shared cut.
pub fn share_source_name(key: u64) -> String {
    format!("{SHARE_SOURCE_PREFIX}{}", key_hex(key))
}

/// The `@share:*` sources an expression reads, one per leaf, left to
/// right.
pub fn share_refs(expr: &Expr) -> Vec<String> {
    expr.source_leaves().into_iter().filter(|n| n.starts_with(SHARE_SOURCE_PREFIX)).collect()
}

/// The instrument-band sources an expression reads (everything that is
/// not a `@share:*` reference), one per leaf, left to right.
pub fn band_refs(expr: &Expr) -> Vec<String> {
    expr.source_leaves().into_iter().filter(|n| !n.starts_with(SHARE_SOURCE_PREFIX)).collect()
}

/// Poison-tolerant lock (the tree stays usable after a panic).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Shared-subplan DAG
// ---------------------------------------------------------------------------

/// One evaluation node of the shared-subplan DAG: a canonical
/// (sub)plan evaluated exactly once per chunk, multicast to member
/// queries and to downstream nodes that reference it via `@share:*`
/// sources.
#[derive(Debug, Clone)]
pub struct ShareNode {
    /// Canonical key of the (sub)plan this node evaluates.
    pub key: u64,
    /// The expression to execute. Shared proper subexpressions are
    /// rewritten into `@share:<key>` sources, so the node consumes
    /// upstream nodes instead of recomputing their work.
    pub expr: Expr,
    /// Request indices of queries whose whole plan is this node.
    pub members: Vec<usize>,
}

/// The sharing decision for a batch of admitted plans.
#[derive(Debug, Clone, Default)]
pub struct SharePlan {
    /// Evaluation nodes. Requests that are members of none gain
    /// nothing from sharing (singleton plans with no shared cuts) and
    /// evaluate their own pipeline unchanged.
    pub nodes: Vec<ShareNode>,
}

impl SharePlan {
    /// Number of distinct evaluations the sharing runtime performs.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Builds cut nodes on demand while rewriting plans top-down: the
/// outermost shared subexpression wins (maximal cuts), and a cut's own
/// body is rewritten recursively so cuts can consume other cuts.
struct DagBuilder {
    shared: HashSet<u64>,
    nodes: Vec<ShareNode>,
    index: HashMap<u64, usize>,
}

impl DagBuilder {
    /// Rewrites the *children* of `e`, leaving `e` itself in place
    /// (used at node roots, which must not collapse into themselves).
    fn rewrite_below(&mut self, e: &Expr) -> Expr {
        e.clone().map_inputs(&mut |child| self.rewrite_at(&child))
    }

    /// Rewrites `e`: replaced by a `@share:*` reference when its key is
    /// shared (ensuring the producing node exists), recursed otherwise.
    fn rewrite_at(&mut self, e: &Expr) -> Expr {
        if !matches!(e, Expr::Source(_)) {
            let k = canonical_key(e);
            if self.shared.contains(&k) {
                self.ensure(k, e);
                return Expr::Source(share_source_name(k));
            }
        }
        self.rewrite_below(e)
    }

    /// Creates the node evaluating `e` under key `k` if it does not
    /// exist yet. The placeholder reserves the index first so the
    /// recursive child rewrite can reference nodes deterministically.
    fn ensure(&mut self, k: u64, e: &Expr) {
        if self.index.contains_key(&k) {
            return;
        }
        let idx = self.nodes.len();
        self.index.insert(k, idx);
        self.nodes.push(ShareNode { key: k, expr: e.clone(), members: Vec::new() });
        let rewritten = self.rewrite_below(e);
        self.nodes[idx].expr = rewritten;
    }
}

/// Groups plans by canonical key and detects common subexpressions
/// across them, returning the shared-subplan DAG.
///
/// A subexpression becomes a shared cut when it (a) contains at least
/// one operator (bare band sources are already shared by the ingest
/// fan-out) and (b) occurs in at least two *distinct* plans. Queries
/// whose plan is a singleton with no shared cut join no node: the
/// sharing runtime must never make an unshared query slower or
/// observably different.
pub fn plan_sharing(roots: &[(usize, Expr)]) -> SharePlan {
    // Group by canonical key, preserving first-appearance order.
    let mut order: Vec<u64> = Vec::new();
    let mut by_key: HashMap<u64, (Expr, Vec<usize>)> = HashMap::new();
    for (qid, expr) in roots {
        let canonical = canonicalize(expr);
        let k = canonical_key(&canonical);
        match by_key.entry(k) {
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().1.push(*qid),
            std::collections::hash_map::Entry::Vacant(v) => {
                order.push(k);
                v.insert((canonical, vec![*qid]));
            }
        }
    }
    // Census: in how many distinct plans does each operator
    // subexpression occur? (Deduplicated per plan, so repetition
    // inside one plan does not create a cut.)
    let mut occurs: HashMap<u64, u32> = HashMap::new();
    for k in &order {
        let (expr, _) = &by_key[k];
        let mut seen = HashSet::new();
        expr.visit(&mut |e| {
            if matches!(e, Expr::Source(_)) {
                return;
            }
            let ek = canonical_key(e);
            if seen.insert(ek) {
                *occurs.entry(ek).or_insert(0) += 1;
            }
        });
    }
    let shared: HashSet<u64> =
        occurs.into_iter().filter(|(_, n)| *n >= 2).map(|(k, _)| k).collect();
    let mut b = DagBuilder { shared, nodes: Vec::new(), index: HashMap::new() };
    for k in &order {
        let (canonical, members) = &by_key[k];
        if b.shared.contains(k) {
            // The whole plan is itself a shared cut (a prefix of some
            // other plan): its queries subscribe to the cut node
            // directly, with no pass-through evaluator in between.
            b.ensure(*k, canonical);
            let idx = b.index[k];
            b.nodes[idx].members.extend(members.iter().copied());
            continue;
        }
        let rewritten = b.rewrite_below(canonical);
        let uses_cuts = rewritten.source_names().iter().any(|n| n.starts_with(SHARE_SOURCE_PREFIX));
        if members.len() == 1 && !uses_cuts {
            continue;
        }
        b.nodes.push(ShareNode { key: *k, expr: rewritten, members: members.clone() });
    }
    SharePlan { nodes: b.nodes }
}

// ---------------------------------------------------------------------------
// Subscription tree
// ---------------------------------------------------------------------------

/// The payload unit of all shared fan-out: one chunked item behind an
/// [`Arc`], so multicasting to N subscribers clones a pointer, never
/// the points.
pub type SharedItem = Arc<ChunkOrMarker<f32>>;

/// One subscriber of a [`SubscriptionTree`].
struct TreeSub {
    tx: Option<SyncSender<SharedItem>>,
    /// `None` for interior (node → node) edges, which are lossless;
    /// `Some(tenant)` for query edges, which follow the fan-out policy
    /// and account shed per tenant.
    tenant: Option<String>,
    shed: u64,
    full_since: Option<Instant>,
    depth: Option<Gauge>,
    shed_counter: Option<Counter>,
}

/// A snapshot of one lossless-pass subscriber: slot index, sender,
/// depth gauge, and whether it is a query-tier edge.
type LosslessSub = (usize, SyncSender<SharedItem>, Option<Gauge>, bool);

/// Multicasts one producer's output — a shared-plan node's, or a band
/// pump's — to its subscribers (DESIGN.md §16).
///
/// Two delivery tiers share one tree: interior edges feed downstream
/// DAG nodes and are always blocking (losing data *inside* the DAG
/// would change subscriber results), while query edges follow the
/// runtime's [`FanoutPolicy`] — under [`FanoutPolicy::Shed`] a slow
/// subscriber loses point runs (counted against its tenant) and a
/// subscriber that cannot accept framing markers within the patience
/// window is declared dead.
#[derive(Default)]
pub struct SubscriptionTree {
    subs: Mutex<Vec<TreeSub>>,
    chunks_multicast: AtomicU64,
    multicast_counter: Option<Counter>,
}

impl SubscriptionTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the server-wide multicast counter
    /// (`geostreams_share_chunks_multicast_total`).
    pub fn with_counter(mut self, counter: Option<Counter>) -> Self {
        self.multicast_counter = counter;
        self
    }

    /// Subscribes a downstream DAG node (lossless interior edge).
    pub fn subscribe_interior(&self, cap: usize) -> Receiver<SharedItem> {
        self.subscribe(cap, None, None, None)
    }

    /// Subscribes a query (policy-governed edge, shed accounted to
    /// `tenant`).
    pub fn subscribe_query(
        &self,
        cap: usize,
        tenant: &str,
        depth: Option<Gauge>,
        shed_counter: Option<Counter>,
    ) -> Receiver<SharedItem> {
        self.subscribe(cap, Some(tenant.to_string()), depth, shed_counter)
    }

    fn subscribe(
        &self,
        cap: usize,
        tenant: Option<String>,
        depth: Option<Gauge>,
        shed_counter: Option<Counter>,
    ) -> Receiver<SharedItem> {
        let (tx, rx) = sync_channel(cap);
        let sub = TreeSub { tx: Some(tx), tenant, shed: 0, full_since: None, depth, shed_counter };
        lock(&self.subs).push(sub);
        rx
    }

    /// Live subscriber count (both tiers).
    pub fn subscribers(&self) -> usize {
        lock(&self.subs).iter().filter(|s| s.tx.is_some()).count()
    }

    /// Point-bearing items delivered to query-tier subscribers so far
    /// (standalone framing markers are not counted).
    pub fn chunks_multicast(&self) -> u64 {
        self.chunks_multicast.load(Ordering::Relaxed)
    }

    /// Elements shed per tenant, sorted by tenant.
    pub fn shed_per_tenant(&self) -> Vec<(String, u64)> {
        let mut acc: BTreeMap<String, u64> = BTreeMap::new();
        for s in lock(&self.subs).iter() {
            if let Some(t) = &s.tenant {
                if s.shed > 0 {
                    *acc.entry(t.clone()).or_insert(0) += s.shed;
                }
            }
        }
        acc.into_iter().collect()
    }

    /// Ends the stream for every subscriber (their receivers
    /// disconnect once in-flight items drain).
    pub fn close(&self) {
        for s in lock(&self.subs).iter_mut() {
            s.tx = None;
        }
    }

    /// Delivers one item to every subscriber — never blocking or
    /// sleeping while the subscriber lock is held. A bounded `send` can
    /// stall until a subscriber drains; holding the lock across it
    /// would wedge subscribe/unsubscribe and the caller's bookkeeping
    /// (the geolint `lock-across-send` rule exists because an earlier
    /// fan-out did exactly that).
    pub fn multicast(&self, item: SharedItem, policy: FanoutPolicy, marker_patience: Duration) {
        let has_marker = item.marker().is_some();
        let has_points = item.point_count() > 0;
        // Lossless pass: interior edges always; query edges too under
        // the blocking policy. Snapshot senders under the lock, send
        // unlocked, re-lock only to null out closed receivers (a
        // finished or failed query is fine).
        let mut lossless: Vec<LosslessSub> = {
            let guard = lock(&self.subs);
            guard
                .iter()
                .enumerate()
                .filter(|(_, s)| s.tenant.is_none() || policy == FanoutPolicy::Blocking)
                .filter_map(|(i, s)| {
                    s.tx.clone().map(|tx| (i, tx, s.depth.clone(), s.tenant.is_some()))
                })
                .collect()
        };
        let mut delivered_to_queries = 0u64;
        let mut dead = Vec::new();
        let mut send = |(i, tx, depth, is_query): LosslessSub, item: SharedItem| {
            if tx.send(item).is_err() {
                dead.push(i);
            } else {
                if let Some(g) = depth {
                    g.add(1);
                }
                if is_query && has_points {
                    delivered_to_queries += 1;
                }
            }
        };
        // Under the blocking policy the last subscriber gets the
        // caller's own Arc moved in, so a single subscriber holds the
        // only reference at receive time and owns the payload without
        // a copy.
        let last = if policy == FanoutPolicy::Blocking { lossless.pop() } else { None };
        for sub in lossless {
            send(sub, Arc::clone(&item));
        }
        match last {
            Some(sub) => send(sub, item),
            // Shed pass: query edges under the shed policy.
            // Non-blocking delivery attempts under the lock;
            // full-on-a-marker subscribers are retried with the guard
            // dropped between attempts until the marker patience runs
            // out.
            None if policy == FanoutPolicy::Shed => {
                let mut settled: Vec<bool> = Vec::new();
                loop {
                    let mut pending = false;
                    {
                        let mut guard = lock(&self.subs);
                        settled.resize(guard.len().max(settled.len()), false);
                        for (i, slot) in guard.iter_mut().enumerate() {
                            if settled[i] || slot.tenant.is_none() {
                                continue;
                            }
                            match shed_try_sub(slot, &item, has_marker, marker_patience) {
                                SubOutcome::Delivered => {
                                    settled[i] = true;
                                    if has_points {
                                        delivered_to_queries += 1;
                                    }
                                }
                                SubOutcome::Settled => settled[i] = true,
                                SubOutcome::Retry => pending = true,
                            }
                        }
                    }
                    if !pending {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None => {}
        }
        if !dead.is_empty() {
            let mut guard = lock(&self.subs);
            for i in dead {
                if let Some(slot) = guard.get_mut(i) {
                    slot.tx = None;
                }
            }
        }
        if delivered_to_queries > 0 {
            self.chunks_multicast.fetch_add(delivered_to_queries, Ordering::Relaxed);
            if let Some(c) = &self.multicast_counter {
                c.add(delivered_to_queries);
            }
        }
    }
}

/// Outcome of one non-blocking delivery attempt to one subscriber.
enum SubOutcome {
    /// The item landed in the subscriber's channel.
    Delivered,
    /// The item is settled without delivery (shed, or the subscriber
    /// is gone).
    Settled,
    /// Full on a marker within patience: retry after an unlocked nap.
    Retry,
}

/// One non-blocking delivery attempt to one query-tier subscriber.
fn shed_try_sub(
    slot: &mut TreeSub,
    item: &SharedItem,
    has_marker: bool,
    marker_patience: Duration,
) -> SubOutcome {
    let Some(tx) = &slot.tx else { return SubOutcome::Settled };
    match tx.try_send(Arc::clone(item)) {
        Ok(()) => {
            slot.full_since = None;
            if let Some(g) = &slot.depth {
                g.add(1);
            }
            SubOutcome::Delivered
        }
        Err(TrySendError::Disconnected(_)) => {
            slot.tx = None;
            SubOutcome::Settled
        }
        Err(TrySendError::Full(_)) => {
            let since = *slot.full_since.get_or_insert_with(Instant::now);
            if !has_marker {
                // Point runs are expendable: shed the whole run rather
                // than stall the shared evaluation for one tenant.
                let n = item.point_count() as u64;
                slot.shed += n;
                if let Some(c) = &slot.shed_counter {
                    c.add(n);
                }
                return SubOutcome::Settled;
            }
            if since.elapsed() >= marker_patience {
                // Cannot even accept framing markers: wedged — declare
                // the subscriber dead so siblings keep their cadence.
                slot.tx = None;
                let n = item.element_count();
                slot.shed += n;
                if let Some(c) = &slot.shed_counter {
                    c.add(n);
                }
                return SubOutcome::Settled;
            }
            SubOutcome::Retry
        }
    }
}

// ---------------------------------------------------------------------------
// Server-side registry: live plans, tenant quotas, /share topology
// ---------------------------------------------------------------------------

/// Admission limits for one tenant, layered on top of the server's
/// per-query memory budget. `None` means unlimited on that axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum live queries for this tenant.
    pub max_queries: Option<u32>,
    /// Cumulative worst-case buffer budget across the tenant's
    /// *distinct* plans — subscribing twice to the same shared plan
    /// charges its buffer bound once, so identical dashboards are
    /// nearly free.
    pub memory_budget_bytes: Option<u64>,
}

#[derive(Debug, Default)]
struct TenantState {
    queries: u32,
    charged_bytes: u64,
    /// Plan key → this tenant's subscription count (for charge/refund).
    plan_refs: BTreeMap<u64, u32>,
}

#[derive(Debug)]
struct PlanEntry {
    canonical_text: String,
    /// Worst-case buffer bytes this plan charges a tenant on first
    /// subscription.
    bytes: u64,
    /// Query ids subscribed to this plan.
    subscribers: Vec<u32>,
}

#[derive(Debug, Default)]
struct RegState {
    plans: BTreeMap<u64, PlanEntry>,
    quotas: BTreeMap<String, TenantQuota>,
    tenants: BTreeMap<String, TenantState>,
    by_query: BTreeMap<u32, (u64, String)>,
}

/// One plan of the `/share` topology.
#[derive(Debug, Clone, Serialize)]
pub struct SharePlanInfo {
    /// Canonical key, 16 hex digits.
    pub key: String,
    /// Canonical textual form.
    pub canonical: String,
    /// Subscribed query ids.
    pub subscribers: Vec<u32>,
    /// Tenants holding those subscriptions (deduplicated, sorted).
    pub tenants: Vec<String>,
    /// Worst-case buffer bytes charged per subscribing tenant.
    pub peak_buffer_bytes: u64,
}

/// One tenant of the `/share` topology.
#[derive(Debug, Clone, Serialize)]
pub struct TenantInfo {
    /// Tenant name.
    pub tenant: String,
    /// Live queries.
    pub queries: u32,
    /// Bytes charged against the tenant's memory budget.
    pub charged_bytes: u64,
    /// Query quota, if set.
    pub max_queries: Option<u32>,
    /// Memory quota, if set.
    pub memory_budget_bytes: Option<u64>,
}

/// The `GET /share` payload: the sharing topology as the server sees
/// it — distinct plans, who subscribes to them, tenant accounting.
#[derive(Debug, Clone, Serialize)]
pub struct ShareTopology {
    /// Number of distinct registered plans.
    pub distinct_plans: usize,
    /// Per-plan fan-out.
    pub plans: Vec<SharePlanInfo>,
    /// Per-tenant usage against quotas.
    pub tenants: Vec<TenantInfo>,
}

/// Server-side sharing bookkeeping: the live plans by canonical key,
/// per-tenant quotas and usage, and the subscription topology.
#[derive(Debug, Default)]
pub struct ShareRegistry {
    state: Mutex<RegState>,
}

impl ShareRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) a tenant's quota. Existing subscriptions are
    /// unaffected; the quota binds future admissions.
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        lock(&self.state).quotas.insert(tenant.to_string(), quota);
    }

    /// Number of live queries subscribed to a canonical key.
    pub fn subscribers_of(&self, key: u64) -> u64 {
        lock(&self.state).plans.get(&key).map_or(0, |p| p.subscribers.len() as u64)
    }

    /// Admits query `qid` of `tenant` onto plan `key`, whose static
    /// buffer bound is `bytes`, enforcing the tenant's quotas.
    /// Sharing-aware accounting: the bound is charged against the
    /// tenant's memory budget only on the tenant's *first* subscription
    /// to this plan.
    pub fn admit(
        &self,
        tenant: &str,
        key: u64,
        canonical_text: &str,
        bytes: u64,
        qid: u32,
    ) -> Result<()> {
        let mut st = lock(&self.state);
        let quota = st.quotas.get(tenant).copied().unwrap_or_default();
        let usage = st.tenants.entry(tenant.to_string()).or_default();
        if let Some(max) = quota.max_queries {
            if usage.queries >= max {
                return Err(CoreError::PlanRejected(format!(
                    "tenant `{tenant}` is at its query quota ({max})"
                )));
            }
        }
        let first_ref = !usage.plan_refs.contains_key(&key);
        if first_ref {
            if let Some(budget) = quota.memory_budget_bytes {
                if usage.charged_bytes.saturating_add(bytes) > budget {
                    return Err(CoreError::PlanRejected(format!(
                        "admitting this plan would charge tenant `{tenant}` {} bytes \
                         against a budget of {budget} bytes",
                        usage.charged_bytes.saturating_add(bytes)
                    )));
                }
            }
            usage.charged_bytes += bytes;
        }
        usage.queries += 1;
        *usage.plan_refs.entry(key).or_insert(0) += 1;
        let entry = st.plans.entry(key).or_insert_with(|| PlanEntry {
            canonical_text: canonical_text.to_string(),
            bytes,
            subscribers: Vec::new(),
        });
        entry.bytes = bytes;
        entry.subscribers.push(qid);
        st.by_query.insert(qid, (key, tenant.to_string()));
        Ok(())
    }

    /// Releases query `qid`: refunds the tenant's charge when this was
    /// its last subscription to the plan, and drops the plan entry
    /// entirely when no subscriber remains (unsubscribe tears down
    /// only unreferenced plans). Returns `true` when the query was
    /// known.
    pub fn release(&self, qid: u32) -> bool {
        let mut st = lock(&self.state);
        let Some((key, tenant)) = st.by_query.remove(&qid) else { return false };
        let mut plan_bytes = 0;
        if let Some(entry) = st.plans.get_mut(&key) {
            entry.subscribers.retain(|&q| q != qid);
            plan_bytes = entry.bytes;
            if entry.subscribers.is_empty() {
                st.plans.remove(&key);
            }
        }
        if let Some(usage) = st.tenants.get_mut(&tenant) {
            usage.queries = usage.queries.saturating_sub(1);
            let drop_ref = match usage.plan_refs.get_mut(&key) {
                Some(n) => {
                    *n = n.saturating_sub(1);
                    *n == 0
                }
                None => false,
            };
            if drop_ref {
                usage.plan_refs.remove(&key);
                usage.charged_bytes = usage.charged_bytes.saturating_sub(plan_bytes);
            }
        }
        true
    }

    /// The `/share` topology snapshot.
    pub fn topology(&self) -> ShareTopology {
        let st = lock(&self.state);
        let plans = st
            .plans
            .iter()
            .map(|(key, p)| {
                let mut tenants: Vec<String> = p
                    .subscribers
                    .iter()
                    .filter_map(|q| st.by_query.get(q).map(|(_, t)| t.clone()))
                    .collect();
                tenants.sort();
                tenants.dedup();
                SharePlanInfo {
                    key: key_hex(*key),
                    canonical: p.canonical_text.clone(),
                    subscribers: p.subscribers.clone(),
                    tenants,
                    peak_buffer_bytes: p.bytes,
                }
            })
            .collect();
        let tenants = st
            .tenants
            .iter()
            .filter(|(_, u)| u.queries > 0)
            .map(|(name, u)| {
                let quota = st.quotas.get(name).copied().unwrap_or_default();
                TenantInfo {
                    tenant: name.clone(),
                    queries: u.queries,
                    charged_bytes: u.charged_bytes,
                    max_queries: quota.max_queries,
                    memory_budget_bytes: quota.memory_budget_bytes,
                }
            })
            .collect();
        ShareTopology { distinct_plans: st.plans.len(), plans, tenants }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::query::parse_query;

    fn e(q: &str) -> Expr {
        parse_query(q).unwrap()
    }

    /// The requests no node serves: they evaluate their own pipeline.
    fn unshared(plan: &SharePlan, roots: &[(usize, Expr)]) -> Vec<usize> {
        let served = |qid: &usize| plan.nodes.iter().any(|n| n.members.contains(qid));
        roots.iter().map(|(qid, _)| *qid).filter(|qid| !served(qid)).collect()
    }

    #[test]
    fn identical_plans_collapse_into_one_node() {
        let roots: Vec<(usize, Expr)> = (0..100).map(|i| (i, e("scale(g1, 2, 0)"))).collect();
        let plan = plan_sharing(&roots);
        assert_eq!(plan.node_count(), 1);
        assert!(unshared(&plan, &roots).is_empty());
        assert_eq!(plan.nodes[0].members.len(), 100);
        assert!(share_refs(&plan.nodes[0].expr).is_empty());
    }

    #[test]
    fn commuted_spellings_share_one_node() {
        let roots = vec![(0, e("add(g1, g2)")), (1, e("add(g2, g1)"))];
        let plan = plan_sharing(&roots);
        assert_eq!(plan.node_count(), 1);
        assert_eq!(plan.nodes[0].members, vec![0, 1]);
    }

    #[test]
    fn partial_overlap_shares_the_common_prefix() {
        // Both plans contain downsample(g1, 4); only that cut is shared.
        let roots = vec![
            (0, e("restrict_value(downsample(g1, 4), 0, 1)")),
            (1, e("scale(downsample(g1, 4), 2, 0)")),
        ];
        let plan = plan_sharing(&roots);
        assert!(unshared(&plan, &roots).is_empty());
        assert_eq!(plan.node_count(), 3, "{:?}", plan.nodes);
        // Node 0 is the cut (no members of its own), nodes 1..2 consume it.
        let cut = &plan.nodes[0];
        assert!(cut.members.is_empty());
        assert_eq!(cut.expr, e("downsample(g1, 4)"));
        for node in &plan.nodes[1..] {
            assert_eq!(node.members.len(), 1);
            assert_eq!(share_refs(&node.expr), vec![share_source_name(cut.key)]);
        }
    }

    #[test]
    fn a_plan_that_is_anothers_prefix_attaches_to_the_cut() {
        let roots = vec![(0, e("downsample(g1, 4)")), (1, e("scale(downsample(g1, 4), 2, 0)"))];
        let plan = plan_sharing(&roots);
        assert_eq!(plan.node_count(), 2);
        // The prefix query subscribes directly to the cut node.
        let cut = &plan.nodes[0];
        assert_eq!(cut.members, vec![0]);
        assert_eq!(cut.expr, e("downsample(g1, 4)"));
        assert_eq!(plan.nodes[1].members, vec![1]);
    }

    #[test]
    fn disjoint_singletons_stay_unshared() {
        let roots = vec![(0, e("g1")), (1, e("scale(g2, 2, 0)")), (2, e("downsample(g1, 2)"))];
        let plan = plan_sharing(&roots);
        assert_eq!(plan.node_count(), 0);
        assert_eq!(unshared(&plan, &roots), vec![0, 1, 2]);
    }

    #[test]
    fn bare_source_plans_share_without_cutting_bands() {
        // Identical bare-source plans still form one node (one
        // multicast), but a band never becomes a @share cut.
        let roots = vec![(0, e("g1")), (1, e("g1")), (2, e("scale(g1, 2, 0)"))];
        let plan = plan_sharing(&roots);
        assert_eq!(plan.node_count(), 1);
        assert_eq!(plan.nodes[0].members, vec![0, 1]);
        assert_eq!(unshared(&plan, &roots), vec![2]);
    }

    #[test]
    fn nested_cuts_chain_through_the_dag() {
        // g(D) is shared by the first two plans; D by all three. The
        // cut for g(D) must itself consume the cut for D.
        let d = "downsample(g1, 4)";
        let roots = vec![
            (0, e(&format!("scale(clamp({d}, 0, 1), 2, 0)"))),
            (1, e(&format!("abs(clamp({d}, 0, 1))"))),
            (2, e(&format!("threshold({d}, 0.5)"))),
        ];
        let plan = plan_sharing(&roots);
        assert!(unshared(&plan, &roots).is_empty());
        let clamp_node = plan
            .nodes
            .iter()
            .find(|n| n.expr.to_string().starts_with("clamp("))
            .expect("cut for clamp(D)");
        let refs = share_refs(&clamp_node.expr);
        assert_eq!(refs.len(), 1, "clamp cut consumes the D cut: {:?}", clamp_node.expr);
    }

    /// A chunk item carrying `n` points (the content is irrelevant to
    /// the tree; only the counts matter).
    fn chunk_of(n: usize) -> SharedItem {
        use geostreams_core::model::{Chunk, PointRecord};
        use geostreams_geo::Cell;
        Arc::new(ChunkOrMarker::Chunk(Chunk {
            points: (0..n)
                .map(|i| PointRecord { cell: Cell::new(0, i as u32), value: 1.0f32 })
                .collect(),
            end: None,
            ctx: None,
        }))
    }

    #[test]
    fn tree_multicasts_arcs_and_closes() {
        let tree = SubscriptionTree::new();
        let rx1 = tree.subscribe_query(8, "a", None, None);
        let rx2 = tree.subscribe_query(8, "b", None, None);
        assert_eq!(tree.subscribers(), 2);
        let item = chunk_of(2);
        tree.multicast(item, FanoutPolicy::Shed, Duration::from_millis(50));
        assert_eq!(tree.chunks_multicast(), 2);
        let a = rx1.recv().unwrap();
        let b = rx2.recv().unwrap();
        // Same allocation on both sides: pointer-equal, no deep copy.
        assert!(Arc::ptr_eq(&a, &b));
        tree.close();
        assert!(rx1.recv().is_err());
        assert!(rx2.recv().is_err());
        assert_eq!(tree.subscribers(), 0);
    }

    #[test]
    fn full_subscriber_sheds_points_per_tenant_without_stalling() {
        let tree = SubscriptionTree::new();
        let _rx_slow = tree.subscribe_query(1, "slow", None, None);
        let rx_fast = tree.subscribe_query(64, "fast", None, None);
        for _ in 0..5 {
            tree.multicast(chunk_of(10), FanoutPolicy::Shed, Duration::from_millis(10));
        }
        // The slow tenant's 1-slot channel absorbed one item and shed
        // the rest; the fast sibling got everything.
        assert_eq!(rx_fast.try_iter().count(), 5);
        let shed = tree.shed_per_tenant();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0, "slow");
        assert_eq!(shed[0].1, 40, "4 shed runs x 10 points");
    }

    #[test]
    fn registry_shares_charges_and_tears_down() {
        let reg = ShareRegistry::new();
        reg.set_quota(
            "acme",
            TenantQuota { max_queries: Some(3), memory_budget_bytes: Some(1000) },
        );
        // Two subscriptions to the same plan charge the budget once.
        reg.admit("acme", 7, "scale(g1, 2, 0)", 600, 1).unwrap();
        reg.admit("acme", 7, "scale(g1, 2, 0)", 600, 2).unwrap();
        assert_eq!(reg.subscribers_of(7), 2);
        let topo = reg.topology();
        assert_eq!(topo.distinct_plans, 1);
        assert_eq!(topo.tenants[0].charged_bytes, 600);
        // A distinct plan that would break the budget is refused...
        assert!(reg.admit("acme", 9, "downsample(g1, 2)", 600, 3).is_err());
        // ...and the query quota binds as well.
        reg.admit("acme", 11, "g1", 1, 4).unwrap();
        assert!(reg.admit("acme", 11, "g1", 1, 5).is_err(), "4th query over max_queries=3");
        // Release: the plan survives while referenced, then tears down.
        assert!(reg.release(1));
        assert_eq!(reg.subscribers_of(7), 1);
        assert!(reg.release(2));
        assert_eq!(reg.subscribers_of(7), 0);
        let topo = reg.topology();
        assert_eq!(topo.distinct_plans, 1, "unreferenced plan entry torn down");
        assert_eq!(topo.tenants[0].charged_bytes, 1, "only the tiny plan remains charged");
    }
}
