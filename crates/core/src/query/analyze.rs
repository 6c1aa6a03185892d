//! Static plan analysis ("planlint"): blocking classes, buffer bounds
//! and typed diagnostics, derived from an [`Expr`] **before** execution.
//!
//! §3 of the paper classifies every operator by its streaming cost —
//! restrictions are non-blocking and O(1) per point, k× downsampling
//! buffers k rows, frame-scoped stretches buffer a whole frame ("for
//! GOES up to 20 840 × 10 820 points ≈ 280 MB"), and re-projection "may
//! block arbitrarily" unless scan-sector metadata bounds the needed
//! neighborhood. The executor discovers these properties at runtime via
//! [`crate::stats::OpStats`]; this module derives the same facts
//! *statically* by walking the expression against a [`Catalog`], so a
//! DSMS can practice Aurora-style admission control: refuse a continuous
//! query whose worst-case buffer demand exceeds a memory budget, and
//! reject outright any plan with no static bound at all.
//!
//! The analysis produces a [`PlanReport`]:
//!
//! * a per-operator [`BlockingClass`] and worst-case buffer bound in
//!   bytes, derived from each source's `sector_lattice`: each buffering
//!   arm asks the structure its operator runs (`RowWindow`,
//!   `SectorImage`, the stretch scope, …) what it allocates for that
//!   geometry, the figure the structure reports at run time;
//! * schema/CRS type checks — cross-CRS region restrictions,
//!   composition over mismatched coordinate systems or measurement-time
//!   semantics (§3.3: such timestamps "would never match"), degenerate
//!   restriction ranges;
//! * ranked, typed [`Diagnostic`]s, each carrying the operator path and
//!   the paper section the check comes from.
//!
//! The flagship check: a [`Expr::Reproject`] over an input without
//! scan-sector metadata is statically [`BlockingClass::Unbounded`] and
//! yields an error diagnostic; the same plan over a scan-sector source
//! gets a narrow row-band bound.

use super::ast::Expr;
use super::canon::{canonical_key, canonical_text, key_hex};
use super::plan::{region_in, Catalog};
use super::pushdown::{chain_windows, TimeWindow};
use crate::model::rows::{RowSchedule, RowWindow};
use crate::model::sector::SectorImage;
use crate::model::{Organization, TimeSemantics, TimeSet};
use crate::ops::compose::Side;
use crate::ops::focal::RowKernel;
use crate::ops::protocol::{
    meet, CertBuilder, ProtocolCertificate, ProtocolContract, StreamGuarantees,
};
use crate::ops::reproject::{CrsPair, Mapping};
use crate::ops::spatial::BlockRows;
use crate::ops::stretch::Scope;
use crate::ops::{BlockingClass, ReprojectConfig, StretchScope};
use geostreams_geo::{CellBox, Coord, Crs, LatticeGeoref};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Sector dimensions assumed when a source registers no
/// `sector_lattice`: the byte bounds then describe a nominal
/// 1000 × 1000-point sector and an info diagnostic marks the report as
/// model-based.
const DEFAULT_SECTOR_WIDTH: u32 = 1000;
const DEFAULT_SECTOR_HEIGHT: u32 = 1000;

/// Diagnostic severity; `Error` diagnostics make a plan inadmissible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational note (e.g. a cost bound is model-based).
    Info,
    /// Suspicious but runnable (e.g. a restriction that selects nothing).
    Warn,
    /// The plan is rejected (unbounded buffering, unknown source,
    /// un-combinable schemas).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// One typed finding of the static analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `reproject-unbounded`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Slash-separated operator path from the plan root.
    pub path: String,
    /// Paper section the check derives from (e.g. `§3.2`).
    pub section: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity, self.code, self.path, self.message, self.section
        )
    }
}

/// Archive-index size estimate for serving a source's past temporal
/// window: the evidence that classifies a replayed `G|T` plan as
/// *bounded* (a finite set of archived frames with a known byte size,
/// unlike a live feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplayEstimate {
    /// Archived frames inside the window.
    pub frames: u64,
    /// Stored tile records backing those frames.
    pub tiles: u64,
    /// Compressed bytes the replay will read.
    pub bytes: u64,
}

/// Supplies archive-index estimates to the analyzer, so the core crate
/// stays independent of the storage layer (`geostreams-store`
/// implements this for its archive).
pub trait ReplayProvider {
    /// Size of the archived slice of `source` inside `[lo, hi)`, or
    /// `None` when the source is not archived at all.
    fn estimate(&self, source: &str, lo: Option<i64>, hi: Option<i64>) -> Option<ReplayEstimate>;
}

/// Context for [`analyze_with`]: what the analyzer may assume about
/// "now" and about archived history.
#[derive(Default)]
pub struct AnalyzeOptions<'a> {
    /// The live feed's current logical time (its starting scan sector
    /// under sector-id semantics); `None` disables past-window
    /// classification entirely (plain [`analyze`] behavior).
    pub now: Option<i64>,
    /// Archive index for replay estimates; `None` means no history is
    /// retained anywhere.
    pub replay: Option<&'a dyn ReplayProvider>,
}

/// Static verdict for one operator of the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpAnalysis {
    /// Slash-separated operator path from the plan root.
    pub path: String,
    /// Operator name (the textual algebra keyword).
    pub operator: String,
    /// Declared blocking class.
    pub blocking: BlockingClass,
    /// Worst-case bytes this operator's structures have allocated, as
    /// the structures themselves compute them (`bytes_for`).
    pub buffer_bytes: u64,
    /// Upper bound on the points this operator emits per sector: the
    /// cell count of its effective lattice (shrunk by restrictions,
    /// resampled by resolution changes). Points the run drops — a value
    /// restriction, shedding, a region cut short of its bounding box —
    /// only lower the observed count.
    pub points_per_sector: u64,
    /// For source operators whose temporal window reaches into the
    /// past: the archive's bounded-replay estimate (see
    /// [`ReplayEstimate`]); `None` for live sources and non-sources.
    pub replay: Option<ReplayEstimate>,
}

/// The static analyzer's verdict for a whole plan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanReport {
    /// Per-operator analyses, innermost (sources) first.
    pub per_op: Vec<OpAnalysis>,
    /// Worst blocking class across all operators.
    pub blocking: BlockingClass,
    /// Worst-case peak of the bytes the operators' structures have
    /// allocated, for the whole plan (sum of the per-operator bounds —
    /// all operators of a pipeline buffer concurrently). `None` when any
    /// operator is [`BlockingClass::Unbounded`].
    pub peak_buffer_bytes: Option<u64>,
    /// Findings, ranked most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Composed stream-protocol certificate (see
    /// [`ProtocolCertificate`]): the proof that every operator's marker
    /// and ordering requirements are discharged by its upstream. The
    /// serde default is deliberately *uncertified*, so a report that
    /// never ran the verifier cannot pass admission.
    #[serde(default)]
    pub certificate: ProtocolCertificate,
    /// Structural identity of the plan for multi-query sharing (see
    /// [`crate::query::canon`]): the canonical key the shared-plan
    /// registry groups subscriptions by, plus the keys of every
    /// subexpression, so the registry can detect partial overlap
    /// between plans. The serde default (empty) marks a report from a
    /// peer that predates the sharing subsystem.
    #[serde(default)]
    pub sharing: SharingReport,
    /// How the morsel driver would parallelize this plan, composed from
    /// the per-operator [`Parallelism`](crate::ops::Parallelism)
    /// contracts (see [`crate::exec::split_parallel`]). The serde
    /// default (no stages) marks a report from a peer that predates the
    /// parallel executor.
    #[serde(default)]
    pub parallelism: ParallelismReport,
}

/// The plan's data-parallel decomposition, as the static analyzer sees
/// it: which root operators the morsel driver would peel onto the
/// worker pool, and at what granularity.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ParallelismReport {
    /// Partitionable stage suffix, upstream first (algebra keywords).
    pub stages: Vec<String>,
    /// Morsel granularity of the suffix; `None` when the plan has no
    /// partitionable suffix and runs serially.
    pub granularity: Option<crate::ops::Granularity>,
}

/// Canonical identity of one subexpression of a plan.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SubplanKey {
    /// Canonical textual form of the subexpression (re-parsable).
    pub text: String,
    /// Canonical key, 16 hex digits.
    pub key: String,
    /// Operator nodes in the subexpression (sources excluded); the
    /// registry only shares cuts with at least one operator.
    pub operator_count: u64,
}

/// The sharing facts of a plan: its canonical identity and the
/// canonical keys of all subexpressions (deduplicated). `shared_with`
/// is zero from plain analysis; the DSMS's shared-plan registry fills
/// it with the number of *other* live queries on the same canonical
/// key when serving `/explain`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SharingReport {
    /// Canonical key of the whole plan, 16 hex digits.
    pub canonical_key: String,
    /// Canonical textual form of the whole plan.
    pub canonical_text: String,
    /// Canonical keys of every distinct subexpression with at least
    /// one operator, in pre-order.
    pub subplans: Vec<SubplanKey>,
    /// Other live queries sharing this exact plan (registry-filled).
    pub shared_with: u64,
}

impl SharingReport {
    /// Computes the sharing facts of an expression (see
    /// [`crate::query::canon`] for the normalization rules).
    pub fn for_expr(expr: &Expr) -> SharingReport {
        let mut subplans = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        expr.visit(&mut |e| {
            if matches!(e, Expr::Source(_)) {
                return;
            }
            let key = canonical_key(e);
            if seen.insert(key) {
                subplans.push(SubplanKey {
                    text: canonical_text(e),
                    key: key_hex(key),
                    operator_count: e.operator_count() as u64,
                });
            }
        });
        SharingReport {
            canonical_key: key_hex(canonical_key(expr)),
            canonical_text: canonical_text(expr),
            subplans,
            shared_with: 0,
        }
    }
}

impl PlanReport {
    /// True when any diagnostic is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// True when an observed buffering peak exceeds the static bound —
    /// the observability cross-check the DSMS counts as
    /// `geostreams_plan_buffer_overrun_total`. An unbounded plan never
    /// "overruns" (there is no bound to exceed).
    pub fn buffer_overrun(&self, observed_bytes: u64) -> bool {
        match self.peak_buffer_bytes {
            Some(bound) => observed_bytes > bound,
            None => false,
        }
    }
}

/// Stream properties derived while walking an expression: the schema
/// facts the next operator up needs for its own classification.
#[derive(Clone)]
struct Derived {
    crs: Crs,
    organization: Organization,
    time_semantics: TimeSemantics,
    /// Effective sector lattice (shrunk by restrictions, resampled by
    /// resolution changes); `None` when no scan-sector metadata exists.
    lattice: Option<LatticeGeoref>,
    /// The lattice the stream's `SectorStart` carries: a restriction
    /// drops points but keeps it, so it can be larger than `lattice`.
    sector: Option<LatticeGeoref>,
    /// Every row of `lattice` arrives complete, in order and as a frame
    /// of its own: nothing upstream drops a row inside it or frames
    /// several rows together.
    row_frames: bool,
    /// Stream-protocol guarantees at this point of the plan (threaded
    /// by the certificate builder).
    proto: StreamGuarantees,
}

impl Derived {
    fn width(&self) -> u32 {
        self.lattice.map_or(DEFAULT_SECTOR_WIDTH, |l| l.width)
    }

    fn height(&self) -> u32 {
        self.lattice.map_or(DEFAULT_SECTOR_HEIGHT, |l| l.height)
    }

    fn points(&self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }

    /// Width and height of the lattice the stream's `SectorStart`
    /// carries, which the operators that hold rows or images allocate.
    fn sector_size(&self) -> (u32, u32) {
        self.sector
            .or(self.lattice)
            .map_or((DEFAULT_SECTOR_WIDTH, DEFAULT_SECTOR_HEIGHT), |s| (s.width, s.height))
    }

    /// Cells of the sector lattice.
    fn sector_cells(&self) -> u64 {
        let (w, h) = self.sector_size();
        u64::from(w) * u64::from(h)
    }
}

/// A restriction's effect on the effective lattice: the sub-lattice
/// covered by `fp`.
fn restricted_lattice(lat: &LatticeGeoref, fp: &CellBox) -> LatticeGeoref {
    LatticeGeoref::new(
        lat.crs,
        Coord::new(
            lat.origin.x + f64::from(fp.col_min) * lat.step_x,
            lat.origin.y + f64::from(fp.row_min) * lat.step_y,
        ),
        lat.step_x,
        lat.step_y,
        fp.width(),
        fp.height(),
    )
}

/// The rows of `sector` that `lattice`, a restriction of it, covers.
fn rows_within(sector: &LatticeGeoref, lattice: &LatticeGeoref) -> Range<u32> {
    let first = ((lattice.origin.y - sector.origin.y) / sector.step_y).round().max(0.0) as u32;
    first..(first + lattice.height).min(sector.height)
}

/// Output blocks a k× downsampling of `n` consecutive cells can
/// straddle: `n / k` rounded up, plus one when the run starts mid-block.
fn blocks_straddled(n: u32, k: u32) -> u32 {
    match n {
        0 => 0,
        n => (n + k - 2) / k + 1,
    }
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    opts: &'a AnalyzeOptions<'a>,
    /// Under [`AnalyzeOptions::now`], the window of the restriction
    /// chain sitting directly on each node that has one (see
    /// [`chain_windows`]).
    chains: Vec<(&'a Expr, TimeWindow)>,
    per_op: Vec<OpAnalysis>,
    diagnostics: Vec<Diagnostic>,
    cert: CertBuilder,
}

impl Analyzer<'_> {
    fn diag(&mut self, severity: Severity, code: &str, path: &str, message: String, section: &str) {
        self.diagnostics.push(Diagnostic {
            severity,
            code: code.to_string(),
            message,
            path: path.to_string(),
            section: section.to_string(),
        });
    }

    fn record(
        &mut self,
        path: &str,
        operator: &str,
        blocking: BlockingClass,
        buffer_bytes: u64,
        d: &Derived,
    ) {
        self.per_op.push(OpAnalysis {
            path: path.to_string(),
            operator: operator.to_string(),
            blocking,
            buffer_bytes,
            points_per_sector: d.points(),
            replay: None,
        });
    }

    /// The window of the restriction chain sitting directly on `node`.
    fn chain(&self, node: &Expr) -> TimeWindow {
        let chain = self.chains.iter().find(|(n, _)| std::ptr::eq(*n, node));
        chain.map_or_else(TimeWindow::unbounded, |&(_, window)| window)
    }

    /// Past-window classification for a source leaf (§3.1 `G|T` over
    /// history): decides whether the window of the leaf's restriction
    /// chain needs the archive, and whether the archive can actually
    /// serve it. Runs only under [`AnalyzeOptions::now`]; attaches the
    /// replay estimate to the just-recorded source's [`OpAnalysis`].
    fn classify_replay(&mut self, name: &str, path: &str, win: TimeWindow) {
        let Some(now) = self.opts.now else { return };
        if win.is_empty() {
            return; // `empty-time-set` already warns upstream.
        }
        if win == TimeWindow::unbounded() {
            // No explicit temporal restriction: an ordinary continuous
            // query, live from registration onward (§3.1 default).
            return;
        }
        if win.wholly_before(now) {
            let est = self.opts.replay.and_then(|r| r.estimate(name, win.lo, win.hi));
            match est {
                Some(est) if est.frames > 0 => {
                    self.diag(
                        Severity::Info,
                        "replay-from-archive",
                        path,
                        format!(
                            "temporal window {win} lies wholly before the live feed \
                             (now={now}); served as a bounded archive replay (~{} frames, \
                             {} compressed bytes)",
                            est.frames, est.bytes
                        ),
                        "§3.1",
                    );
                    if let Some(op) = self.per_op.last_mut() {
                        op.replay = Some(est);
                    }
                }
                _ => {
                    self.diag(
                        Severity::Error,
                        "past-interval-unservable",
                        path,
                        format!(
                            "temporal window {win} lies wholly before the live feed \
                             (now={now}) and no archived frames cover it; the query could \
                             only ever return an empty stream"
                        ),
                        "§3.1",
                    );
                }
            }
        } else if win.starts_before(now) {
            // Hybrid: the archive backfills [lo, now), the live feed
            // takes over at the watermark.
            let est = self.opts.replay.and_then(|r| r.estimate(name, win.lo, Some(now)));
            match est {
                Some(est) if est.frames > 0 => {
                    self.diag(
                        Severity::Info,
                        "replay-hybrid",
                        path,
                        format!(
                            "temporal window {win} starts before the live feed (now={now}); \
                             backfilled from the archive (~{} frames, {} compressed bytes), \
                             then spliced onto the live stream at the watermark",
                            est.frames, est.bytes
                        ),
                        "§3.1",
                    );
                    if let Some(op) = self.per_op.last_mut() {
                        op.replay = Some(est);
                    }
                }
                _ => {
                    self.diag(
                        Severity::Warn,
                        "past-start-no-archive",
                        path,
                        format!(
                            "temporal window {win} starts before the live feed (now={now}) \
                             but no archived frames cover the past portion; those frames \
                             will be missing from the result"
                        ),
                        "§3.1",
                    );
                }
            }
        }
    }

    /// Applies the source-leaf protocol contract at `path`. A source —
    /// live scanner, bounded archive replay, or hybrid splice — always
    /// synthesizes a pristine, well-bracketed marker sequence (the
    /// supervised runtime wraps chaotic feeds in `StreamRepair` before
    /// any operator sees them), so all three share the `source` contract
    /// shape; the operator name records which kind the replay
    /// classification picked.
    fn apply_source_contract(&mut self, path: &str, window: TimeWindow) -> StreamGuarantees {
        let replayed = self.per_op.last().and_then(|op| op.replay).is_some();
        let name = match (replayed, self.opts.now) {
            (true, Some(now)) if window.wholly_before(now) => "replay-from-archive",
            (true, _) => "replay-hybrid",
            _ => "source",
        };
        self.cert.apply(path, &ProtocolContract::source(name), StreamGuarantees::pristine())
    }

    fn walk(&mut self, expr: &Expr, parent: &str) -> Derived {
        let contract = expr.contract();
        let path = match expr {
            Expr::Source(name) => format!("{parent}/source[{name}]"),
            Expr::Compose { op, .. } => format!("{parent}/compose[{}]", op.symbol()),
            _ => format!("{parent}/{}", contract.operator),
        };
        let (mut d, class, bytes) = self.operator(expr, &path);
        // Only these pass their input's frames on row for row (focal
        // emits every row of its sector).
        d.row_frames &= matches!(
            expr,
            Expr::Source(_)
                | Expr::RestrictSpace { .. }
                | Expr::RestrictTime { .. }
                | Expr::MapValue { .. }
                | Expr::Stretch { .. }
                | Expr::Focal { .. }
        );
        self.record(&path, &contract.operator, class, bytes, &d);
        d.proto = match expr {
            Expr::Source(name) => {
                let window = self.chain(expr);
                if self.catalog.schema(name).is_some() {
                    self.classify_replay(name, &path, window);
                }
                self.apply_source_contract(&path, window)
            }
            _ => {
                self.check_held(expr, &path, &contract.operator);
                self.cert.apply(&path, &contract, d.proto)
            }
        };
        d
    }

    /// A window that reaches before `now` but is held above `expr`, an
    /// operator the optimizer could not push it through: a source below
    /// whose own chain does not reach back is read live only, so the
    /// past part of the window never arrives. Reported instead of
    /// admitted as a silent gap.
    fn check_held(&mut self, expr: &Expr, path: &str, operator: &str) {
        let (Some(now), win) = (self.opts.now, self.chain(expr)) else { return };
        let mut live = None;
        expr.visit(&mut |x| match x {
            Expr::Source(name) if !self.chain(x).reaches_before(now) => {
                live.get_or_insert_with(|| name.clone());
            }
            _ => {}
        });
        let Some(live) = live.filter(|_| win.reaches_before(now)) else { return };
        let (severity, code) = match win.wholly_before(now) {
            true => (Severity::Error, "past-interval-unservable"),
            false => (Severity::Warn, "past-start-no-archive"),
        };
        let message = format!(
            "temporal window {win} reaches before the live feed (now={now}) but is held above \
             `{operator}`, which no restriction crosses; source `{live}` is read live only, so the \
             window's past part is never delivered"
        );
        self.diag(severity, code, path, message, "§3.4");
    }

    /// A source leaf: the stream its schema describes.
    fn source(&mut self, name: &str, path: &str) -> Derived {
        let catalog = self.catalog;
        let schema = catalog.schema(name);
        match schema {
            None => self.diag(
                Severity::Error,
                "unknown-source",
                path,
                format!("source `{name}` is not registered in the catalog"),
                "§4",
            ),
            Some(s) if s.sector_lattice.is_none() => self.diag(
                Severity::Info,
                "source-no-scan-sector",
                path,
                format!(
                    "source `{name}` registers no sector lattice; byte bounds use the default \
                     {DEFAULT_SECTOR_WIDTH}x{DEFAULT_SECTOR_HEIGHT} sector model"
                ),
                "§2",
            ),
            Some(_) => {}
        }
        let lattice = schema.and_then(|s| s.sector_lattice);
        let organization = schema.map_or(Organization::RowByRow, |s| s.organization);
        Derived {
            crs: schema.map_or(Crs::LatLon, |s| s.crs),
            organization,
            time_semantics: schema.map_or(TimeSemantics::SectorId, |s| s.time_semantics),
            lattice,
            sector: lattice,
            row_frames: organization == Organization::RowByRow,
            proto: StreamGuarantees::pristine(),
        }
    }

    /// An operator node at `path`: walks its inputs and derives its
    /// output stream, blocking class and buffer bound.
    fn operator(&mut self, expr: &Expr, path: &str) -> (Derived, BlockingClass, u64) {
        let none = BlockingClass::NonBlocking;
        match expr {
            Expr::Source(name) => (self.source(name, path), none, 0),
            Expr::RestrictSpace { input, region, crs } => {
                let mut d = self.walk(input, path);
                if region.bbox().area() <= 0.0 {
                    self.diag(
                        Severity::Warn,
                        "empty-region",
                        path,
                        "spatial restriction region has zero area; no point can pass".into(),
                        "§3.1",
                    );
                }
                let rect_in_stream = if *crs == d.crs {
                    Some(region.bbox())
                } else {
                    self.diag(
                        Severity::Info,
                        "region-cross-crs",
                        path,
                        format!(
                            "region given in {crs} over a {} stream; the planner maps it \
                             (conservative bounding box)",
                            d.crs
                        ),
                        "§3.4",
                    );
                    match region_in(region, crs, &d.crs) {
                        Ok(mapped) => Some(mapped.bbox()),
                        Err(e) => {
                            self.diag(
                                Severity::Error,
                                "region-unmappable",
                                path,
                                format!("region cannot be mapped into the stream CRS: {e}"),
                                "§3.4",
                            );
                            None
                        }
                    }
                };
                if let (Some(lat), Some(rect)) = (d.lattice, rect_in_stream) {
                    match lat.footprint(&rect) {
                        Some(fp) => {
                            d.lattice = Some(restricted_lattice(&lat, &fp));
                        }
                        None => {
                            self.diag(
                                Severity::Warn,
                                "region-disjoint",
                                path,
                                "restriction region does not intersect the source sector; \
                                 the query selects no points"
                                    .into(),
                                "§3.1",
                            );
                            d.lattice = Some(LatticeGeoref { width: 0, height: 0, ..lat });
                        }
                    }
                }
                // A polygon can miss every cell centre of a row of its box.
                d.row_frames &= region.is_rectangular();
                (d, none, 0)
            }
            Expr::RestrictTime { input, times } => {
                let mut d = self.walk(input, path);
                // Frames pass whole sectors at a time only when every frame
                // carries its sector's timestamp.
                d.row_frames &= d.time_semantics == TimeSemantics::SectorId;
                let degenerate = match times {
                    TimeSet::Instants(v) => v.is_empty(),
                    TimeSet::Interval { lo: Some(lo), hi: Some(hi) } => lo >= hi,
                    TimeSet::Interval { .. } => false,
                    TimeSet::Recurring { period, len, .. } => *period <= 0 || *len <= 0,
                };
                if degenerate {
                    self.diag(
                        Severity::Warn,
                        "empty-time-set",
                        path,
                        "temporal restriction selects no timestamps; no sector can pass".into(),
                        "§3.1",
                    );
                }
                (d, none, 0)
            }
            Expr::RestrictValue { input, ranges } => {
                let d = self.walk(input, path);
                if ranges.is_empty() || ranges.iter().all(|(lo, hi)| lo > hi) {
                    self.diag(
                        Severity::Warn,
                        "degenerate-value-range",
                        path,
                        "value restriction accepts no values; every point is dropped".into(),
                        "§3.1",
                    );
                }
                (d, none, 0)
            }
            Expr::MapValue { input, .. } => (self.walk(input, path), none, 0),
            Expr::Stretch { input, scope, .. } => {
                let d = self.walk(input, path);
                // The scope holds each frame's points, at most a sector
                // row (or the sector) of them, and its two markers.
                let (width, _) = d.sector_size();
                let (frames, frame_points) = match d.organization {
                    Organization::RowByRow => (u64::from(d.height()), u64::from(width)),
                    Organization::PointByPoint => (d.points(), 1),
                    Organization::ImageByImage => (1, d.sector_cells()),
                };
                let held = |frames: u64, closing: u64| {
                    Scope::<f32>::bytes_for(frames * frame_points, frames * 2 + closing)
                };
                match (scope, d.organization) {
                    (StretchScope::Frame, Organization::RowByRow | Organization::PointByPoint) => {
                        (d, BlockingClass::BoundedRows(1), held(1, 0))
                    }
                    _ => {
                        // An image scope closes at `SectorEnd`, which it holds too.
                        let bytes = match scope {
                            StretchScope::Frame => held(1, 0),
                            StretchScope::Image => held(frames, 1),
                        };
                        self.diag(
                            Severity::Info,
                            "stretch-buffers-image",
                            path,
                            format!(
                                "image-scoped stretch must buffer the whole image \
                                 ({bytes} bytes) before emitting"
                            ),
                            "§3.2",
                        );
                        (d, BlockingClass::BoundedFrame, bytes)
                    }
                }
            }
            Expr::Focal { input, func, k } => {
                let mut d = self.walk(input, path);
                // The operator's band schedule over the lattice its
                // `SectorStart` carries; its window holds whole rows of it.
                let sector = d.sector.or(d.lattice);
                let (width, height) = (
                    sector.map_or(DEFAULT_SECTOR_WIDTH, |s| s.width),
                    sector.map_or(DEFAULT_SECTOR_HEIGHT, |s| s.height),
                );
                let schedule = RowSchedule::band(height, func.kernel_size(*k) / 2);
                let arriving = match (sector, d.lattice) {
                    (Some(src), Some(lat)) => rows_within(&src, &lat),
                    _ => 0..height,
                };
                let (band, held) = schedule.bound(arriving, d.row_frames);
                let kernel = RowKernel::bytes_for(*func, func.kernel_size(*k), width);
                let bytes = RowWindow::<f32>::bytes_for(held, width) + schedule.bytes() + kernel;
                // Every row of the sector comes out whole, a frame of its own.
                (d.lattice, d.row_frames) = (sector, true);
                (d, BlockingClass::BoundedRows(band), bytes)
            }
            Expr::Orient { input, orientation } => {
                let mut d = self.walk(input, path);
                if orientation.swaps_axes() {
                    let swap =
                        |l: LatticeGeoref| LatticeGeoref { width: l.height, height: l.width, ..l };
                    d.lattice = d.lattice.map(swap);
                    d.sector = d.sector.map(swap);
                }
                (d, none, 0)
            }
            Expr::Magnify { input, k } => {
                let mut d = self.walk(input, path);
                if *k == 0 {
                    self.diag(
                        Severity::Error,
                        "invalid-parameter",
                        path,
                        "magnification factor must be at least 1".into(),
                        "§3.2",
                    );
                } else if let Some(lat) = d.lattice {
                    d.lattice = Some(lat.magnified(*k));
                    d.sector = d.sector.map(|s| s.magnified(*k));
                }
                (d, none, 0)
            }
            Expr::Downsample { input, k } => {
                let mut d = self.walk(input, path);
                if *k == 0 {
                    self.diag(
                        Severity::Error,
                        "invalid-parameter",
                        path,
                        "downsampling factor must be at least 1".into(),
                        "§3.2",
                    );
                    return (d, none, 0);
                }
                // Blocks sit on the sector's k-grid: a window cut by a
                // restriction can straddle one more block per axis, and
                // the partial blocks past the sector's edge are dropped.
                let sector = d.sector.map(|s| s.reduced(*k));
                let out_width =
                    blocks_straddled(d.width(), *k).min(sector.map_or(u32::MAX, |s| s.width));
                // One output row of block accumulators spans k input rows.
                let bytes = BlockRows::bytes_for(out_width);
                if let Some(lat) = d.lattice {
                    let out_height =
                        blocks_straddled(lat.height, *k).min(sector.map_or(u32::MAX, |s| s.height));
                    d.lattice = Some(LatticeGeoref {
                        width: out_width,
                        height: out_height,
                        ..lat.reduced(*k)
                    });
                }
                d.sector = sector;
                (d, BlockingClass::BoundedRows(*k), bytes)
            }
            Expr::Reproject { input, to, kernel } => {
                let mut d = self.walk(input, path);
                let from = d.crs;
                d.crs = *to;
                let Some(lat) = d.lattice else {
                    self.diag(
                        Severity::Error,
                        "reproject-unbounded",
                        path,
                        format!(
                            "re-projection to {to} over a stream without scan-sector \
                             metadata may block arbitrarily; register the source with \
                             a sector lattice or restrict the stream first"
                        ),
                        "§3.2",
                    );
                    return (d, BlockingClass::Unbounded, 0);
                };
                // What the operator derives from the lattice its
                // `SectorStart` carries: the output lattice and the row
                // schedule.
                let src = d.sector.unwrap_or(lat);
                let cfg = ReprojectConfig::new(*to).kernel(*kernel);
                let geometry = CrsPair::new(from, *to).ok().and_then(|pair| {
                    let out = cfg.out_lattice(&pair, &src)?;
                    Some((out, cfg.schedule(&pair, &src, &out)))
                });
                let Some((out, schedule)) = geometry else {
                    self.diag(
                        Severity::Warn,
                        "reproject-extent-unknown",
                        path,
                        format!(
                            "sector extent cannot be mapped into {to}, so the operator drops \
                             every sector; downstream bounds fall back to the default sector \
                             model"
                        ),
                        "§3.2",
                    );
                    (d.lattice, d.sector) = (None, None);
                    return (d, none, 0);
                };
                // The class is a property of the geometry, which a
                // restriction pushed below leaves alone; the bytes follow
                // the rows that do arrive.
                let (band, held) = schedule.bound(rows_within(&src, &lat), d.row_frames);
                let bytes = RowWindow::<f32>::bytes_for(held, src.width)
                    + Mapping::bytes_for(&out, &schedule);
                // It interpolates every output cell inside the sector,
                // whatever its input dropped, so the whole output lattice
                // is effective.
                (d.lattice, d.sector) = (Some(out), Some(out));
                (d, BlockingClass::BoundedRows(band), bytes)
            }
            Expr::Compose { left: l, right: r, .. } | Expr::Ndvi { nir: l, vis: r } => {
                let (l, r) = (self.walk(l, path), self.walk(r, path));
                self.compose_like(path, l, r)
            }
            Expr::Shed { input, stride, .. } => {
                let d = self.walk(input, path);
                if *stride == 0 {
                    self.diag(
                        Severity::Error,
                        "invalid-parameter",
                        path,
                        "shed stride must be at least 1".into(),
                        "§3.1",
                    );
                }
                (d, none, 0)
            }
            Expr::Delay { input, d: shift } => {
                let d = self.walk(input, path);
                if *shift == 0 {
                    self.diag(
                        Severity::Error,
                        "invalid-parameter",
                        path,
                        "delay must shift by at least one sector".into(),
                        "§3.3",
                    );
                }
                // The line's `d` images and the open one (or the one
                // going out).
                let bytes = u64::from(shift + 1) * SectorImage::<f32>::bytes_for(d.sector_cells());
                (d, BlockingClass::BoundedFrame, bytes)
            }
            Expr::AggTime { input, window, .. } => {
                let d = self.walk(input, path);
                if *window == 0 {
                    self.diag(
                        Severity::Error,
                        "invalid-parameter",
                        path,
                        "aggregate window must span at least one image".into(),
                        "§6",
                    );
                }
                // The window's `W` images and the open one.
                let bytes = u64::from(window + 1) * SectorImage::<f64>::bytes_for(d.sector_cells());
                (d, BlockingClass::BoundedFrame, bytes)
            }
            Expr::AggSpace { input, region, .. } => {
                let mut d = self.walk(input, path);
                if region.bbox().area() <= 0.0 {
                    self.diag(
                        Severity::Warn,
                        "empty-region",
                        path,
                        "aggregate region has zero area; the aggregate sees no points".into(),
                        "§6",
                    );
                }
                // The output is a 1×1-lattice scalar stream.
                d.lattice = Some(LatticeGeoref::north_up(d.crs, region.bbox(), 1, 1));
                d.sector = d.lattice;
                (d, none, 0)
            }
        }
    }

    /// Shared classification for `Compose` and the fused NDVI macro
    /// (§3.3): buffering depends on the point organization, and the
    /// timestamp semantics decide whether points can match at all.
    fn compose_like(
        &mut self,
        path: &str,
        l: Derived,
        r: Derived,
    ) -> (Derived, BlockingClass, u64) {
        if l.crs != r.crs {
            self.diag(
                Severity::Error,
                "compose-crs-mismatch",
                path,
                format!(
                    "composition inputs use different coordinate systems ({} vs {}); \
                     re-project one side first",
                    l.crs, r.crs
                ),
                "§3.3",
            );
        }
        if l.time_semantics == TimeSemantics::MeasurementTime
            || r.time_semantics == TimeSemantics::MeasurementTime
        {
            self.diag(
                Severity::Warn,
                "compose-measurement-time",
                path,
                "an input is timestamped by measurement time; timestamps from different \
                 streams essentially never match, so the composition produces no output"
                    .into(),
                "§3.3",
            );
        }
        if let (Some(ll), Some(rl)) = (l.lattice, r.lattice) {
            if ll.width != rl.width || ll.height != rl.height {
                self.diag(
                    Severity::Warn,
                    "compose-lattice-mismatch",
                    path,
                    format!(
                        "input lattices differ ({}x{} vs {}x{}); Definition 10 requires one \
                         point lattice — unmatched points are dropped",
                        ll.width, ll.height, rl.width, rl.height
                    ),
                    "§3.3",
                );
            }
        }
        let image_by_image = l.organization == Organization::ImageByImage
            || r.organization == Organization::ImageByImage;
        // The keyed buffers hold an image, or a row, of each side.
        let (class, points) = if image_by_image {
            (BlockingClass::BoundedFrame, l.points() + r.points())
        } else {
            (BlockingClass::BoundedRows(1), u64::from(l.width()) + u64::from(r.width()))
        };
        let bytes = Side::<f32>::bytes_for(points);
        let out = Derived {
            crs: l.crs,
            organization: l.organization,
            time_semantics: l.time_semantics,
            lattice: l.lattice.or(r.lattice),
            sector: l.sector.or(r.sector),
            row_frames: false,
            // The merge sees the weaker of what each side guarantees.
            proto: meet(l.proto, r.proto),
        };
        (out, class, bytes)
    }
}

/// Statically analyzes a plan against a catalog.
///
/// Never fails: problems surface as ranked [`Diagnostic`]s in the
/// returned [`PlanReport`] so callers can render all findings at once.
pub fn analyze(expr: &Expr, catalog: &Catalog) -> PlanReport {
    analyze_with(expr, catalog, &AnalyzeOptions::default())
}

/// [`analyze`] with runtime context: when [`AnalyzeOptions::now`] is
/// set, source leaves whose own restriction chain (the window the
/// optimizer left directly on the source, see
/// [`source_windows`](super::source_windows)) reaches before `now` are
/// classified — bounded archive replay (`replay-from-archive` /
/// `replay-hybrid`, with a [`ReplayEstimate`] on the source's
/// [`OpAnalysis`]), a warning when the past portion is not archived, or
/// an error (`past-interval-unservable`) when a wholly-past window has
/// no archive coverage and the query could only ever return an empty
/// stream. A window held above an operator, over a source read live
/// only, gets the same warning or error at that operator.
pub fn analyze_with(expr: &Expr, catalog: &Catalog, opts: &AnalyzeOptions<'_>) -> PlanReport {
    let chains = if opts.now.is_some() { chain_windows(expr) } else { Vec::new() };
    let mut a = Analyzer {
        catalog,
        opts,
        chains,
        per_op: Vec::new(),
        diagnostics: Vec::new(),
        cert: CertBuilder::new(),
    };
    let root = a.walk(expr, "");
    let certificate = a.cert.finish(root.proto);
    if !certificate.certified {
        for v in &certificate.violations {
            a.diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: "protocol-uncertified".to_string(),
                message: v.clone(),
                path: String::new(),
                section: "§12".to_string(),
            });
        }
    }
    let blocking = a
        .per_op
        .iter()
        .map(|op| op.blocking)
        .fold(BlockingClass::NonBlocking, BlockingClass::worse);
    let peak_buffer_bytes = if blocking == BlockingClass::Unbounded {
        None
    } else {
        Some(a.per_op.iter().map(|op| op.buffer_bytes).sum())
    };
    // Rank: errors first, then warnings, then info (stable within class).
    a.diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let split = crate::exec::split_parallel(expr);
    let parallelism = ParallelismReport {
        granularity: if split.stages.is_empty() { None } else { Some(split.granularity()) },
        stages: split.stages.iter().map(|s| s.contract().operator).collect(),
    };
    PlanReport {
        per_op: a.per_op,
        blocking,
        peak_buffer_bytes,
        diagnostics: a.diagnostics,
        certificate,
        sharing: SharingReport::for_expr(expr),
        parallelism,
    }
}

/// An analyzed plan: an expression and the analyzer's report on it.
/// Only analysis makes one — [`Plan::analyze`], or
/// [`optimize`](super::optimize), whose closing analysis is the report —
/// and the planner, the morsel split, DSMS admission and `/explain` read
/// that report instead of analyzing again. It derefs to its [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    expr: Expr,
    report: PlanReport,
}

impl Plan {
    /// Analyzes `expr` as written (see [`analyze`]).
    pub fn analyze(expr: Expr, catalog: &Catalog) -> Plan {
        Plan::analyze_with(expr, catalog, &AnalyzeOptions::default())
    }

    /// Analyzes `expr` in a runtime context (see [`analyze_with`]).
    pub fn analyze_with(expr: Expr, catalog: &Catalog, opts: &AnalyzeOptions<'_>) -> Plan {
        let report = analyze_with(&expr, catalog, opts);
        Plan { expr, report }
    }

    /// The analyzer's report on the plan.
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// The plan with the registry-filled [`SharingReport::shared_with`].
    pub fn shared_with(mut self, others: u64) -> Plan {
        self.report.sharing.shared_with = others;
        self
    }

    /// The one refusal: the plan's error diagnostics, an uncertified
    /// protocol composition among them, joined by `; `. The planner reads
    /// it before building, DSMS admission before its budget checks.
    pub fn verdict(&self) -> crate::Result<()> {
        let errors = self.report.diagnostics.iter().filter(|d| d.severity == Severity::Error);
        let errors: Vec<String> = errors.map(Diagnostic::to_string).collect();
        if errors.is_empty() && self.report.certificate.certified {
            return Ok(());
        }
        Err(crate::CoreError::PlanRejected(errors.join("; ")))
    }
}

impl std::ops::Deref for Plan {
    type Target = Expr;

    fn deref(&self) -> &Expr {
        &self.expr
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.expr.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StreamSchema, VecStream};
    use crate::query::parse_query;
    use geostreams_geo::Rect;

    fn catalog() -> Catalog {
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 64, 64);
        let mut cat = Catalog::new();
        for name in ["g1", "g2"] {
            let mut schema = StreamSchema::new(name, Crs::LatLon);
            schema.sector_lattice = Some(lattice);
            let name = name.to_string();
            cat.register(schema, move || {
                Box::new(VecStream::<f32>::single_sector(&name, lattice, 0, |_, _| 0.0))
            });
        }
        // A source that never registered scan-sector metadata.
        cat.register(StreamSchema::new("nolat", Crs::LatLon), || {
            Box::new(VecStream::<f32>::single_sector(
                "nolat",
                LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), 4, 4),
                0,
                |_, _| 0.0,
            ))
        });
        cat
    }

    fn report(q: &str) -> PlanReport {
        analyze(&parse_query(q).unwrap(), &catalog())
    }

    #[test]
    fn parallelism_report_composes_stage_contracts() {
        // Partitionable suffix above a shed: the shed stays serial, the
        // scale+restrict suffix parallelizes at frame granularity.
        let r = report("restrict_value(scale(shed(g1, \"points\", 4), 2, 0), 0, 1)");
        assert_eq!(r.parallelism.stages, vec!["map_value", "restrict_value"]);
        assert_eq!(r.parallelism.granularity, Some(crate::ops::Granularity::Frame));
        // A sector-scoped stage promotes the granularity.
        let r = report("focal(scale(g1, 2, 0), \"mean\", 3)");
        assert_eq!(r.parallelism.granularity, Some(crate::ops::Granularity::Sector));
        // No partitionable suffix at the root: serial plan.
        let r = report("shed(scale(g1, 2, 0), \"points\", 4)");
        assert!(r.parallelism.stages.is_empty());
        assert_eq!(r.parallelism.granularity, None);
    }

    #[test]
    fn restriction_shrinks_downstream_buffer_bounds() {
        let cut = "restrict_space(g1, bbox(-124, 38, -122, 40), \"latlon\")";
        let bound = |q: &str| report(q).peak_buffer_bytes.unwrap();
        assert!(bound(&format!("downsample({cut}, 4)")) < bound("downsample(g1, 4)"));
        // A focal window holds whole rows of the sector, restricted or not.
        let focal = |input: &str| bound(&format!("focal({input}, \"sobel\", 3)"));
        assert_eq!(focal(cut), focal("g1"));
    }

    #[test]
    fn diagnostics_rank_errors_first() {
        let r = report("reproject(restrict_value(nolat, 5, 1), \"utm:10N\")");
        assert!(r.diagnostics.len() >= 2);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        let mut last = Severity::Error;
        for d in &r.diagnostics {
            assert!(d.severity <= last);
            last = d.severity;
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report("stretch(ndvi(g1, g2), \"linear\", \"image\")");
        let json = serde_json::to_string(&r).unwrap();
        let back: PlanReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    /// Fake archive holding frames for timestamps `[0, archived_hi)`,
    /// one frame and 64 bytes per archived sector.
    struct FakeArchive {
        archived_hi: i64,
    }

    impl ReplayProvider for FakeArchive {
        fn estimate(
            &self,
            _source: &str,
            lo: Option<i64>,
            hi: Option<i64>,
        ) -> Option<ReplayEstimate> {
            let lo = lo.unwrap_or(0).max(0);
            let hi = hi.unwrap_or(self.archived_hi).min(self.archived_hi);
            let frames = u64::try_from(hi - lo).unwrap_or(0);
            Some(ReplayEstimate { frames, tiles: frames, bytes: frames * 64 })
        }
    }

    fn report_with(q: &str, opts: &AnalyzeOptions<'_>) -> PlanReport {
        analyze_with(&parse_query(q).unwrap(), &catalog(), opts)
    }

    #[test]
    fn wholly_past_window_without_archive_is_an_error() {
        let q = "restrict_time(g1, interval(0, 4))";
        // Plain analysis (no notion of "now") stays permissive.
        assert!(!report(q).has_errors());
        // With the live feed at sector 10 and no archive, the window can
        // never be served: silent-empty-result becomes a typed error.
        let r = report_with(q, &AnalyzeOptions { now: Some(10), replay: None });
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == "past-interval-unservable"));
    }

    #[test]
    fn wholly_past_window_with_archive_is_bounded_replay() {
        let archive = FakeArchive { archived_hi: 10 };
        let r = report_with(
            "restrict_time(g1, interval(2, 6))",
            &AnalyzeOptions { now: Some(10), replay: Some(&archive) },
        );
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().any(|d| d.code == "replay-from-archive"));
        let src = r.per_op.iter().find(|op| op.operator == "source").unwrap();
        assert_eq!(src.replay, Some(ReplayEstimate { frames: 4, tiles: 4, bytes: 256 }));
    }

    #[test]
    fn past_start_splits_into_hybrid_backfill() {
        let archive = FakeArchive { archived_hi: 10 };
        // Open-ended window starting in the past: backfill [1, 5), then live.
        let r = report_with(
            "restrict_time(g1, interval(1, none))",
            &AnalyzeOptions { now: Some(5), replay: Some(&archive) },
        );
        assert!(!r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == "replay-hybrid"));
        let src = r.per_op.iter().find(|op| op.operator == "source").unwrap();
        assert_eq!(src.replay.unwrap().frames, 4);
    }

    #[test]
    fn past_start_without_archive_warns() {
        let r = report_with(
            "restrict_time(g1, interval(1, none))",
            &AnalyzeOptions { now: Some(5), replay: None },
        );
        assert!(!r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == "past-start-no-archive"));
    }

    #[test]
    fn live_only_windows_are_untouched_by_context() {
        let archive = FakeArchive { archived_hi: 10 };
        for q in ["g1", "restrict_time(g1, interval(5, 9))"] {
            let r = report_with(q, &AnalyzeOptions { now: Some(5), replay: Some(&archive) });
            assert!(!r.has_errors(), "{q}");
            assert!(
                !r.diagnostics
                    .iter()
                    .any(|d| d.code.starts_with("replay") || d.code.starts_with("past")),
                "{q}: {:?}",
                r.diagnostics
            );
        }
    }

    #[test]
    fn nested_restrictions_classify_through_their_intersection() {
        let archive = FakeArchive { archived_hi: 10 };
        // [0, 20) ∩ [2, 6) = [2, 6): wholly past of now=8.
        let r = report_with(
            "restrict_time(restrict_time(g1, interval(0, 20)), interval(2, 6))",
            &AnalyzeOptions { now: Some(8), replay: Some(&archive) },
        );
        assert!(r.diagnostics.iter().any(|d| d.code == "replay-from-archive"));
    }

    #[test]
    fn every_plan_carries_a_certificate() {
        for q in [
            "g1",
            "restrict_space(g1, bbox(-123, 37, -122, 38), \"latlon\")",
            "restrict_time(g1, interval(0, 5))",
            "restrict_value(g1, 0, 1)",
            "scale(g1, 2, 0)",
            "stretch(g1, \"linear\", \"image\")",
            "focal(g1, \"sobel\", 3)",
            "orient(g1, \"rot90\")",
            "magnify(g1, 2)",
            "downsample(g1, 2)",
            "downsample(magnify(g1, 3), 2)",
            "reproject(g1, \"utm:10N\")",
            "compose(g1, \"+\", g2)",
            "ndvi(g1, g2)",
            "shed(g1, \"points\", 4)",
            "delay(g1, 2)",
            "agg_time(g1, \"mean\", 3)",
            "agg_space(g1, \"mean\", bbox(-123, 37, -122, 38))",
            "stretch(ndvi(restrict_space(g1, bbox(-123, 37, -122, 38), \"latlon\"), g2), \
             \"linear\", \"image\")",
        ] {
            let r = report(q);
            assert!(r.certificate.certified, "{q}: {:?}", r.certificate.violations);
            assert!(r.certificate.output.bracketed, "{q}");
            // Orientation keeps the input's scan order (orient_contract).
            assert_eq!(r.certificate.output.lattice_order, !q.starts_with("orient"), "{q}");
            assert_eq!(r.certificate.stages.len(), r.per_op.len(), "{q}");
            assert!(r.certificate.violations.is_empty(), "{q}");
        }
        // A stage that needs lattice order is refused over an orientation.
        for q in [
            "downsample(orient(g1, \"transpose\"), 2)",
            "downsample(orient(g1, \"fliph\"), 2)",
            "focal(orient(g1, \"rot90\"), \"mean\", 3)",
        ] {
            let r = report(q);
            assert!(!r.certificate.certified, "{q}");
            assert!(r.diagnostics.iter().any(|d| d.code == "protocol-uncertified"), "{q}");
        }
    }

    #[test]
    fn certificate_stage_paths_match_per_op_paths() {
        let r = report("stretch(ndvi(g1, g2), \"linear\", \"image\")");
        let op_paths: Vec<&str> = r.per_op.iter().map(|op| op.path.as_str()).collect();
        let stage_paths: Vec<&str> = r.certificate.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(op_paths, stage_paths);
    }

    #[test]
    fn replayed_sources_certify_under_their_replay_contract() {
        let archive = FakeArchive { archived_hi: 10 };
        let r = report_with(
            "restrict_time(g1, interval(2, 6))",
            &AnalyzeOptions { now: Some(10), replay: Some(&archive) },
        );
        assert!(r.certificate.certified);
        assert_eq!(r.certificate.stages[0].contract.operator, "replay-from-archive");
        let h = report_with(
            "restrict_time(g1, interval(1, none))",
            &AnalyzeOptions { now: Some(5), replay: Some(&archive) },
        );
        assert!(h.certificate.certified);
        assert_eq!(h.certificate.stages[0].contract.operator, "replay-hybrid");
    }

    #[test]
    fn unverified_reports_deserialize_uncertified() {
        let r = report("g1");
        let json = serde_json::to_string(&r).unwrap();
        // An older peer that never ran the verifier omits the
        // trailing certificate (and sharing) fields entirely.
        let idx = json.rfind(",\"certificate\":").unwrap();
        let legacy = format!("{}}}", &json[..idx]);
        let back: PlanReport = serde_json::from_str(&legacy).unwrap();
        assert!(!back.certificate.certified);
        assert!(!back.certificate.violations.is_empty());
    }

    #[test]
    fn reports_carry_canonical_sharing_facts() {
        let a = report("add(g1, g2)");
        let b = report("add(g2, g1)");
        assert_eq!(a.sharing.canonical_key, b.sharing.canonical_key);
        assert_eq!(a.sharing.canonical_text, "add(g1, g2)");
        assert_eq!(a.sharing.shared_with, 0);
        // One distinct operator subexpression: the add itself.
        assert_eq!(a.sharing.subplans.len(), 1);
        assert_eq!(a.sharing.subplans[0].operator_count, 1);
        // Nested plans list every operator cut exactly once.
        let c = report("scale(downsample(g1, 4), 2, 0)");
        assert_eq!(c.sharing.subplans.len(), 2);
        assert!(c.sharing.subplans.iter().any(|s| s.text == "downsample(g1, 4)"));
    }
}
