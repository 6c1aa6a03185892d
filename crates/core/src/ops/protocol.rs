//! Stream-protocol contracts: the FrameEnd/SectorEnd marker discipline
//! of DESIGN.md §12 as a machine-checked algebra.
//!
//! Every element stream obeys the bracketing grammar
//! `SectorStart (FrameStart Point* FrameEnd)* SectorEnd`, and chunked
//! transport additionally promises that a point run never crosses a
//! frame or sector edge. Until now those invariants lived in prose and
//! were enforced only by runtime differential tests. This module makes
//! them first-class:
//!
//! * a [`ProtocolContract`] declares, per operator, what it does to
//!   framing markers ([`MarkerEffect`]), what it does to lattice order
//!   ([`OrderEffect`]), what it requires of its input, and how it
//!   treats chunk boundaries ([`ChunkDiscipline`]);
//! * [`CertBuilder`] composes contracts bottom-up along a plan into a
//!   [`ProtocolCertificate`]: the proof object that every stage's input
//!   requirements are met by the guarantees its upstream emits. The
//!   static analyzer attaches the certificate to every
//!   [`PlanReport`](crate::query::PlanReport), and the DSMS refuses to
//!   admit a plan whose certificate is not [`ProtocolCertificate::certified`];
//! * [`ChunkProtocolChecker`] checks the whole stream grammar **live**
//!   over pulled items (bracketing, points inside their frame's box and
//!   the lattice, strictly increasing ids, sector-id timestamps, runs
//!   within the budget and never crossing a frame or sector edge) and
//!   names each break with a [`Violation`]. `exec`'s driver runs it in
//!   debug builds only, so the certified release fast path pays
//!   nothing.

use crate::model::{ChunkOrMarker, Marker, TimeSemantics};
use geostreams_geo::CellBox;
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};

/// What an operator does to the framing markers passing through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarkerEffect {
    /// Every input marker is forwarded unchanged, in place: bracketing
    /// of the input is bracketing of the output (restrictions,
    /// point-wise transforms, orientation, shedding).
    Forward,
    /// Input markers are consumed and a fresh, well-bracketed marker
    /// sequence is synthesized for the output lattice (downsampling,
    /// re-projection, composition, aggregation, delay, stretch).
    Resynthesize,
    /// A source: markers are synthesized from nothing (scanners,
    /// archive replay, splice).
    Synthesize,
}

impl std::fmt::Display for MarkerEffect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MarkerEffect::Forward => "forward",
            MarkerEffect::Resynthesize => "resynthesize",
            MarkerEffect::Synthesize => "synthesize",
        })
    }
}

/// What an operator does to lattice (row-major, frame-major) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderEffect {
    /// Output order is input order (every §3.1 restriction, value
    /// transforms, focal/downsample/stretch which re-emit in lattice
    /// order).
    Preserve,
    /// The operator restores lattice order from possibly disordered,
    /// possibly unbracketed input (the repair stage): its output is
    /// ordered and bracketed regardless of what arrives.
    Restore,
    /// A source: emits in lattice order by construction.
    Emit,
    /// The operator may emit out of lattice order; downstream stages
    /// that require order cannot be certified above it.
    Break,
}

impl std::fmt::Display for OrderEffect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OrderEffect::Preserve => "preserve",
            OrderEffect::Restore => "restore",
            OrderEffect::Emit => "emit",
            OrderEffect::Break => "break",
        })
    }
}

/// The smallest lattice unit an operator can be partitioned by without
/// changing its output: the unit a morsel must cover so a fresh operator
/// instance, fed only that unit, reproduces the serial operator's output
/// for it byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// State is frame-scoped (or derived from the enclosing
    /// `SectorStart`): one frame plus its sector context is a complete
    /// unit of work.
    Frame,
    /// State is sector-scoped (row bands, image-wide statistics): a
    /// whole `SectorStart..SectorEnd` bracket is the unit.
    Sector,
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Granularity::Frame => "frame",
            Granularity::Sector => "sector",
        })
    }
}

/// How an operator's work distributes across morsel workers (the
/// contract the [`MorselDriver`](crate::exec::run_morsels) composes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Parallelism {
    /// A pure per-unit function at [`ProtocolContract::granularity`]: a
    /// fresh instance per morsel reproduces the serial output, so
    /// morsels can run on any worker in any order and be merged back by
    /// sequence number.
    Partitionable,
    /// The operator observes the stream serially (cross-sector
    /// counters, strides, temporal shifts): it must stay below the
    /// morsel split, on the single-threaded inner pipeline.
    OrderSensitive,
    /// The operator merges multiple inputs or windows across morsel
    /// boundaries (compositions, temporal aggregates): it bounds the
    /// parallel region and is never peeled into a morsel stage.
    BlockingMerge,
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Parallelism::Partitionable => "partitionable",
            Parallelism::OrderSensitive => "order-sensitive",
            Parallelism::BlockingMerge => "blocking-merge",
        })
    }
}

impl Default for Parallelism {
    /// Deserialized contracts from peers that predate the parallelism
    /// field must not be partitioned by default.
    fn default() -> Self {
        Parallelism::OrderSensitive
    }
}

impl Default for Granularity {
    /// The conservative unit: a sector morsel is always sufficient.
    fn default() -> Self {
        Granularity::Sector
    }
}

/// How an operator treats chunk boundaries relative to frame edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChunkDiscipline {
    /// Point runs pass through without re-batching; the input's
    /// edge-alignment is the output's.
    Preserve,
    /// The operator re-packs points into fresh chunks but maintains the
    /// §12 invariant that a run never crosses a frame or sector edge
    /// (the streams that queue their output runs in a
    /// [`RunQueue`](crate::model::chunk::RunQueue)).
    Repack,
}

impl std::fmt::Display for ChunkDiscipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChunkDiscipline::Preserve => "preserve",
            ChunkDiscipline::Repack => "repack",
        })
    }
}

/// The protocol promises one operator makes, and what it requires of
/// its input. Each operator's module declares its own (`focal_contract`
/// and the like); the plan analyzer composes them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolContract {
    /// Operator name the contract belongs to.
    pub operator: String,
    /// Effect on framing markers.
    pub markers: MarkerEffect,
    /// Effect on lattice order.
    pub order: OrderEffect,
    /// Chunk-boundary behavior.
    pub chunks: ChunkDiscipline,
    /// The operator's correctness depends on well-bracketed input
    /// markers (frame-scoped state machines: stretch, aggregate,
    /// compose, delay, downsample, focal, reproject).
    pub requires_bracketing: bool,
    /// The operator's correctness depends on in-lattice-order input
    /// (row-band windows: focal, downsample, reproject; the
    /// frame-aligned merge of compose).
    pub requires_order: bool,
    /// How the operator's work distributes across morsel workers.
    #[serde(default)]
    pub parallelism: Parallelism,
    /// The morsel unit when `parallelism` is
    /// [`Parallelism::Partitionable`] (ignored otherwise).
    #[serde(default)]
    pub granularity: Granularity,
}

impl ProtocolContract {
    /// A source contract: synthesizes markers and order, requires
    /// nothing of (non-existent) input.
    pub fn source(operator: &str) -> Self {
        ProtocolContract {
            operator: operator.to_string(),
            markers: MarkerEffect::Synthesize,
            order: OrderEffect::Emit,
            chunks: ChunkDiscipline::Repack,
            requires_bracketing: false,
            requires_order: false,
            // A source is the scan itself: it cannot be split below
            // itself, only its consumers can be.
            parallelism: Parallelism::OrderSensitive,
            granularity: Granularity::Sector,
        }
    }

    /// A transparent pass-through contract: forwards markers and order
    /// untouched; tolerates anything (restrictions, value maps, shed).
    pub fn forwarding(operator: &str) -> Self {
        ProtocolContract {
            operator: operator.to_string(),
            markers: MarkerEffect::Forward,
            order: OrderEffect::Preserve,
            chunks: ChunkDiscipline::Preserve,
            requires_bracketing: false,
            requires_order: false,
            // Pure forwarders are frame-partitionable by default; ops
            // with cross-frame state (shed) override this.
            parallelism: Parallelism::Partitionable,
            granularity: Granularity::Frame,
        }
    }

    /// A frame-scoped contract: consumes the input marker structure,
    /// synthesizes its own, and needs bracketed, ordered input to do so
    /// (spatial transforms, compositions, aggregates).
    pub fn resynthesizing(operator: &str) -> Self {
        ProtocolContract {
            operator: operator.to_string(),
            markers: MarkerEffect::Resynthesize,
            order: OrderEffect::Preserve,
            chunks: ChunkDiscipline::Repack,
            requires_bracketing: true,
            requires_order: true,
            // Resynthesizers are serial unless the op proves its
            // state is sector-scoped and opts in (focal, stretch).
            parallelism: Parallelism::OrderSensitive,
            granularity: Granularity::Sector,
        }
    }

    /// The repair contract: restores bracketing and order from
    /// arbitrary (chaotic) input.
    pub fn repairing(operator: &str) -> Self {
        ProtocolContract {
            operator: operator.to_string(),
            markers: MarkerEffect::Resynthesize,
            order: OrderEffect::Restore,
            chunks: ChunkDiscipline::Repack,
            requires_bracketing: false,
            requires_order: false,
            // Repair reorders globally: it must see the stream whole.
            parallelism: Parallelism::OrderSensitive,
            granularity: Granularity::Sector,
        }
    }

    /// Overrides the parallelism class (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism, granularity: Granularity) -> Self {
        self.parallelism = parallelism;
        self.granularity = granularity;
        self
    }
}

/// What a stream statically guarantees at some point in a plan: the
/// state the certificate builder threads bottom-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamGuarantees {
    /// Markers are well bracketed
    /// (`SectorStart (FrameStart Point* FrameEnd)* SectorEnd`).
    pub bracketed: bool,
    /// Points arrive in lattice order: frames start top to bottom, no
    /// point lies above the first row of its frame, and each row is
    /// scanned left to right. A frame may interleave the rows it covers
    /// (magnification does).
    pub lattice_order: bool,
}

impl StreamGuarantees {
    /// The guarantees of a pristine source.
    pub fn pristine() -> Self {
        StreamGuarantees { bracketed: true, lattice_order: true }
    }
}

/// One stage of a certificate: the contract, where it sits in the plan,
/// and whether its input requirements were met.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCheck {
    /// Slash-separated operator path from the plan root.
    pub path: String,
    /// The stage's declared contract.
    pub contract: ProtocolContract,
    /// Guarantees the stage's input provides.
    pub input: StreamGuarantees,
    /// Guarantees the stage's output provides.
    pub output: StreamGuarantees,
    /// True when every input requirement of the contract is satisfied.
    pub ok: bool,
}

/// The composed proof that a plan respects the marker discipline:
/// produced by the static analyzer, attached to every
/// [`PlanReport`](crate::query::PlanReport), exposed over `GET /explain`,
/// and required by DSMS admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCertificate {
    /// True when every stage's requirements are met: the plan provably
    /// preserves the FrameEnd/SectorEnd discipline end to end.
    pub certified: bool,
    /// Guarantees at the plan root (what the client receives).
    pub output: StreamGuarantees,
    /// Per-stage checks, innermost (sources) first.
    pub stages: Vec<StageCheck>,
    /// Human-readable composition failures (empty when certified).
    pub violations: Vec<String>,
}

impl Default for ProtocolCertificate {
    fn default() -> Self {
        // The zero value is deliberately *uncertified*: a report that
        // never ran the verifier (e.g. deserialized from an older
        // peer) must not pass admission by default.
        ProtocolCertificate {
            certified: false,
            output: StreamGuarantees { bracketed: false, lattice_order: false },
            stages: Vec::new(),
            violations: vec!["plan was not protocol-verified".to_string()],
        }
    }
}

/// Bottom-up certificate builder. The analyzer applies one contract per
/// operator as it walks the expression tree; [`CertBuilder::finish`]
/// seals the proof.
#[derive(Debug, Default)]
pub struct CertBuilder {
    stages: Vec<StageCheck>,
    violations: Vec<String>,
}

impl CertBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        CertBuilder::default()
    }

    /// Applies `contract` at `path` over input guarantees `input`,
    /// records the stage check, and returns the output guarantees.
    ///
    /// Binary operators call this with the *meet* of both input sides
    /// (see [`meet`]).
    pub fn apply(
        &mut self,
        path: &str,
        contract: &ProtocolContract,
        input: StreamGuarantees,
    ) -> StreamGuarantees {
        let mut ok = true;
        if contract.requires_bracketing && !input.bracketed {
            ok = false;
            self.violations.push(format!(
                "{path}: `{}` requires well-bracketed markers but its input does not \
                 guarantee bracketing",
                contract.operator
            ));
        }
        if contract.requires_order && !input.lattice_order {
            ok = false;
            self.violations.push(format!(
                "{path}: `{}` requires lattice-ordered input but its upstream may emit \
                 out of order",
                contract.operator
            ));
        }
        let output = match (contract.markers, contract.order) {
            // A repairing stage restores both properties outright.
            (_, OrderEffect::Restore) => StreamGuarantees::pristine(),
            // A source synthesizes both.
            (MarkerEffect::Synthesize, _) => StreamGuarantees::pristine(),
            // A resynthesizing stage emits fresh, well-bracketed
            // markers — but only if its own requirements held;
            // garbage in, garbage out. One that does not need order
            // keeps what its input had.
            (MarkerEffect::Resynthesize, _) => StreamGuarantees {
                bracketed: ok,
                lattice_order: ok && input.lattice_order && contract.order != OrderEffect::Break,
            },
            // A forwarding stage propagates what it got; breaking
            // order taints the order guarantee.
            (MarkerEffect::Forward, order) => StreamGuarantees {
                bracketed: input.bracketed,
                lattice_order: input.lattice_order && order != OrderEffect::Break,
            },
        };
        self.stages.push(StageCheck {
            path: path.to_string(),
            contract: contract.clone(),
            input,
            output,
            ok,
        });
        output
    }

    /// Seals the proof: certified iff every stage checked out.
    pub fn finish(self, root_output: StreamGuarantees) -> ProtocolCertificate {
        let certified = self.stages.iter().all(|s| s.ok);
        ProtocolCertificate {
            certified,
            output: root_output,
            stages: self.stages,
            violations: self.violations,
        }
    }
}

/// The meet of two input guarantees (binary operators receive the
/// weaker of what each side provides).
pub fn meet(a: StreamGuarantees, b: StreamGuarantees) -> StreamGuarantees {
    StreamGuarantees {
        bracketed: a.bracketed && b.bracketed,
        lattice_order: a.lattice_order && b.lattice_order,
    }
}

/// A break of the stream grammar of DESIGN.md §12 or of the chunk
/// contract, as the [`ChunkProtocolChecker`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A `FrameStart` with no open sector.
    FrameOutsideSector,
    /// A `FrameStart` while another frame is open.
    OverlappingFrames,
    /// A `FrameEnd` or `SectorEnd` with no open frame or sector.
    UnmatchedEnd,
    /// A point with no open frame.
    PointOutsideFrame,
    /// A point outside its frame's declared cell box.
    PointOutsideFrameBox,
    /// A point outside its sector's lattice.
    PointOutsideLattice,
    /// A sector id not greater than the sector id before it.
    SectorIdNotIncreasing,
    /// A frame id not greater than the frame id before it.
    FrameIdNotIncreasing,
    /// Under [`TimeSemantics::SectorId`], a frame whose timestamp is
    /// not its sector's.
    TimestampMismatch,
    /// A frame or sector left open: a frame by a `SectorEnd` or a
    /// `SectorStart`, a sector by a `SectorStart`, either by the end of
    /// the stream.
    TruncatedStream,
    /// A run of more points than the pull budget.
    RunOverBudget,
    /// A marker riding on a run that holds the whole budget: it did not
    /// cut the run short.
    MarkerOnFullRun,
    /// A run ended by a marker other than its frame's `FrameEnd`: the
    /// run crosses a frame or sector edge.
    RunCrossesEdge,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Violation::FrameOutsideSector => "FrameStart outside a sector",
            Violation::OverlappingFrames => "FrameStart while a frame is already open",
            Violation::UnmatchedEnd => "end marker without an open frame or sector",
            Violation::PointOutsideFrame => "point outside an open frame",
            Violation::PointOutsideFrameBox => "point outside its frame's cell box",
            Violation::PointOutsideLattice => "point outside the sector lattice",
            Violation::SectorIdNotIncreasing => "sector id not greater than the previous one",
            Violation::FrameIdNotIncreasing => "frame id not greater than the previous one",
            Violation::TimestampMismatch => "frame timestamp differs from its sector's",
            Violation::TruncatedStream => "frame or sector left open",
            Violation::RunOverBudget => "point run exceeds the pull budget",
            Violation::MarkerOnFullRun => "marker rides on a full run",
            Violation::RunCrossesEdge => "point run crosses a frame or sector edge",
        })
    }
}

/// The one checker of the stream grammar, over chunked transport.
///
/// [`observe`](Self::observe) runs over every item a consumer pulls: a
/// bracketing state machine (`SectorStart (FrameStart Point* FrameEnd)*
/// SectorEnd`); every point inside its frame's cell box and its
/// sector's lattice; sector ids and frame ids strictly increasing; under
/// [`TimeSemantics::SectorId`] each frame stamped with its sector's
/// timestamp; and the chunk contract at the pull budget (a run holds at
/// most `budget` points, a marker rides only on a run it cut short, and
/// a run ends only at its own frame's `FrameEnd`, never at a sector
/// edge or an opening marker). [`finish`](Self::finish) adds the
/// end-of-stream check. The checker's state is a few scalars whatever
/// the length of the stream.
///
/// It always checks what it observes; `exec`'s driver decides whether
/// to run it (debug builds only — the static certificate carries the
/// proof for the release fast path).
#[derive(Debug)]
pub struct ChunkProtocolChecker {
    budget: usize,
    time_semantics: TimeSemantics,
    /// Ordinal of the next element in the flattened stream.
    position: u64,
    /// The open sector's lattice and timestamp.
    sector: Option<(CellBox, i64)>,
    /// The open frame's cell box.
    frame: Option<CellBox>,
    last_sector_id: Option<u64>,
    last_frame_id: Option<u64>,
    violations: u64,
    first: Option<(u64, Violation)>,
}

impl ChunkProtocolChecker {
    /// A fresh checker (no sector open) for items pulled at `budget`
    /// from a stream of `time_semantics`.
    pub fn new(budget: usize, time_semantics: TimeSemantics) -> Self {
        ChunkProtocolChecker {
            budget: budget.max(1),
            time_semantics,
            position: 0,
            sector: None,
            frame: None,
            last_sector_id: None,
            last_frame_id: None,
            violations: 0,
            first: None,
        }
    }

    /// Violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violation, with the ordinal of the element it was
    /// found at (0-based, in the flattened stream).
    pub fn first_violation(&self) -> Option<(u64, Violation)> {
        self.first
    }

    fn fail(&mut self, at: u64, violation: Violation) {
        self.violations += 1;
        self.first.get_or_insert((at, violation));
    }

    /// Checks one pulled item.
    pub fn observe<V: Pixel>(&mut self, item: &ChunkOrMarker<V>) {
        match item {
            ChunkOrMarker::Chunk(c) => {
                let start = self.position;
                self.position += c.points.len() as u64;
                if c.points.len() > self.budget {
                    self.fail(start, Violation::RunOverBudget);
                }
                let (frame, lattice) = (self.frame, self.sector.map(|(lattice, _)| lattice));
                for (at, p) in (start..).zip(&c.points) {
                    let Some(frame) = frame else {
                        self.fail(at, Violation::PointOutsideFrame);
                        continue;
                    };
                    if !frame.contains(p.cell) {
                        self.fail(at, Violation::PointOutsideFrameBox);
                    }
                    if lattice.is_some_and(|lattice| !lattice.contains(p.cell)) {
                        self.fail(at, Violation::PointOutsideLattice);
                    }
                }
                if let Some(m) = &c.end {
                    // The §12 invariant: a run is terminated by its
                    // frame's end or by budget exhaustion.
                    if !matches!(m, Marker::FrameEnd(_)) {
                        self.fail(self.position, Violation::RunCrossesEdge);
                    }
                    if c.points.len() == self.budget {
                        self.fail(self.position, Violation::MarkerOnFullRun);
                    }
                    self.transition(m);
                }
            }
            ChunkOrMarker::Marker(m) => self.transition(m),
        }
    }

    fn transition(&mut self, m: &Marker) {
        let at = self.position;
        self.position += 1;
        match m {
            Marker::SectorStart(si) => {
                if self.sector.is_some() || self.frame.is_some() {
                    self.fail(at, Violation::TruncatedStream);
                }
                if self.last_sector_id.is_some_and(|last| si.sector_id <= last) {
                    self.fail(at, Violation::SectorIdNotIncreasing);
                }
                self.last_sector_id = Some(si.sector_id);
                let lattice = CellBox::full(si.lattice.width, si.lattice.height);
                self.sector = Some((lattice, si.timestamp.value()));
                self.frame = None;
            }
            Marker::FrameStart(fi) => {
                match self.sector {
                    None => self.fail(at, Violation::FrameOutsideSector),
                    Some((_, timestamp))
                        if self.time_semantics == TimeSemantics::SectorId
                            && fi.timestamp.value() != timestamp =>
                    {
                        self.fail(at, Violation::TimestampMismatch);
                    }
                    Some(_) => {}
                }
                if self.frame.is_some() {
                    self.fail(at, Violation::OverlappingFrames);
                }
                if self.last_frame_id.is_some_and(|last| fi.frame_id <= last) {
                    self.fail(at, Violation::FrameIdNotIncreasing);
                }
                self.last_frame_id = Some(fi.frame_id);
                self.frame = Some(fi.cells);
            }
            Marker::FrameEnd(_) => {
                if self.frame.take().is_none() {
                    self.fail(at, Violation::UnmatchedEnd);
                }
            }
            Marker::SectorEnd(_) => {
                if self.frame.take().is_some() {
                    self.fail(at, Violation::TruncatedStream);
                }
                if self.sector.take().is_none() {
                    self.fail(at, Violation::UnmatchedEnd);
                }
            }
        }
    }

    /// End-of-stream check: an open frame or sector at stream end is a
    /// truncation. Not called by the drivers (a watchdog-cancelled
    /// query ends mid-sector legitimately); for callers that assert a
    /// complete stream.
    pub fn finish(&mut self) {
        if self.frame.is_some() || self.sector.is_some() {
            self.fail(self.position, Violation::TruncatedStream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        drain_chunked, Chunk, Element, FrameEnd, GeoStream, SectorEnd, StreamSchema, Timestamp,
        VecStream,
    };
    use geostreams_geo::{Cell, Crs, LatticeGeoref, Rect};

    fn source(sectors: u64) -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 8, 4);
        VecStream::sectors("p", lattice, sectors, |s, c, r| f64::from(c + r) + s as f64)
    }

    #[test]
    fn certificate_composes_over_a_linear_plan() {
        let mut b = CertBuilder::new();
        let src = b.apply(
            "/source",
            &ProtocolContract::source("source"),
            StreamGuarantees { bracketed: false, lattice_order: false },
        );
        assert_eq!(src, StreamGuarantees::pristine());
        let r = b.apply("/restrict", &ProtocolContract::forwarding("restrict_space"), src);
        let f = b.apply("/focal", &ProtocolContract::resynthesizing("focal"), r);
        let cert = b.finish(f);
        assert!(cert.certified, "{:?}", cert.violations);
        assert!(cert.output.bracketed && cert.output.lattice_order);
        assert_eq!(cert.stages.len(), 3);
        assert!(cert.violations.is_empty());
    }

    #[test]
    fn order_breaking_stage_blocks_certification_of_windowed_ops() {
        // A hypothetical reordering stage under a focal window: the
        // focal operator's order requirement cannot be discharged.
        let mut breaker = ProtocolContract::forwarding("scramble");
        breaker.order = OrderEffect::Break;
        let mut b = CertBuilder::new();
        let src =
            b.apply("/source", &ProtocolContract::source("source"), StreamGuarantees::pristine());
        let scrambled = b.apply("/scramble", &breaker, src);
        assert!(!scrambled.lattice_order);
        let out = b.apply("/focal", &ProtocolContract::resynthesizing("focal"), scrambled);
        // Garbage in, garbage out: the focal output is itself tainted.
        assert!(!out.lattice_order);
        let cert = b.finish(out);
        assert!(!cert.certified);
        assert_eq!(cert.stages.iter().filter(|s| !s.ok).count(), 1);
        assert!(cert.violations.iter().any(|v| v.contains("lattice-ordered")));
    }

    #[test]
    fn repair_restores_certifiability() {
        let mut breaker = ProtocolContract::forwarding("scramble");
        breaker.order = OrderEffect::Break;
        let mut b = CertBuilder::new();
        let src =
            b.apply("/src", &ProtocolContract::source("source"), StreamGuarantees::pristine());
        let scrambled = b.apply("/scramble", &breaker, src);
        let repaired = b.apply("/repair", &ProtocolContract::repairing("repair"), scrambled);
        assert_eq!(repaired, StreamGuarantees::pristine());
        let out = b.apply("/focal", &ProtocolContract::resynthesizing("focal"), repaired);
        let cert = b.finish(out);
        assert!(cert.certified, "{:?}", cert.violations);
    }

    #[test]
    fn meet_takes_the_weaker_side() {
        let strong = StreamGuarantees::pristine();
        let weak = StreamGuarantees { bracketed: true, lattice_order: false };
        assert_eq!(meet(strong, weak), weak);
        assert_eq!(meet(weak, strong), weak);
        assert_eq!(meet(strong, strong), strong);
    }

    #[test]
    fn default_certificate_is_uncertified() {
        let cert = ProtocolCertificate::default();
        assert!(!cert.certified);
        assert!(!cert.violations.is_empty());
    }

    #[test]
    fn certificate_serializes_round_trip() {
        let mut b = CertBuilder::new();
        let g = b.apply("/s", &ProtocolContract::source("source"), StreamGuarantees::pristine());
        let cert = b.finish(g);
        let json = serde_json::to_string(&cert).unwrap();
        let back: ProtocolCertificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
    }

    /// Observes `items` at `budget`, then the end of the stream.
    fn check(
        items: impl IntoIterator<Item = ChunkOrMarker<f32>>,
        budget: usize,
        semantics: TimeSemantics,
    ) -> ChunkProtocolChecker {
        let mut checker = ChunkProtocolChecker::new(budget, semantics);
        for item in items {
            checker.observe(&item);
            item.recycle();
        }
        checker.finish();
        checker
    }

    /// The items a [`VecStream`] of `els` yields at `budget`.
    fn pulled(els: Vec<Element<f32>>, budget: usize) -> Vec<ChunkOrMarker<f32>> {
        let mut s = VecStream::new(StreamSchema::new("p", Crs::LatLon), els);
        std::iter::from_fn(|| s.next_chunk(budget)).collect()
    }

    /// One sector of one `width`-cell row.
    fn row(width: u32) -> Vec<Element<f32>> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), width, 1);
        VecStream::single_sector("p", lattice, 0, |c, _| f64::from(c)).drain_elements()
    }

    /// `els` of a one-frame stream as items: every point in one run,
    /// the marker after the run riding on it when `ride` is set.
    fn one_run(els: Vec<Element<f32>>, ride: bool) -> Vec<ChunkOrMarker<f32>> {
        let (mut items, mut run) = (Vec::new(), None::<Chunk<f32>>);
        for el in els {
            match Marker::from_element(el) {
                Err(p) => run.get_or_insert_with(|| Chunk::with_budget(1)).points.push(p),
                Ok(m) => match run.take() {
                    Some(mut c) if ride => {
                        c.end = Some(m);
                        items.push(ChunkOrMarker::Chunk(c));
                    }
                    Some(c) => items.extend([ChunkOrMarker::Chunk(c), ChunkOrMarker::Marker(m)]),
                    None => items.push(ChunkOrMarker::Marker(m)),
                },
            }
        }
        items
    }

    fn position(els: &[Element<f32>], pred: impl Fn(&Element<f32>) -> bool) -> usize {
        els.iter().position(pred).unwrap()
    }

    fn frame_start(el: &Element<f32>) -> bool {
        matches!(el, Element::FrameStart(_))
    }

    fn frame_end(el: &Element<f32>) -> bool {
        matches!(el, Element::FrameEnd(_))
    }

    /// `source(2)` edited by `edit`, which returns the ordinal of the
    /// element it broke, pulled at `budget`.
    fn edited(
        budget: usize,
        edit: fn(&mut Vec<Element<f32>>) -> usize,
    ) -> (Vec<ChunkOrMarker<f32>>, u64) {
        let mut els = source(2).drain_elements();
        let at = edit(&mut els);
        (pulled(els, budget), at as u64)
    }

    type Broken = fn(usize) -> (Vec<ChunkOrMarker<f32>>, u64);

    /// One deliberately broken stream per [`Violation`] kind, as the
    /// items pulled at a budget and the ordinal of the break.
    fn broken_streams() -> Vec<(Violation, Broken)> {
        vec![
            (Violation::FrameOutsideSector, |budget| {
                edited(budget, |els| {
                    els.remove(0);
                    0
                })
            }),
            (Violation::OverlappingFrames, |budget| {
                // The first frame loses its points and its end.
                edited(budget, |els| {
                    let first = position(els, frame_start);
                    els.drain(first + 1..=position(els, frame_end));
                    first + 1
                })
            }),
            (Violation::UnmatchedEnd, |budget| {
                edited(budget, |els| {
                    let end = position(els, frame_end);
                    els.insert(end + 1, els[end].clone());
                    end + 1
                })
            }),
            (Violation::PointOutsideFrame, |budget| {
                edited(budget, |els| {
                    els.insert(1, Element::point(Cell::new(0, 0), 1.0));
                    1
                })
            }),
            (Violation::PointOutsideFrameBox, |budget| {
                // Row 3 of the lattice, inside the frame of row 0.
                edited(budget, |els| {
                    let at = position(els, frame_start) + 2;
                    els.insert(at, Element::point(Cell::new(0, 3), 1.0));
                    at
                })
            }),
            (Violation::PointOutsideLattice, |budget| {
                // A frame box wider than the lattice, and a point in it
                // past the lattice's last column.
                edited(budget, |els| {
                    let first = position(els, frame_start);
                    if let Element::FrameStart(fi) = &mut els[first] {
                        fi.cells.col_max = 99;
                    }
                    els.insert(first + 1, Element::point(Cell::new(50, 0), 1.0));
                    first + 1
                })
            }),
            (Violation::SectorIdNotIncreasing, |budget| {
                edited(budget, |els| {
                    let second = els.iter().rposition(|e| matches!(e, Element::SectorStart(_)));
                    let second = second.unwrap();
                    // The second sector reuses the first's id.
                    if let Element::SectorStart(si) = &mut els[second] {
                        si.sector_id = 0;
                    }
                    second
                })
            }),
            (Violation::FrameIdNotIncreasing, |budget| {
                edited(budget, |els| {
                    let second = position(els, frame_end) + 1;
                    if let Element::FrameStart(fi) = &mut els[second] {
                        fi.frame_id = 0;
                    }
                    second
                })
            }),
            (Violation::TimestampMismatch, |budget| {
                edited(budget, |els| {
                    let first = position(els, frame_start);
                    if let Element::FrameStart(fi) = &mut els[first] {
                        fi.timestamp = Timestamp::new(999);
                    }
                    first
                })
            }),
            (Violation::TruncatedStream, |budget| {
                // The last FrameEnd and SectorEnd are lost.
                edited(budget, |els| {
                    els.truncate(els.len() - 2);
                    els.len()
                })
            }),
            (Violation::RunOverBudget, |budget| (one_run(row(budget as u32 + 1), false), 2)),
            (Violation::MarkerOnFullRun, |budget| {
                (one_run(row(budget as u32), true), 2 + budget as u64)
            }),
            (Violation::RunCrossesEdge, |_| {
                // The FrameEnd is lost and the sector's end cuts the run.
                let mut els = row(1);
                els.retain(|e| !frame_end(e));
                (one_run(els, true), 3)
            }),
        ]
    }

    #[test]
    fn each_violation_kind_is_caught_by_its_broken_stream() {
        let cases = broken_streams();
        // Thirteen kinds, each with its own text.
        let mut texts: Vec<_> = cases.iter().map(|(kind, _)| kind.to_string()).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 13, "one broken stream per kind");
        for (kind, make) in cases {
            for budget in [1usize, 1024] {
                let (items, at) = make(budget);
                let checker = check(items, budget, TimeSemantics::SectorId);
                assert_eq!(checker.first_violation(), Some((at, kind)), "budget {budget}");
            }
        }
    }

    #[test]
    fn frame_timestamps_are_free_under_measurement_time() {
        let (_, make) = broken_streams()
            .into_iter()
            .find(|(kind, _)| *kind == Violation::TimestampMismatch)
            .unwrap();
        for budget in [1usize, 1024] {
            let checker = check(make(budget).0, budget, TimeSemantics::MeasurementTime);
            assert_eq!(checker.violations(), 0, "{:?}", checker.first_violation());
        }
    }

    #[test]
    fn checker_accepts_every_generated_stream() {
        // All budgets, sources and a deep pipeline: the grammar holds
        // on anything the crate produces.
        use crate::ops::{Downsample, FocalFunc, FocalTransform, Magnify, SpatialRestrict};
        use geostreams_geo::Region;
        let pipeline = || {
            let op = SpatialRestrict::new(source(3), Region::Rect(Rect::new(0.5, 0.5, 3.5, 3.5)));
            let op = FocalTransform::new(Magnify::new(op, 2), FocalFunc::Mean, 3);
            Downsample::new(op, 2)
        };
        for budget in [1usize, 5, 64, 1024] {
            let (mut s, mut p) = (source(2), pipeline());
            let source_items: Vec<_> = std::iter::from_fn(|| s.next_chunk(budget)).collect();
            for items in [source_items, std::iter::from_fn(|| p.next_chunk(budget)).collect()] {
                let checker = check(items, budget, TimeSemantics::SectorId);
                assert_eq!(
                    checker.violations(),
                    0,
                    "budget {budget}: {:?}",
                    checker.first_violation()
                );
            }
        }
    }

    #[test]
    fn every_break_is_counted() {
        // Two unmatched ends, then the end of a stream that never
        // opened anything: two violations, the first at ordinal 0.
        let els: Vec<Element<f32>> = vec![
            Element::FrameEnd(FrameEnd { frame_id: 0, sector_id: 0 }),
            Element::SectorEnd(SectorEnd { sector_id: 0 }),
        ];
        let checker = check(pulled(els, 1), 1, TimeSemantics::SectorId);
        assert_eq!(checker.violations(), 2);
        assert_eq!(checker.first_violation(), Some((0, Violation::UnmatchedEnd)));
    }

    #[test]
    fn parallelism_rides_constructor_defaults() {
        let f = ProtocolContract::forwarding("restrict_space");
        assert_eq!(f.parallelism, Parallelism::Partitionable);
        assert_eq!(f.granularity, Granularity::Frame);
        assert_eq!(ProtocolContract::source("scan").parallelism, Parallelism::OrderSensitive);
        assert_eq!(ProtocolContract::repairing("repair").parallelism, Parallelism::OrderSensitive);
        let focal = ProtocolContract::resynthesizing("focal")
            .with_parallelism(Parallelism::Partitionable, Granularity::Sector);
        assert_eq!(focal.parallelism, Parallelism::Partitionable);
        assert_eq!(focal.granularity, Granularity::Sector);
        // Sector morsels subsume frame morsels: the driver takes the max.
        assert!(Granularity::Sector > Granularity::Frame);
    }

    #[test]
    fn contracts_without_parallelism_deserialize_order_sensitive() {
        // A contract serialized by a peer that predates the parallelism
        // field must come back OrderSensitive (never silently split).
        let json = serde_json::to_string(&ProtocolContract::forwarding("old")).unwrap();
        let stripped = json
            .replace(",\"parallelism\":\"Partitionable\"", "")
            .replace(",\"granularity\":\"Frame\"", "");
        assert_ne!(json, stripped, "fields were present to strip");
        let back: ProtocolContract = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.parallelism, Parallelism::OrderSensitive);
        assert_eq!(back.granularity, Granularity::Sector);
    }

    #[test]
    fn drain_chunked_streams_stay_clean() {
        // Sanity: the chunk helpers themselves respect the discipline.
        let els = drain_chunked(&mut source(1), 7);
        assert!(!els.is_empty());
    }
}
