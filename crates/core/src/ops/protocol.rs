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
//! * [`ChunkProtocolChecker`] cross-checks the discipline **live** in
//!   debug builds (marker bracketing, chunks never crossing frame or
//!   sector edges); it compiles to a no-op in release builds so the
//!   certified fast path pays nothing.

// `Marker` is only consumed by the debug-build checker body.
#[cfg_attr(not(debug_assertions), allow(unused_imports))]
use crate::model::{ChunkOrMarker, Marker};
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
    /// (the operators that queue their output runs in
    /// `model::chunk::RunQueue`, and the streams that pack elements with
    /// [`pack_queue`](crate::model::pack_queue)).
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
/// its input. Declared by each operator (see `declared_contract()` on
/// the operator types) and composed by the plan analyzer.
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

/// Live cross-check of the marker discipline over chunked transport.
///
/// In debug builds [`ChunkProtocolChecker::observe`] runs a bracketing
/// state machine over every item a driver pulls and verifies the §12
/// chunk-boundary invariant (a point run may only be terminated by its
/// own frame's `FrameEnd`, never by a sector edge or a new opening
/// marker) and, given the pull budget, the budget rule (a run holds at
/// most `budget` points, and a marker rides only on a run it cut
/// short). In release builds `observe` is an empty inline function:
/// the validator is compiled out entirely, as the certificate already
/// carries the static proof.
#[derive(Debug, Default)]
// The state machine only runs under `debug_assertions`; in release the
// struct survives (stable API) but most of it is never touched.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub struct ChunkProtocolChecker {
    /// The budget the observed items were pulled at, if known.
    budget: Option<usize>,
    sector_open: bool,
    frame_open: bool,
    violations: u64,
    first: Option<String>,
}

impl ChunkProtocolChecker {
    /// A fresh checker (no sector open) that does not know the pull budget.
    pub fn new() -> Self {
        ChunkProtocolChecker::default()
    }

    /// A fresh checker for items pulled at `budget`: it also checks the
    /// budget rule.
    pub fn with_budget(budget: usize) -> Self {
        ChunkProtocolChecker { budget: Some(budget.max(1)), ..ChunkProtocolChecker::default() }
    }

    /// Violations observed so far (always 0 in release builds).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Description of the first violation, if any.
    pub fn first_violation(&self) -> Option<&str> {
        self.first.as_deref()
    }

    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn fail(&mut self, msg: String) {
        self.violations += 1;
        if self.first.is_none() {
            self.first = Some(msg);
        }
    }

    /// Observes one pulled item. Debug builds check; release builds
    /// compile this to nothing.
    #[inline]
    pub fn observe<V: Pixel>(&mut self, item: &ChunkOrMarker<V>) {
        #[cfg(debug_assertions)]
        self.observe_impl(item);
        #[cfg(not(debug_assertions))]
        let _ = item;
    }

    #[cfg(debug_assertions)]
    fn observe_impl<V: Pixel>(&mut self, item: &ChunkOrMarker<V>) {
        match item {
            ChunkOrMarker::Chunk(c) => {
                if !self.frame_open {
                    self.fail("point run outside an open frame".to_string());
                }
                let n = c.points.len();
                match self.budget {
                    Some(budget) if n > budget => {
                        self.fail(format!("point run of {n} exceeds the pull budget {budget}"));
                    }
                    Some(budget) if n == budget && c.end.is_some() => {
                        self.fail(format!("marker rides on a full run of {budget} points"));
                    }
                    _ => {}
                }
                match &c.end {
                    None | Some(Marker::FrameEnd(_)) => {}
                    Some(other) => {
                        // The §12 invariant: a run is terminated by its
                        // frame's end or by budget exhaustion — any
                        // other marker means the chunk crossed a frame
                        // or sector edge.
                        self.fail(format!(
                            "point run crosses a frame/sector edge (terminated by {})",
                            marker_name(other)
                        ));
                    }
                }
                if let Some(m) = &c.end {
                    self.transition(m);
                }
            }
            ChunkOrMarker::Marker(m) => self.transition(m),
        }
    }

    #[cfg(debug_assertions)]
    fn transition(&mut self, m: &Marker) {
        match m {
            Marker::SectorStart(_) => {
                if self.sector_open {
                    self.fail("SectorStart while a sector is already open".to_string());
                }
                self.sector_open = true;
                self.frame_open = false;
            }
            Marker::FrameStart(_) => {
                if !self.sector_open {
                    self.fail("FrameStart outside a sector".to_string());
                }
                if self.frame_open {
                    self.fail("FrameStart while a frame is already open".to_string());
                }
                self.frame_open = true;
            }
            Marker::FrameEnd(_) => {
                if !self.frame_open {
                    self.fail("FrameEnd without an open frame".to_string());
                }
                self.frame_open = false;
            }
            Marker::SectorEnd(_) => {
                if self.frame_open {
                    self.fail("SectorEnd while a frame is still open".to_string());
                    self.frame_open = false;
                }
                if !self.sector_open {
                    self.fail("SectorEnd without an open sector".to_string());
                }
                self.sector_open = false;
            }
        }
    }

    /// End-of-stream check: an open frame or sector at stream end is a
    /// truncation. Not called by the drivers (a watchdog-cancelled
    /// query ends mid-sector legitimately); available for tests that
    /// assert a complete run.
    pub fn finish(&mut self) {
        #[cfg(debug_assertions)]
        if self.frame_open || self.sector_open {
            self.fail("stream ended with an open frame or sector".to_string());
        }
    }
}

#[cfg(debug_assertions)]
fn marker_name(m: &Marker) -> &'static str {
    match m {
        Marker::SectorStart(_) => "SectorStart",
        Marker::FrameStart(_) => "FrameStart",
        Marker::FrameEnd(_) => "FrameEnd",
        Marker::SectorEnd(_) => "SectorEnd",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{drain_chunked, GeoStream, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

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

    #[test]
    fn checker_accepts_every_generated_stream() {
        // All budgets, all sector counts: the §12 discipline holds on
        // anything our sources produce.
        for budget in [1usize, 5, 64, 1024] {
            let mut s = source(2);
            let mut checker = ChunkProtocolChecker::with_budget(budget);
            while let Some(item) = s.next_chunk(budget) {
                checker.observe(&item);
                item.recycle();
            }
            checker.finish();
            assert_eq!(checker.violations(), 0, "budget {budget}: {:?}", checker.first_violation());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checker_flags_edge_crossing_chunks() {
        use crate::model::{Chunk, Element, SectorEnd};
        // A chunk terminated by a SectorEnd crosses the frame edge.
        let mut checker = ChunkProtocolChecker::new();
        let els = source(1).drain_elements();
        // Open sector + frame legitimately first.
        let mut opened = 0;
        for el in &els {
            match el {
                Element::SectorStart(si) => {
                    checker.observe::<f32>(&ChunkOrMarker::Marker(Marker::SectorStart(si.clone())));
                    opened += 1;
                }
                Element::FrameStart(fi) => {
                    checker.observe::<f32>(&ChunkOrMarker::Marker(Marker::FrameStart(*fi)));
                    opened += 1;
                }
                _ => {}
            }
            if opened == 2 {
                break;
            }
        }
        assert_eq!(checker.violations(), 0);
        let mut bad = Chunk::<f32>::with_budget(4);
        bad.points
            .push(crate::model::PointRecord { cell: geostreams_geo::Cell::new(0, 0), value: 1.0 });
        bad.end = Some(Marker::SectorEnd(SectorEnd { sector_id: 0 }));
        checker.observe(&ChunkOrMarker::Chunk(bad));
        assert!(checker.violations() > 0);
        assert!(checker.first_violation().unwrap().contains("crosses"));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checker_flags_budget_rule_breaches() {
        use crate::model::{Chunk, FrameEnd, PointRecord};
        let run = |n: usize, end: Option<Marker>| {
            let mut c = Chunk::<f32>::with_budget(n);
            c.points.resize(n, PointRecord { cell: geostreams_geo::Cell::new(0, 0), value: 1.0 });
            c.end = end;
            ChunkOrMarker::Chunk(c)
        };
        let frame_end = || Some(Marker::FrameEnd(FrameEnd { frame_id: 0, sector_id: 0 }));
        let mut checker = ChunkProtocolChecker::with_budget(4);
        let mut s = source(1);
        for _ in 0..2 {
            // SectorStart, FrameStart.
            checker.observe(&s.next_chunk(4).unwrap());
        }
        checker.observe(&run(4, None));
        checker.observe(&run(3, None));
        assert_eq!(checker.violations(), 0, "{:?}", checker.first_violation());
        checker.observe(&run(5, None));
        assert!(checker.first_violation().unwrap().contains("exceeds the pull budget"));
        checker.observe(&run(4, frame_end()));
        assert_eq!(checker.violations(), 2, "and a marker on a full run");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checker_flags_bracketing_violations() {
        use crate::model::{FrameEnd, SectorEnd};
        let mut checker = ChunkProtocolChecker::new();
        checker.observe::<f32>(&ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd {
            frame_id: 0,
            sector_id: 0,
        })));
        checker
            .observe::<f32>(&ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd { sector_id: 0 })));
        assert_eq!(checker.violations(), 2);
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
