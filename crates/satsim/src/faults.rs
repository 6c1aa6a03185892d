//! Deterministic downlink fault injection.
//!
//! The paper's dataflow (Fig. 3) assumes a clean downlink, but real
//! GVAR/GOES feeds lose scan lines, duplicate blocks, reorder sectors,
//! corrupt values, stall, and cut out mid-sector. [`FaultPlan`] is a
//! *seeded* description of such degradation and [`ChaosStream`] applies
//! it to any [`GeoStream`], so every pipeline and test in the workspace
//! can run over a degraded feed — **reproducibly**: the same plan over
//! the same input produces the same faulted element sequence on every
//! run (stall faults burn wall time but never change the data).
//!
//! Fault taxonomy (see DESIGN.md "Fault model & recovery"):
//!
//! * **dropped elements** — individual points, whole row-frames, whole
//!   sectors, or the `FrameEnd`/`SectorEnd` markers that frame-scoped
//!   operators key their flushes on;
//! * **duplicated elements** — a block retransmitted by the link layer;
//! * **out-of-order elements** — an element held back and emitted after
//!   its successor;
//! * **value corruption** — bit errors surfacing as perturbed radiance;
//! * **latency stalls** — the feed pauses without disconnecting;
//! * **death / truncation** — the decoder crashes (`die_after`, the
//!   supervisor's restart trigger) or the downlink ends early
//!   (`truncate_after`).

use geostreams_core::model::chunk::RunQueue;
use geostreams_core::model::{ChunkOrMarker, Element, GeoStream, Marker, StreamSchema};
use geostreams_core::stats::{OpReport, OpStats};
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// A seeded, declarative description of downlink degradation.
///
/// All probabilities are per-opportunity in `[0, 1]`; the default plan
/// injects nothing. Probabilistic decisions are drawn from a SplitMix64
/// stream keyed by `(seed, salt)`, so a plan is a pure function of its
/// seed and the input element sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed; two runs with the same seed inject identical faults.
    pub seed: u64,
    /// Probability that an individual point is lost.
    pub drop_point: f64,
    /// Probability that a whole frame (`FrameStart..FrameEnd`, e.g. a
    /// GOES scan line) is lost.
    pub drop_frame: f64,
    /// Probability that a whole sector is lost.
    pub drop_sector: f64,
    /// Probability that a `FrameEnd`/`SectorEnd` marker is lost — the
    /// fault that makes naive frame-scoped operators buffer forever.
    pub drop_end_marker: f64,
    /// Probability that an element is transmitted twice.
    pub duplicate: f64,
    /// Probability that an element is held back and emitted after its
    /// successor (pairwise disorder).
    pub reorder: f64,
    /// Probability that a point's value is perturbed.
    pub corrupt: f64,
    /// Maximum absolute perturbation applied to corrupted values.
    pub corrupt_magnitude: f64,
    /// Probability that the feed stalls before delivering an element.
    pub stall: f64,
    /// Stall duration in milliseconds (wall time only; data unchanged).
    pub stall_ms: u64,
    /// Kill the stream (simulated decoder crash) after this many input
    /// elements; [`FaultStats::died`] is set so a supervisor can
    /// distinguish death from a clean end.
    pub die_after: Option<u64>,
    /// End the stream early (truncated downlink) after this many input
    /// elements, without the death flag.
    pub truncate_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_point: 0.0,
            drop_frame: 0.0,
            drop_sector: 0.0,
            drop_end_marker: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            corrupt_magnitude: 0.1,
            stall: 0.0,
            stall_ms: 0,
            die_after: None,
            truncate_after: None,
        }
    }
}

impl FaultPlan {
    /// A no-fault plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Sets the per-point drop probability (builder style).
    pub fn with_dropped_points(mut self, p: f64) -> Self {
        self.drop_point = p;
        self
    }

    /// Sets the per-frame (scan-line) drop probability.
    pub fn with_dropped_rows(mut self, p: f64) -> Self {
        self.drop_frame = p;
        self
    }

    /// Sets the per-sector drop probability.
    pub fn with_dropped_sectors(mut self, p: f64) -> Self {
        self.drop_sector = p;
        self
    }

    /// Sets the end-marker (`FrameEnd`/`SectorEnd`) drop probability.
    pub fn with_dropped_end_markers(mut self, p: f64) -> Self {
        self.drop_end_marker = p;
        self
    }

    /// Sets the element duplication probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the pairwise reorder probability.
    pub fn with_reordering(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the value-corruption probability and magnitude.
    pub fn with_corruption(mut self, p: f64, magnitude: f64) -> Self {
        self.corrupt = p;
        self.corrupt_magnitude = magnitude;
        self
    }

    /// Sets the stall probability and duration.
    pub fn with_stalls(mut self, p: f64, stall_ms: u64) -> Self {
        self.stall = p;
        self.stall_ms = stall_ms;
        self
    }

    /// Kills the stream after `n` input elements (decoder crash).
    pub fn with_death_after(mut self, n: u64) -> Self {
        self.die_after = Some(n);
        self
    }

    /// Truncates the downlink after `n` input elements.
    pub fn with_truncation_after(mut self, n: u64) -> Self {
        self.truncate_after = Some(n);
        self
    }

    /// The plan as armed for supervised ingest attempt `attempt`:
    /// lethal faults (`die_after`, `truncate_after`) only fire on the
    /// first attempt so a supervised restart can make progress, while
    /// probabilistic faults stay armed (the restart still runs over a
    /// degraded feed). Deterministic: depends only on `attempt`.
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        if attempt > 0 {
            plan.die_after = None;
            plan.truncate_after = None;
        }
        plan
    }

    /// True when the plan injects nothing.
    pub fn is_benign(&self) -> bool {
        self.drop_point == 0.0
            && self.drop_frame == 0.0
            && self.drop_sector == 0.0
            && self.drop_end_marker == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.stall == 0.0
            && self.die_after.is_none()
            && self.truncate_after.is_none()
    }
}

/// Counts of injected faults, shared through [`ChaosStream::probe`] so
/// a supervisor can inspect them after the stream (or its thread) ends.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Input elements consumed from the wrapped stream.
    pub elements_in: u64,
    /// Individual points dropped.
    pub points_dropped: u64,
    /// Whole frames dropped.
    pub frames_dropped: u64,
    /// Whole sectors dropped.
    pub sectors_dropped: u64,
    /// `FrameEnd`/`SectorEnd` markers dropped.
    pub end_markers_dropped: u64,
    /// Elements transmitted twice.
    pub duplicated: u64,
    /// Elements emitted out of order.
    pub reordered: u64,
    /// Point values perturbed.
    pub corrupted: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// The stream was killed by `die_after` (supervisor restart
    /// trigger).
    pub died: bool,
    /// The stream ended early via `truncate_after`.
    pub truncated: bool,
}

impl FaultStats {
    /// Accumulates another attempt's counters into this one (flags OR).
    pub fn merge(&mut self, other: &FaultStats) {
        self.elements_in += other.elements_in;
        self.points_dropped += other.points_dropped;
        self.frames_dropped += other.frames_dropped;
        self.sectors_dropped += other.sectors_dropped;
        self.end_markers_dropped += other.end_markers_dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupted += other.corrupted;
        self.stalls += other.stalls;
        self.died |= other.died;
        self.truncated |= other.truncated;
    }

    /// Total faults injected (excluding stalls, which change timing
    /// only).
    pub fn total_injected(&self) -> u64 {
        self.points_dropped
            + self.frames_dropped
            + self.sectors_dropped
            + self.end_markers_dropped
            + self.duplicated
            + self.reordered
            + self.corrupted
    }
}

/// Shared view of a [`ChaosStream`]'s fault counters; stays readable
/// after the stream was moved into an ingest thread.
#[derive(Debug, Default)]
pub struct FaultProbe {
    inner: Mutex<FaultStats>,
}

impl FaultProbe {
    /// Snapshot of the counters.
    pub fn stats(&self) -> FaultStats {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

/// SplitMix64 step (same avalanche as [`crate::noise`]).
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
#[inline]
fn roll(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`GeoStream`] wrapper that degrades its input according to a
/// [`FaultPlan`]. Transparent in schema; deterministic in
/// `(plan.seed, salt, input sequence)`.
pub struct ChaosStream<S: GeoStream> {
    input: S,
    plan: FaultPlan,
    rng: u64,
    /// Already-faulted elements awaiting delivery.
    out: RunQueue<S::V>,
    /// Element held back by a reorder fault.
    held: Option<Element<S::V>>,
    /// Currently inside a dropped frame.
    skip_frame: bool,
    /// Currently inside a dropped sector.
    skip_sector: bool,
    ended: bool,
    stats: FaultStats,
    probe: Arc<FaultProbe>,
}

impl<S: GeoStream> ChaosStream<S> {
    /// Wraps `input` under `plan`. The `salt` decorrelates RNG streams
    /// that share a seed (use e.g. the band id, or the ingest attempt
    /// number) without losing run-to-run determinism.
    pub fn new(input: S, plan: FaultPlan, salt: u64) -> Self {
        let rng = plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ 0x5A17_5A17_5A17_5A17;
        ChaosStream {
            input,
            plan,
            rng,
            out: RunQueue::default(),
            held: None,
            skip_frame: false,
            skip_sector: false,
            ended: false,
            stats: FaultStats::default(),
            probe: Arc::new(FaultProbe::default()),
        }
    }

    /// Shared handle to the fault counters (valid after the stream is
    /// moved into a thread, and after that thread dies).
    pub fn probe(&self) -> Arc<FaultProbe> {
        Arc::clone(&self.probe)
    }

    /// The fault counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats.clone()
    }

    fn sync_probe(&self) {
        let mut guard = self.probe.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = self.stats.clone();
    }

    /// Queues `el` for delivery: a marker as an item, a point onto the
    /// open run.
    fn queue(&mut self, el: Element<S::V>) {
        match Marker::from_element(el) {
            Ok(m) => self.out.push(ChunkOrMarker::Marker(m)),
            Err(p) => self.out.open_run().push(p),
        }
    }

    /// Queues `el` for delivery, honoring a pending reorder hold.
    fn emit(&mut self, el: Element<S::V>) {
        let held = self.held.take();
        self.queue(el);
        if let Some(h) = held {
            // The held element trails its successor: pairwise disorder.
            self.queue(h);
        }
    }

    /// Handles the clean end of the input: a held element is released
    /// (death drops it in [`Self::process_one`] instead).
    fn finish_input(&mut self) {
        self.ended = true;
        if let Some(h) = self.held.take() {
            self.queue(h);
        }
        self.sync_probe();
    }

    /// Runs one input element through the fault machinery, queueing the
    /// survivors onto `self.out`. Every element takes this path one at a
    /// time, so the RNG draw order — and therefore the injected fault
    /// sequence for a given seed — is the same at every pull budget.
    fn process_one(&mut self, el: Element<S::V>) {
        self.stats.elements_in += 1;
        if let Some(n) = self.plan.die_after {
            if self.stats.elements_in > n {
                self.stats.died = true;
                self.ended = true;
                self.held = None;
                self.sync_probe();
                return;
            }
        }
        if let Some(n) = self.plan.truncate_after {
            if self.stats.elements_in > n {
                self.stats.truncated = true;
                self.ended = true;
                self.held = None;
                self.sync_probe();
                return;
            }
        }
        if self.plan.stall > 0.0 && roll(&mut self.rng) < self.plan.stall {
            self.stats.stalls += 1;
            if self.plan.stall_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
            }
        }
        // Structural drops: whole sectors, whole frames, markers.
        let el = match el {
            Element::SectorStart(si) => {
                if roll(&mut self.rng) < self.plan.drop_sector {
                    self.stats.sectors_dropped += 1;
                    self.skip_sector = true;
                    return;
                }
                self.skip_sector = false;
                self.skip_frame = false;
                Element::SectorStart(si)
            }
            Element::SectorEnd(se) => {
                if self.skip_sector {
                    self.skip_sector = false;
                    return;
                }
                if roll(&mut self.rng) < self.plan.drop_end_marker {
                    self.stats.end_markers_dropped += 1;
                    return;
                }
                Element::SectorEnd(se)
            }
            Element::FrameStart(fi) => {
                if self.skip_sector {
                    return;
                }
                if roll(&mut self.rng) < self.plan.drop_frame {
                    self.stats.frames_dropped += 1;
                    self.skip_frame = true;
                    return;
                }
                self.skip_frame = false;
                Element::FrameStart(fi)
            }
            Element::FrameEnd(fe) => {
                if self.skip_sector {
                    return;
                }
                if self.skip_frame {
                    self.skip_frame = false;
                    return;
                }
                if roll(&mut self.rng) < self.plan.drop_end_marker {
                    self.stats.end_markers_dropped += 1;
                    return;
                }
                Element::FrameEnd(fe)
            }
            Element::Point(p) => {
                if self.skip_sector || self.skip_frame {
                    return;
                }
                if roll(&mut self.rng) < self.plan.drop_point {
                    self.stats.points_dropped += 1;
                    return;
                }
                if self.plan.corrupt > 0.0 && roll(&mut self.rng) < self.plan.corrupt {
                    self.stats.corrupted += 1;
                    let delta = (roll(&mut self.rng) * 2.0 - 1.0) * self.plan.corrupt_magnitude;
                    Element::point(p.cell, S::V::from_f64(p.value.to_f64() + delta))
                } else {
                    Element::Point(p)
                }
            }
        };
        if self.plan.duplicate > 0.0 && roll(&mut self.rng) < self.plan.duplicate {
            self.stats.duplicated += 1;
            self.queue(el.clone());
        }
        if self.plan.reorder > 0.0 && self.held.is_none() && roll(&mut self.rng) < self.plan.reorder
        {
            self.stats.reordered += 1;
            self.held = Some(el);
            return;
        }
        self.emit(el);
        if self.stats.elements_in.is_multiple_of(1024) {
            self.sync_probe();
        }
    }
}

impl<S: GeoStream> GeoStream for ChaosStream<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        self.input.schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        let budget = budget.max(1);
        loop {
            if let Some(item) = self.out.pop(budget) {
                return Some(item);
            }
            if self.ended {
                return None;
            }
            match self.input.next_chunk(budget) {
                Some(ChunkOrMarker::Marker(m)) => self.process_one(m.into_element()),
                Some(ChunkOrMarker::Chunk(mut c)) => {
                    for p in c.points.drain(..) {
                        if self.ended {
                            // Death/truncation fired mid-run: the rest of
                            // the pulled input is never consumed.
                            break;
                        }
                        self.process_one(Element::Point(p));
                    }
                    if !self.ended {
                        if let Some(m) = c.end.take() {
                            self.process_one(m.into_element());
                        }
                    }
                    c.recycle();
                }
                None => self.finish_input(),
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.input.op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goes_like;
    use geostreams_core::model::{Element, GeoStream};

    fn drain(plan: FaultPlan) -> (Vec<Element<f32>>, FaultStats) {
        let mut s = ChaosStream::new(goes_like(16, 8, 3).band_stream(0, 2), plan, 0);
        let els = s.drain_elements();
        (els, s.fault_stats())
    }

    #[test]
    fn benign_plan_is_transparent() {
        let (els, stats) = drain(FaultPlan::seeded(1));
        let mut clean = goes_like(16, 8, 3).band_stream(0, 2);
        assert_eq!(els, clean.drain_elements());
        assert_eq!(stats.total_injected(), 0);
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::seeded(42)
            .with_dropped_rows(0.1)
            .with_dropped_points(0.05)
            .with_duplicates(0.05)
            .with_reordering(0.05)
            .with_corruption(0.02, 0.5);
        let (a, sa) = drain(plan.clone());
        let (b, sb) = drain(plan);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.total_injected() > 0, "{sa:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let base = FaultPlan::seeded(1).with_dropped_points(0.2);
        let (a, _) = drain(base.clone());
        let (b, _) = drain(FaultPlan { seed: 2, ..base });
        assert_ne!(a, b);
    }

    #[test]
    fn salt_decorrelates_shared_seed() {
        let plan = FaultPlan::seeded(7).with_dropped_points(0.2);
        let mut s1 = ChaosStream::new(goes_like(16, 8, 3).band_stream(0, 1), plan.clone(), 0);
        let mut s2 = ChaosStream::new(goes_like(16, 8, 3).band_stream(0, 1), plan, 1);
        assert_ne!(s1.drain_elements(), s2.drain_elements());
    }

    #[test]
    fn dropped_rows_remove_whole_frames() {
        let (els, stats) = drain(FaultPlan::seeded(11).with_dropped_rows(0.5));
        assert!(stats.frames_dropped > 0);
        // Protocol stays frame-balanced: drops remove start+points+end
        // together.
        let starts = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert_eq!(starts, ends);
        assert_eq!(starts as u64, 16 - stats.frames_dropped);
    }

    #[test]
    fn dropped_end_markers_unbalance_frames() {
        let (els, stats) = drain(FaultPlan::seeded(5).with_dropped_end_markers(0.3));
        assert!(stats.end_markers_dropped > 0);
        let starts = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert!(ends < starts, "starts={starts} ends={ends}");
    }

    #[test]
    fn death_sets_flag_and_ends_stream() {
        let (els, stats) = drain(FaultPlan::seeded(1).with_death_after(20));
        assert!(stats.died);
        assert!(!stats.truncated);
        assert_eq!(els.len(), 20);
    }

    #[test]
    fn truncation_is_not_death() {
        let (_, stats) = drain(FaultPlan::seeded(1).with_truncation_after(10));
        assert!(stats.truncated);
        assert!(!stats.died);
    }

    #[test]
    fn for_attempt_disarms_lethal_faults_after_first() {
        let plan = FaultPlan::seeded(1).with_death_after(5).with_dropped_points(0.1);
        assert_eq!(plan.for_attempt(0).die_after, Some(5));
        assert_eq!(plan.for_attempt(1).die_after, None);
        assert_eq!(plan.for_attempt(1).drop_point, 0.1);
    }

    #[test]
    fn probe_outlives_the_stream() {
        let plan = FaultPlan::seeded(9).with_dropped_points(0.3);
        let s = ChaosStream::new(goes_like(16, 8, 3).band_stream(0, 1), plan, 0);
        let probe = s.probe();
        let handle = std::thread::spawn(move || {
            let mut s = s;
            s.drain_elements().len()
        });
        let _ = handle.join().unwrap();
        assert!(probe.stats().points_dropped > 0);
    }

    #[test]
    fn reordering_swaps_adjacent_elements() {
        let (els, stats) = drain(FaultPlan::seeded(13).with_reordering(0.2));
        assert!(stats.reordered > 0);
        // Same multiset of elements, different order.
        let mut clean = goes_like(16, 8, 3).band_stream(0, 2).drain_elements();
        let mut got = els.clone();
        let key = |e: &Element<f32>| format!("{e:?}");
        clean.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(clean, got);
    }
}
