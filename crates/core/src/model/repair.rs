//! Gap detection and frame finalization for degraded streams.
//!
//! The element protocol ([`super::element`]) is what frame-scoped
//! operators key their buffering on: `stretch`, `aggregate` and
//! `compose` hold points until the `FrameEnd`/`SectorEnd` marker that
//! closes the scope (§3). Over a real downlink those markers — and the
//! rows they close — get lost, and a naive pipeline blocks forever on a
//! frame that will never complete. The
//! [`ChunkProtocolChecker`](crate::ops::ChunkProtocolChecker) *detects*
//! such damage; [`StreamRepair`] goes further and **repairs the
//! framing** so downstream operators always terminate:
//!
//! * a missing `FrameEnd`/`SectorEnd` is synthesized as soon as the
//!   scan-sector metadata proves the scope is over (a new frame/sector
//!   starts, or the stream ends) — the frame is finalized *partial*
//!   with a completeness ratio derived from its declared cell box;
//! * duplicated frames and points (link-layer retransmissions) are
//!   dropped, so aggregates are not double-counted;
//! * out-of-order and orphaned elements (a point after its frame was
//!   finalized or outside the open frame's declared box, an end marker
//!   for a scope that is not open) are dropped and counted as disorder
//!   or orphans rather than corrupting open scopes.
//!
//! The output of `StreamRepair` is bracketed, and every point it
//! delivers lies in its frame's box and its sector's lattice, however
//! damaged the input. That is the invariant the supervised DSMS runtime
//! relies on: queries over a degraded feed *complete*, with the
//! degradation quantified in [`RepairStats`] and per-sector
//! [`SectorCompleteness`] records instead of silently wrong output.
//! A frame or sector that arrives after a later one of its scope (two
//! frames swapped whole) is dropped whole: one disorder, its contents
//! orphans.

use super::chunk::{Chunk, ChunkOrMarker, Marker, RunQueue};
use super::element::{FrameEnd, FrameInfo, PointRecord, SectorEnd};
use super::stream::GeoStream;
use crate::model::StreamSchema;
use crate::obs::Counter;
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Counters of everything [`StreamRepair`] detected and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Input elements consumed.
    pub elements_in: u64,
    /// Discontinuities: frames finalized incomplete, plus wholly
    /// missing frames/sectors inferred from identifier jumps.
    pub gaps: u64,
    /// Points missing from finalized frames (declared box area minus
    /// distinct points received).
    pub gap_points: u64,
    /// Duplicate frames dropped (frame id already delivered).
    pub duplicate_frames: u64,
    /// Duplicate points dropped (cell already delivered in its frame).
    pub duplicate_points: u64,
    /// Out-of-order observations: mismatched end markers, row
    /// regressions within a sector, points outside the open frame's
    /// declared box (dropped).
    pub disorder: u64,
    /// Orphaned elements dropped (no open scope to attribute them to).
    pub orphans: u64,
    /// `FrameEnd` markers synthesized.
    pub synthesized_frame_ends: u64,
    /// `SectorEnd` markers synthesized.
    pub synthesized_sector_ends: u64,
    /// Frames finalized with missing points.
    pub partial_frames: u64,
    /// Sectors finalized with missing points.
    pub partial_sectors: u64,
    /// Points expected across all opened sectors (lattice areas).
    pub expected_points: u64,
    /// Distinct points actually delivered.
    pub received_points: u64,
    /// Input ended with an open frame or sector.
    pub truncated: bool,
}

impl RepairStats {
    /// Fraction of expected points delivered, in `[0, 1]`; `1.0` for an
    /// empty stream.
    pub fn completeness(&self) -> f64 {
        if self.expected_points == 0 {
            1.0
        } else {
            self.received_points as f64 / self.expected_points as f64
        }
    }

    /// True when nothing had to be repaired.
    pub fn is_clean(&self) -> bool {
        self.gaps == 0
            && self.duplicate_frames == 0
            && self.duplicate_points == 0
            && self.disorder == 0
            && self.orphans == 0
            && self.synthesized_frame_ends == 0
            && self.synthesized_sector_ends == 0
            && !self.truncated
    }
}

/// Per-sector completeness record, finalized when the sector closes
/// (or is force-closed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectorCompleteness {
    /// Sector identifier.
    pub sector_id: u64,
    /// Spectral band of the stream.
    pub band: u16,
    /// Points the sector lattice declares.
    pub expected_points: u64,
    /// Distinct points delivered.
    pub received_points: u64,
    /// Frames delivered (including partial ones).
    pub frames_seen: u64,
    /// The closing `SectorEnd` was synthesized, not received.
    pub synthesized_end: bool,
}

impl SectorCompleteness {
    /// Fraction of the sector's declared points delivered.
    pub fn ratio(&self) -> f64 {
        if self.expected_points == 0 {
            1.0
        } else {
            self.received_points as f64 / self.expected_points as f64
        }
    }
}

/// Shared view of a [`StreamRepair`]'s outcome; stays readable after
/// the stream was moved into a query thread. Synced at sector
/// boundaries and at end of stream.
#[derive(Debug, Default)]
pub struct RepairProbe {
    inner: Mutex<ProbeState>,
}

#[derive(Debug, Default)]
struct ProbeState {
    stats: RepairStats,
    sectors: Vec<SectorCompleteness>,
}

impl RepairProbe {
    /// Snapshot of the repair counters.
    pub fn stats(&self) -> RepairStats {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats.clone()
    }

    /// Snapshot of the per-sector completeness records.
    pub fn sectors(&self) -> Vec<SectorCompleteness> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).sectors.clone()
    }
}

/// Live metric hooks, incremented as repairs happen (in addition to the
/// cumulative [`RepairStats`]). The DSMS wires these to its
/// `geostreams_*` registry so recovery is visible on `/metrics` while
/// queries run.
#[derive(Debug, Clone, Default)]
pub struct RepairCounters {
    /// Gap detections (incomplete frames, missing frames/sectors).
    pub gaps: Counter,
    /// Duplicate frames + points dropped.
    pub duplicates: Counter,
    /// Disorder observations.
    pub disorder: Counter,
    /// Frames finalized partial.
    pub partial_frames: Counter,
}

/// An open frame being tracked.
struct OpenFrame {
    info: FrameInfo,
    expected: u64,
}

/// Largest admitted box tracked by bitmap (32 MiB of bits; a
/// full-scale 20 840 × 10 820 GOES image frame fits). A frame whose box,
/// clipped to its sector's lattice, holds more — only a corrupt
/// `SectorStart` declares such a lattice — admits no point: every point
/// of it is dropped as disorder and the frame is finalized partial.
const MAX_BITMAP_CELLS: u64 = 1 << 28;

/// The distinct cells delivered in the open frame: one bit per cell of
/// the box it admits (its declared box clipped to the sector lattice).
#[derive(Default)]
struct SeenCells {
    col_min: u32,
    row_min: u32,
    /// Extent of the admitted box; `0 × 0` when it admits nothing.
    width: u32,
    height: u32,
    bits: Vec<u64>,
    len: u64,
}

impl SeenCells {
    /// Empties the set and maps the bitmap onto `admitted` (nothing when
    /// `None` or too large).
    fn reset(&mut self, admitted: Option<CellBox>) {
        let (col_min, row_min, w, h) = admitted
            .filter(|b| b.len() <= MAX_BITMAP_CELLS)
            .map_or((0, 0, 0, 0), |b| (b.col_min, b.row_min, b.width(), b.height()));
        (self.col_min, self.row_min, self.width, self.height) = (col_min, row_min, w, h);
        self.bits.clear();
        self.bits.resize((u64::from(w) * u64::from(h)).div_ceil(64) as usize, 0);
        self.len = 0;
    }

    /// Whether `cell` lies in the admitted box.
    fn covers(&self, cell: Cell) -> bool {
        cell.col.wrapping_sub(self.col_min) < self.width
            && cell.row.wrapping_sub(self.row_min) < self.height
    }

    /// Adds `cells` in order up to the first one outside the admitted
    /// box or already present; returns how many were added. Consecutive
    /// cells of a scan line share a bitmap word, which stays in a
    /// register until the run moves on.
    fn insert_run(&mut self, cells: impl Iterator<Item = Cell>) -> usize {
        let (mut held, mut word) = (usize::MAX, 0u64);
        let mut added = 0;
        for cell in cells {
            let (dc, dr) =
                (cell.col.wrapping_sub(self.col_min), cell.row.wrapping_sub(self.row_min));
            if dc >= self.width || dr >= self.height {
                break;
            }
            let i = dr as usize * self.width as usize + dc as usize;
            if i >> 6 != held {
                if let Some(w) = self.bits.get_mut(held) {
                    *w = word;
                }
                held = i >> 6;
                word = self.bits[held];
            }
            let bit = 1u64 << (i & 63);
            if word & bit != 0 {
                break;
            }
            word |= bit;
            added += 1;
        }
        if let Some(w) = self.bits.get_mut(held) {
            *w = word;
        }
        self.len += added as u64;
        added
    }
}

/// What is being discarded up to the end marker of a frame or a
/// sector.
#[derive(Clone, Copy, PartialEq)]
enum Skip {
    /// A retransmitted frame: its points count as duplicates.
    Duplicate(u64),
    /// A frame whose id is below the last one of its sector: its points
    /// are orphans.
    Frame(u64),
    /// A sector whose id does not exceed the last one opened: its
    /// elements are orphans.
    Sector(u64),
}

/// An open sector being tracked.
struct OpenSector {
    id: u64,
    band: u16,
    /// The sector's lattice: no point outside it is admitted.
    lattice: CellBox,
    expected: u64,
    received: u64,
    frames_seen: u64,
    /// Lowest frame id delivered in this sector.
    first_frame_id: Option<u64>,
    last_frame_id: Option<u64>,
    last_row: Option<u32>,
}

/// A normalizing adapter that turns an arbitrarily damaged element
/// sequence into a protocol-valid one (see the module docs).
pub struct StreamRepair<S: GeoStream> {
    input: S,
    out: RunQueue<S::V>,
    stats: RepairStats,
    sector: Option<OpenSector>,
    frame: Option<OpenFrame>,
    /// Cells delivered in the open frame (buffers reused across frames).
    seen_cells: SeenCells,
    /// Frame ids delivered in the open sector and the one before it
    /// (duplicate suppression): a retransmission trails its original by
    /// less than a sector, and a continuous query must not grow with
    /// the length of the stream.
    seen_frames: BTreeSet<u64>,
    /// Inside a frame or sector whose elements are being discarded.
    skip: Option<Skip>,
    last_sector_id: Option<u64>,
    ended: bool,
    probe: Arc<RepairProbe>,
    counters: Option<RepairCounters>,
}

impl<S: GeoStream> StreamRepair<S> {
    /// Wraps a stream with a fresh probe.
    pub fn new(input: S) -> Self {
        Self::with_probe(input, Arc::new(RepairProbe::default()))
    }

    /// Wraps a stream, reporting into a caller-supplied probe (so the
    /// probe can be held before the stream is moved into a thread).
    pub fn with_probe(input: S, probe: Arc<RepairProbe>) -> Self {
        StreamRepair {
            input,
            out: RunQueue::default(),
            stats: RepairStats::default(),
            sector: None,
            frame: None,
            seen_cells: SeenCells::default(),
            seen_frames: BTreeSet::new(),
            skip: None,
            last_sector_id: None,
            ended: false,
            probe,
            counters: None,
        }
    }

    /// Attaches live metric counters (builder style).
    pub fn with_counters(mut self, counters: RepairCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Shared handle to the repair outcome.
    pub fn probe(&self) -> Arc<RepairProbe> {
        Arc::clone(&self.probe)
    }

    /// The repair counters so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.stats.clone()
    }

    fn sync_probe(&self, sector: Option<SectorCompleteness>) {
        let mut guard = self.probe.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.stats = self.stats.clone();
        if let Some(s) = sector {
            guard.sectors.push(s);
        }
    }

    fn note_gap(&mut self, n: u64) {
        self.stats.gaps += n;
        if let Some(c) = &self.counters {
            c.gaps.add(n);
        }
    }

    fn note_duplicates(&mut self, n: u64) {
        if let Some(c) = &self.counters {
            c.duplicates.add(n);
        }
    }

    fn note_disorder(&mut self) {
        self.stats.disorder += 1;
        if let Some(c) = &self.counters {
            c.disorder.inc();
        }
    }

    /// Finalizes the open frame (if any), synthesizing its `FrameEnd`
    /// when `synthesize` is set, and accounts its completeness.
    fn close_frame(&mut self, synthesize: bool) {
        let Some(open) = self.frame.take() else { return };
        let seen = self.seen_cells.len;
        if seen < open.expected {
            self.stats.partial_frames += 1;
            self.stats.gap_points += open.expected - seen;
            self.note_gap(1);
            if let Some(c) = &self.counters {
                c.partial_frames.inc();
            }
        }
        if synthesize {
            self.stats.synthesized_frame_ends += 1;
        }
        self.out.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd {
            frame_id: open.info.frame_id,
            sector_id: open.info.sector_id,
        })));
    }

    /// Handles the end of the input stream: force-closes open scopes
    /// and syncs the probe. Idempotent via `self.ended`.
    fn finish_input(&mut self) {
        self.ended = true;
        if self.frame.is_some() || self.sector.is_some() {
            self.stats.truncated = true;
            self.close_frame(true);
            self.close_sector(true);
        } else {
            self.sync_probe(None);
        }
    }

    /// Runs one input marker through the repair state machine, queueing
    /// whatever survives onto `self.out`.
    fn process_marker(&mut self, m: Marker) {
        self.stats.elements_in += 1;
        match m {
            Marker::SectorStart(si) => {
                self.skip = None;
                if let Some(open) = &self.sector {
                    if open.id == si.sector_id {
                        // Retransmitted SectorStart for the open
                        // sector: drop.
                        self.stats.duplicate_frames += 1;
                        self.note_duplicates(1);
                        return;
                    }
                }
                if self.last_sector_id.is_some_and(|last| si.sector_id <= last) {
                    // A sector that comes after a later one (or again):
                    // discarded whole, up to its `SectorEnd`.
                    self.note_disorder();
                    self.skip = Some(Skip::Sector(si.sector_id));
                    return;
                }
                if self.sector.is_some() {
                    // Previous sector never closed: force-close it
                    // (and any open frame) before opening the new
                    // one.
                    self.close_frame(true);
                    self.close_sector(true);
                }
                if let Some(prev) = self.last_sector_id {
                    if si.sector_id > prev + 1 {
                        // Whole sectors missing from the downlink.
                        self.note_gap(si.sector_id - prev - 1);
                    }
                }
                self.last_sector_id = Some(si.sector_id);
                let area = u64::from(si.lattice.width) * u64::from(si.lattice.height);
                self.stats.expected_points += area;
                self.sector = Some(OpenSector {
                    id: si.sector_id,
                    band: si.band,
                    lattice: CellBox::full(si.lattice.width, si.lattice.height),
                    expected: area,
                    received: 0,
                    frames_seen: 0,
                    first_frame_id: None,
                    last_frame_id: None,
                    last_row: None,
                });
                self.out.push(ChunkOrMarker::Marker(Marker::SectorStart(si)));
            }
            Marker::FrameStart(fi) => {
                if matches!(self.skip, Some(Skip::Sector(_))) {
                    self.stats.orphans += 1;
                    return;
                }
                self.skip = None;
                if self.sector.is_none() {
                    // No sector to attribute the frame to (its
                    // SectorStart is lost or still in flight): drop
                    // the frame header; its points will be dropped
                    // as orphans.
                    self.stats.orphans += 1;
                    self.note_disorder();
                    return;
                }
                if !self.seen_frames.insert(fi.frame_id) {
                    // Retransmitted frame: discard its whole body.
                    self.stats.duplicate_frames += 1;
                    self.note_duplicates(1);
                    self.skip = Some(Skip::Duplicate(fi.frame_id));
                    return;
                }
                let last = self.sector.as_ref().and_then(|s| s.last_frame_id);
                if last.is_some_and(|last| fi.frame_id < last) {
                    // A frame that comes after a later one of its sector:
                    // discarded whole, up to its `FrameEnd`.
                    self.seen_frames.remove(&fi.frame_id);
                    self.note_disorder();
                    self.skip = Some(Skip::Frame(fi.frame_id));
                    return;
                }
                // Previous frame never closed: finalize it partial.
                self.close_frame(true);
                // An inverted (corrupt) box declares no cell.
                let expected = fi.cells.intersect(&fi.cells).map_or(0, |b| b.len());
                let admitted = self.sector.as_ref().and_then(|s| fi.cells.intersect(&s.lattice));
                let mut gap_frames = 0u64;
                let mut disorders = 0u32;
                if let Some(open) = &mut self.sector {
                    open.frames_seen += 1;
                    open.first_frame_id =
                        Some(open.first_frame_id.map_or(fi.frame_id, |f| f.min(fi.frame_id)));
                    if let Some(prev) = open.last_frame_id {
                        if fi.frame_id > prev + 1 {
                            // Whole frames (scan rows) missing.
                            gap_frames = fi.frame_id - prev - 1;
                        }
                    }
                    open.last_frame_id = Some(fi.frame_id);
                    if let Some(prev_row) = open.last_row {
                        if fi.cells.row_min < prev_row {
                            disorders += 1;
                        }
                    }
                    open.last_row = Some(fi.cells.row_min);
                }
                if gap_frames > 0 {
                    self.note_gap(gap_frames);
                }
                for _ in 0..disorders {
                    self.note_disorder();
                }
                self.seen_cells.reset(admitted);
                self.frame = Some(OpenFrame { info: fi, expected });
                self.out.push(ChunkOrMarker::Marker(Marker::FrameStart(fi)));
            }
            Marker::FrameEnd(fe) => {
                match self.skip {
                    Some(Skip::Duplicate(id) | Skip::Frame(id)) if id == fe.frame_id => {
                        self.skip = None;
                        return;
                    }
                    Some(Skip::Sector(_)) => {
                        self.stats.orphans += 1;
                        return;
                    }
                    _ => self.skip = None,
                }
                match &self.frame {
                    Some(open) if open.info.frame_id == fe.frame_id => {
                        self.close_frame(false);
                    }
                    Some(_) => {
                        // An end marker for a frame that is not
                        // open — out-of-order or already
                        // force-closed. Keep the open frame.
                        self.note_disorder();
                        self.stats.orphans += 1;
                    }
                    None => {
                        self.stats.orphans += 1;
                    }
                }
            }
            Marker::SectorEnd(se) => {
                if std::mem::take(&mut self.skip) == Some(Skip::Sector(se.sector_id)) {
                    return;
                }
                match &self.sector {
                    Some(open) if open.id == se.sector_id => {
                        // Close any frame the lost markers left
                        // open, then the sector itself.
                        self.close_frame(true);
                        self.close_sector(false);
                    }
                    Some(_) => {
                        self.note_disorder();
                        self.stats.orphans += 1;
                    }
                    None => {
                        self.stats.orphans += 1;
                    }
                }
            }
        }
    }

    /// Runs one input run through the repair, queueing what survives
    /// onto `self.out`. A run inside a skipped frame or sector, or with
    /// no frame open, is counted in one step. Otherwise each clean
    /// stretch is admitted by [`admit_run`](Self::admit_run) and appended
    /// in one slice, and the point that ends it is counted as disorder
    /// (outside the admitted box) or a duplicate. A run admitted whole is
    /// queued in the buffer it came in: the caller has nothing queued.
    fn process_run(&mut self, run: Chunk<S::V>) {
        let n = run.len() as u64;
        self.stats.elements_in += n;
        match self.skip {
            Some(Skip::Duplicate(_)) => {
                self.stats.duplicate_points += n;
                self.note_duplicates(n);
            }
            Some(_) => self.stats.orphans += n,
            None if self.frame.is_none() => self.stats.orphans += n,
            None => {
                let mut at = 0;
                while at < run.len() {
                    let clean = self.admit_run(&run.points[at..]);
                    if clean == run.len() {
                        self.out.push(ChunkOrMarker::Chunk(run));
                        return;
                    }
                    if clean > 0 {
                        self.out.open_run().extend_from_slice(&run.points[at..at + clean]);
                    }
                    at += clean;
                    let Some(p) = run.points.get(at) else { break };
                    if self.seen_cells.covers(p.cell) {
                        self.stats.duplicate_points += 1;
                        self.note_duplicates(1);
                    } else {
                        // Outside the open frame's box (its own frame was
                        // lost or is out of order) or the lattice: never
                        // attributed to a frame it does not belong to.
                        self.note_disorder();
                    }
                    at += 1;
                }
            }
        }
        run.recycle();
    }

    /// Admits the longest prefix of `points` that continues the open
    /// frame cleanly — every cell in its admitted box and new to it — and
    /// returns its length.
    fn admit_run(&mut self, points: &[PointRecord<S::V>]) -> usize {
        let n = self.seen_cells.insert_run(points.iter().map(|p| p.cell));
        self.stats.received_points += n as u64;
        if let Some(sec) = &mut self.sector {
            sec.received += n as u64;
        }
        n
    }

    /// Finalizes the open sector (if any); `synthesize` emits the
    /// missing `SectorEnd`.
    fn close_sector(&mut self, synthesize: bool) {
        let Some(open) = self.sector.take() else { return };
        if open.received < open.expected {
            self.stats.partial_sectors += 1;
        }
        if synthesize {
            self.stats.synthesized_sector_ends += 1;
        }
        self.out.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd { sector_id: open.id })));
        if let Some(first) = open.first_frame_id {
            self.seen_frames = self.seen_frames.split_off(&first);
        }
        let record = SectorCompleteness {
            sector_id: open.id,
            band: open.band,
            expected_points: open.expected,
            received_points: open.received,
            frames_seen: open.frames_seen,
            synthesized_end: synthesize,
        };
        self.sync_probe(Some(record));
    }
}

impl<S: GeoStream> GeoStream for StreamRepair<S> {
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
                Some(ChunkOrMarker::Marker(m)) => self.process_marker(m),
                Some(ChunkOrMarker::Chunk(mut c)) => {
                    // Nothing is queued here (`pop` came back empty), so
                    // a run admitted whole goes downstream in the buffer
                    // it arrived in; what its end marker turns into
                    // rides along.
                    let end = c.end.take();
                    self.process_run(c);
                    if let Some(m) = end {
                        self.process_marker(m);
                    }
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
    use crate::model::{Element, StreamSchema, TimeSemantics, VecStream};
    use crate::ops::ChunkProtocolChecker;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};
    use std::collections::VecDeque;

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    fn clean_elements(n_sectors: u64) -> Vec<Element<f32>> {
        let mut s: VecStream<f32> =
            VecStream::sectors("x", lattice(), n_sectors, |s, c, r| f64::from(c + r) + s as f64);
        s.drain_elements()
    }

    /// Repairs `els` one element at a time, each point a run of its own:
    /// the oracle of the chunk path's whole-run admission.
    fn repair(els: Vec<Element<f32>>) -> (Vec<Element<f32>>, RepairStats, Vec<SectorCompleteness>) {
        let mut r = StreamRepair::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), vec![]));
        let mut out = Vec::new();
        let mut drain = |r: &mut StreamRepair<VecStream<f32>>| {
            while let Some(item) = r.out.pop(1) {
                item.into_elements(&mut |el| out.push(el));
            }
        };
        for el in els {
            match Marker::from_element(el) {
                Ok(m) => r.process_marker(m),
                Err(p) => {
                    let mut run = Chunk::with_budget(1);
                    run.points.push(p);
                    r.process_run(run);
                }
            }
            drain(&mut r);
        }
        r.finish_input();
        drain(&mut r);
        let probe = r.probe();
        (out, probe.stats(), probe.sectors())
    }

    /// The repaired stream must always be protocol-valid.
    fn assert_valid(els: &[Element<f32>]) {
        let mut s = VecStream::new(StreamSchema::new("x", Crs::LatLon), els.to_vec());
        let mut checker = ChunkProtocolChecker::new(1, TimeSemantics::SectorId);
        while let Some(item) = s.next_chunk(1) {
            checker.observe(&item);
        }
        checker.finish();
        assert_eq!(
            checker.violations(),
            0,
            "repaired stream invalid: {:?}",
            checker.first_violation()
        );
    }

    #[test]
    fn clean_stream_is_untouched() {
        let base = clean_elements(2);
        let (out, stats, sectors) = repair(base.clone());
        assert_eq!(out, base);
        assert!(stats.is_clean(), "{stats:?}");
        assert_eq!(stats.completeness(), 1.0);
        assert_eq!(sectors.len(), 2);
        assert!(sectors.iter().all(|s| s.ratio() == 1.0 && !s.synthesized_end));
    }

    #[test]
    fn missing_frame_end_is_synthesized() {
        let mut els = clean_elements(1);
        // Remove the first FrameEnd: its frame stays open until the
        // next FrameStart proves it over.
        let idx = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        els.remove(idx);
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.synthesized_frame_ends, 1);
        // All points were present, so the frame is complete despite the
        // lost marker.
        assert_eq!(stats.partial_frames, 0);
        assert_eq!(stats.completeness(), 1.0);
    }

    #[test]
    fn missing_sector_end_is_synthesized() {
        let mut els = clean_elements(2);
        // Remove the first SectorEnd; the next SectorStart forces the
        // close.
        let idx = els.iter().position(|e| matches!(e, Element::SectorEnd(_))).unwrap();
        els.remove(idx);
        let (out, stats, sectors) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.synthesized_sector_ends, 1);
        assert!(sectors[0].synthesized_end);
        assert!(!sectors[1].synthesized_end);
    }

    #[test]
    fn dropped_points_yield_partial_frames_with_ratio() {
        let mut els = clean_elements(1);
        // Drop 3 of the 16 points.
        let mut dropped = 0;
        els.retain(|e| {
            if dropped < 3 && e.is_point() {
                dropped += 1;
                false
            } else {
                true
            }
        });
        let (out, stats, sectors) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.gap_points, 3);
        assert!(stats.partial_frames >= 1);
        assert_eq!(stats.expected_points, 16);
        assert_eq!(stats.received_points, 13);
        assert!((stats.completeness() - 13.0 / 16.0).abs() < 1e-12);
        assert!((sectors[0].ratio() - 13.0 / 16.0).abs() < 1e-12);
        assert_eq!(stats.partial_sectors, 1);
    }

    #[test]
    fn duplicate_frames_are_dropped() {
        let mut els = clean_elements(1);
        // Retransmit the first frame (FrameStart..FrameEnd block).
        let start = els.iter().position(|e| matches!(e, Element::FrameStart(_))).unwrap();
        let end = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        let block: Vec<_> = els[start..=end].to_vec();
        els.splice(end + 1..end + 1, block);
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(out, clean_elements(1), "retransmission removed entirely");
        assert_eq!(stats.completeness(), 1.0);
    }

    #[test]
    fn duplicate_points_are_dropped() {
        let mut els = clean_elements(1);
        let idx = els.iter().position(Element::is_point).unwrap();
        let p = els[idx].clone();
        els.insert(idx, p);
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.duplicate_points, 1);
        assert_eq!(out, clean_elements(1));
    }

    #[test]
    fn truncated_stream_is_closed_out() {
        let mut els = clean_elements(1);
        els.truncate(els.len() - 4); // inside the last frame
        let (out, stats, sectors) = repair(els);
        assert_valid(&out);
        assert!(stats.truncated);
        assert_eq!(stats.synthesized_frame_ends, 1);
        assert_eq!(stats.synthesized_sector_ends, 1);
        assert!(stats.completeness() < 1.0);
        assert!(sectors[0].synthesized_end);
    }

    #[test]
    fn orphan_elements_are_dropped_not_propagated() {
        let mut els = clean_elements(1);
        // A stray point before any sector, and a stray FrameEnd after
        // everything closed.
        els.insert(0, Element::point(geostreams_geo::Cell::new(0, 0), 1.0f32));
        els.push(Element::FrameEnd(FrameEnd { frame_id: 99, sector_id: 0 }));
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.orphans, 2);
        assert_eq!(out, clean_elements(1));
    }

    #[test]
    fn mismatched_frame_end_counts_disorder() {
        let mut els = clean_elements(1);
        // Swap a FrameEnd with the following FrameStart (pairwise
        // reorder at a frame boundary).
        let idx = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        els.swap(idx, idx + 1);
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert!(stats.disorder >= 1, "{stats:?}");
        assert!(stats.synthesized_frame_ends >= 1);
    }

    #[test]
    fn missing_whole_frames_count_as_gaps() {
        let mut els = clean_elements(1);
        // Remove the second frame entirely (FrameStart..FrameEnd).
        let starts: Vec<usize> = els
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Element::FrameStart(_)).then_some(i))
            .collect();
        let s = starts[1];
        let e = els[s..].iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap() + s;
        els.drain(s..=e);
        let (out, stats, sectors) = repair(els);
        assert_valid(&out);
        assert!(stats.gaps >= 1, "{stats:?}");
        assert_eq!(stats.received_points, 12);
        assert_eq!(sectors[0].frames_seen, 3);
        assert!((sectors[0].ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn missing_whole_sectors_count_as_gaps() {
        let els = clean_elements(3);
        // Keep sectors 0 and 2; drop sector 1 entirely.
        let mut keep = Vec::new();
        let mut current = 0u64;
        for el in els {
            if let Element::SectorStart(si) = &el {
                current = si.sector_id;
            }
            if current != 1 {
                keep.push(el);
            }
        }
        let (out, stats, sectors) = repair(keep);
        assert_valid(&out);
        assert!(stats.gaps >= 1);
        assert_eq!(sectors.len(), 2);
        // Expected points only count sectors that were announced.
        assert_eq!(stats.expected_points, 32);
    }

    #[test]
    fn live_counters_track_repairs() {
        let counters = RepairCounters::default();
        let mut els = clean_elements(1);
        let idx = els.iter().position(Element::is_point).unwrap();
        let p = els[idx].clone();
        els.insert(idx, p);
        let mut r = StreamRepair::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), els))
            .with_counters(counters.clone());
        let _ = r.drain_elements();
        assert_eq!(counters.duplicates.get(), 1);
        assert_eq!(counters.gaps.get(), 0);
    }

    #[test]
    fn frame_scoped_operator_terminates_on_damaged_input() {
        // The motivating case: stretch buffers per frame; a lost
        // FrameEnd must not make it buffer forever.
        use crate::ops::{StretchMode, StretchScope, StretchTransform};
        let mut els = clean_elements(1);
        els.retain(|e| !matches!(e, Element::FrameEnd(_) | Element::SectorEnd(_)));
        let src = StreamRepair::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), els));
        let mut op = StretchTransform::new(
            src,
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Frame,
        );
        let out = op.drain_elements();
        assert!(out.iter().filter(|e| e.is_point()).count() > 0);
        assert_valid(&out);
    }

    /// Repairs `els` through the chunk path at `budget`.
    fn repair_chunked(
        els: Vec<Element<f32>>,
        budget: usize,
    ) -> (Vec<Element<f32>>, RepairStats, Vec<SectorCompleteness>) {
        let mut r = StreamRepair::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), els));
        let out = crate::model::drain_chunked(&mut r, budget);
        let probe = r.probe();
        (out, probe.stats(), probe.sectors())
    }

    /// `els` with the element ranges `a` and `b` (`a` before `b`, apart)
    /// swapped whole.
    fn swapped(
        mut els: Vec<Element<f32>>,
        a: std::ops::RangeInclusive<usize>,
        b: std::ops::RangeInclusive<usize>,
    ) -> Vec<Element<f32>> {
        let tail = els.split_off(b.end() + 1);
        let second: Vec<_> = els.drain(b.clone()).collect();
        let middle: Vec<_> = els.drain(a.end() + 1..).collect();
        let first: Vec<_> = els.drain(a).collect();
        els.extend(second.into_iter().chain(middle).chain(first).chain(tail));
        els
    }

    /// The index ranges of the elements from each marker `starts` matches
    /// to the next one `ends` matches.
    fn spans(
        els: &[Element<f32>],
        starts: fn(&Element<f32>) -> bool,
        ends: fn(&Element<f32>) -> bool,
    ) -> Vec<std::ops::RangeInclusive<usize>> {
        let mut out = Vec::new();
        for (i, el) in els.iter().enumerate() {
            if starts(el) {
                out.push(i..=i + els[i..].iter().position(ends).unwrap());
            }
        }
        out
    }

    /// Repairs `els` through the chunk path at budgets 1, 3 and 1024:
    /// the output keeps the stream grammar and is one result.
    fn repair_at_every_budget(els: Vec<Element<f32>>) -> (Vec<Element<f32>>, RepairStats) {
        let (out, stats, _) = repair_chunked(els.clone(), 1);
        for budget in [1, 3, 1024] {
            let mut r =
                StreamRepair::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), els.clone()));
            let mut checker = ChunkProtocolChecker::new(budget, TimeSemantics::SectorId);
            let mut got = Vec::new();
            while let Some(item) = r.next_chunk(budget) {
                checker.observe(&item);
                item.into_elements(&mut |el| got.push(el));
            }
            checker.finish();
            assert_eq!(checker.violations(), 0, "budget {budget}: {:?}", checker.first_violation());
            assert_eq!((got, r.probe().stats()), (out.clone(), stats.clone()), "budget {budget}");
        }
        (out, stats)
    }

    #[test]
    fn a_frame_after_a_later_one_is_dropped_whole() {
        // Frames 0 and 1 of a 4 × 4 sector arrive swapped whole: frame 1
        // goes through, frame 0 is one disorder and its points orphans.
        let els = clean_elements(1);
        let frames = spans(
            &els,
            |e| matches!(e, Element::FrameStart(_)),
            |e| matches!(e, Element::FrameEnd(_)),
        );
        let els = swapped(els, frames[0].clone(), frames[1].clone());
        let (out, stats) = repair_at_every_budget(els);
        let ids: Vec<u64> = out
            .iter()
            .filter_map(|e| match e {
                Element::FrameStart(fi) => Some(fi.frame_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!((stats.disorder, stats.orphans, stats.received_points), (1, 4, 12));
    }

    #[test]
    fn a_sector_after_a_later_one_is_dropped_whole() {
        // Sectors 0 and 1 arrive swapped whole: sector 1 goes through,
        // sector 0 is one disorder and every element inside it an orphan.
        let els = clean_elements(2);
        let sectors = spans(
            &els,
            |e| matches!(e, Element::SectorStart(_)),
            |e| matches!(e, Element::SectorEnd(_)),
        );
        let els = swapped(els, sectors[0].clone(), sectors[1].clone());
        let (out, stats) = repair_at_every_budget(els);
        let ids: Vec<u64> = out
            .iter()
            .filter_map(|e| match e {
                Element::SectorStart(si) => Some(si.sector_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![1]);
        // Four frames of four points, each frame with two markers.
        assert_eq!((stats.disorder, stats.orphans, stats.received_points), (1, 24, 16));
    }

    #[test]
    fn chunk_path_equals_element_path_on_clean_and_damaged_runs() {
        let clean = clean_elements(3);
        let first_point = clean.iter().position(Element::is_point).unwrap();
        let mut cases = vec![("clean", clean.clone())];
        let mut edit = |label, f: &dyn Fn(&mut Vec<Element<f32>>)| {
            let mut els = clean.clone();
            f(&mut els);
            cases.push((label, els));
        };
        edit("duplicate point mid-run", &|els| {
            els.insert(first_point + 2, els[first_point + 1].clone())
        });
        edit("out-of-order points", &|els| els.swap(first_point, first_point + 3));
        edit("cell outside the frame box, twice", &|els| {
            let stray = Element::point(geostreams_geo::Cell::new(2, 3), 9.0f32);
            els.insert(first_point + 1, stray.clone());
            els.insert(first_point + 3, stray);
        });
        edit("cell outside the lattice", &|els| {
            els.insert(
                first_point,
                Element::point(geostreams_geo::Cell::new(70_000, 70_000), 1.0f32),
            );
        });
        edit("frame box wider than the lattice", &|els| {
            if let Element::FrameStart(fi) = &mut els[first_point - 1] {
                fi.cells.col_max = 99;
            }
            els.insert(first_point + 1, Element::point(geostreams_geo::Cell::new(50, 0), 1.0f32));
        });
        edit("inverted frame box", &|els| {
            if let Element::FrameStart(fi) = &mut els[first_point - 1] {
                (fi.cells.col_min, fi.cells.col_max) = (3, 1);
            }
        });
        edit("next row's points after its lost markers", &|els| {
            // Frame 0's end and frame 1's start are lost: row 1 arrives
            // while frame 0 (row 0) is still open.
            let end = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
            els.drain(end..=end + 1);
        });
        edit("duplicate frame", &|els| {
            let start = els.iter().position(|e| matches!(e, Element::FrameStart(_))).unwrap();
            let end = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
            let block = els[start..=end].to_vec();
            els.splice(end + 1..end + 1, block);
        });
        edit("lost end markers", &|els| {
            els.retain(|e| !matches!(e, Element::FrameEnd(_) | Element::SectorEnd(_)));
        });
        edit("orphan points before any sector", &|els| {
            els.insert(0, Element::point(geostreams_geo::Cell::new(0, 0), 1.0f32));
        });
        for (label, els) in cases {
            let expected = repair(els.clone());
            assert_valid(&expected.0);
            // Reordered cells are delivered as long as each lies in its
            // frame's box and the lattice and is new to its frame; only
            // the rest counts as damage.
            let passes = ["clean", "out-of-order points"];
            assert_eq!(expected.1.is_clean(), passes.contains(&label), "{label}");
            // Rows are 4 points wide: at budget 4 every end marker lands
            // exactly on the budget edge, at 3 and 5 runs straddle it.
            for budget in [1, 3, 4, 5, 1024] {
                assert_eq!(
                    repair_chunked(els.clone(), budget),
                    expected,
                    "{label} at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn a_box_past_the_bitmap_limit_admits_no_point() {
        // A lattice of 70 000 × 70 000 cells (only a corrupt header
        // declares one) and a frame over all of it: more cells than the
        // bitmap maps, so its points are dropped as disorder and the
        // frame is finalized empty and partial.
        let big =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 70_000, 70_000);
        let mut els: Vec<Element<f32>> =
            VecStream::single_sector("x", lattice(), 0, |c, r| f64::from(c + r)).drain_elements();
        // One frame over all 16 points: the first frame's markers,
        // its end moved to the last.
        let first_end = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        let close = els[first_end].clone();
        let first_start = els.iter().position(|e| matches!(e, Element::FrameStart(_))).unwrap();
        let mut i = 0;
        els.retain(|e| {
            i += 1;
            !matches!(e, Element::FrameStart(_) | Element::FrameEnd(_)) || i - 1 == first_start
        });
        els.insert(els.len() - 1, close);
        for el in &mut els {
            match el {
                Element::SectorStart(si) => si.lattice = big,
                Element::FrameStart(fi) => fi.cells = CellBox::full(70_000, 70_000),
                _ => {}
            }
        }
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.disorder, 16);
        assert_eq!((stats.received_points, stats.partial_frames), (0, 1));
        assert_eq!(out.iter().filter(|e| e.is_point()).count(), 0);
        assert_eq!(out.len(), 4, "SectorStart, FrameStart, FrameEnd, SectorEnd");
    }

    /// Hands out prepared chunk items as they are.
    struct Handoff(StreamSchema, VecDeque<ChunkOrMarker<f32>>);

    impl GeoStream for Handoff {
        type V = f32;
        fn schema(&self) -> &StreamSchema {
            &self.0
        }
        fn next_chunk(&mut self, _budget: usize) -> Option<ChunkOrMarker<f32>> {
            self.1.pop_front()
        }
    }

    #[test]
    fn clean_runs_pass_through_in_the_buffer_they_arrived_in() {
        let mut src = VecStream::new(StreamSchema::new("x", Crs::LatLon), clean_elements(2));
        let items: VecDeque<_> = std::iter::from_fn(|| src.next_chunk(3)).collect();
        let buffers = |items: &VecDeque<ChunkOrMarker<f32>>| -> Vec<(usize, usize, bool)> {
            items
                .iter()
                .filter_map(|it| match it {
                    ChunkOrMarker::Chunk(c) => {
                        Some((c.points.as_ptr() as usize, c.points.len(), c.end.is_some()))
                    }
                    ChunkOrMarker::Marker(_) => None,
                })
                .collect()
        };
        let sent = buffers(&items);
        assert!(sent.len() >= 16, "rows of 4 at budget 3 split into two runs each");
        let mut r = StreamRepair::new(Handoff(src.schema().clone(), items));
        // The outputs are held until the end so no buffer is recycled
        // and handed out again while addresses are being compared.
        let out: VecDeque<_> = std::iter::from_fn(|| r.next_chunk(3)).collect();
        assert_eq!(buffers(&out), sent, "same allocations, same lengths, markers riding along");
        let flat: Vec<_> = {
            let mut v = Vec::new();
            out.into_iter().for_each(|it| it.into_elements(&mut |el| v.push(el)));
            v
        };
        assert_eq!(flat, clean_elements(2));
        assert!(r.repair_stats().is_clean());
    }

    #[test]
    fn a_thousand_clean_sectors_leave_retained_state_constant() {
        let mut r =
            StreamRepair::new(VecStream::<f32>::sectors("x", lattice(), 1000, |s, c, r| {
                f64::from(c + r) + s as f64
            }));
        let mut retained = Vec::new();
        while let Some(item) = r.next_chunk(64) {
            if let Some(Marker::SectorEnd(_)) = item.marker() {
                retained.push((r.seen_frames.len(), r.seen_cells.bits.len(), r.out.ready(1)));
            }
            item.recycle();
        }
        assert_eq!(retained.len(), 1000);
        // One sector's frame ids (the lattice has 4 rows), one row's bits.
        assert_eq!(retained[0], (4, 1, false));
        assert!(retained.iter().all(|s| *s == retained[0]), "state grew: {:?}", retained.last());
        assert!(r.repair_stats().is_clean());
        assert_eq!(r.probe().sectors().len(), 1000);
    }

    #[test]
    fn duplicate_frames_are_still_dropped_a_sector_later() {
        // The frame-id memory spans the open sector and the one before.
        let mut els = clean_elements(3);
        let start = els.iter().position(|e| matches!(e, Element::FrameStart(_))).unwrap();
        let end = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        let block = els[start..=end].to_vec();
        let second_sector = els
            .iter()
            .position(|e| matches!(e, Element::SectorStart(si) if si.sector_id == 1))
            .unwrap();
        els.splice(second_sector + 1..second_sector + 1, block);
        let (out, stats, _) = repair(els);
        assert_valid(&out);
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(out, clean_elements(3));
    }
}
