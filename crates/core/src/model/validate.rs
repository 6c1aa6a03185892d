//! Element-protocol validation and failure injection.
//!
//! A GeoStream's element sequence obeys invariants that downstream
//! operators rely on (frames nest in sectors, points fall inside the
//! current frame's cell box and the sector lattice, identifiers do not
//! repeat). [`Validator`] is a transparent adapter that checks them at
//! runtime — used in tests, at ingest boundaries of the DSMS, and as a
//! debugging aid — recording violations without disturbing the stream.

use super::chunk::{pack_elements, ChunkInput, ChunkOrMarker};
use super::element::Element;
use super::stream::GeoStream;
use crate::model::StreamSchema;
use crate::stats::{OpReport, OpStats};
use geostreams_geo::CellBox;
use std::collections::HashSet;

/// A protocol violation found by the [`Validator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `FrameStart` while another frame is open, or outside a sector.
    FrameOutsideSector,
    /// Nested frame without closing the previous one.
    OverlappingFrames,
    /// `FrameEnd`/`SectorEnd` without a matching start.
    UnmatchedEnd,
    /// A point outside any open frame.
    PointOutsideFrame,
    /// A point cell outside the frame's declared cell box.
    PointOutsideFrameBox,
    /// A point cell outside the sector lattice.
    PointOutsideLattice,
    /// A sector id seen before.
    DuplicateSectorId,
    /// A frame id seen before.
    DuplicateFrameId,
    /// Frame timestamp disagrees with sector timestamp under sector-id
    /// semantics.
    TimestampMismatch,
    /// Stream ended with an open frame or sector.
    TruncatedStream,
}

/// Transparent protocol checker.
pub struct Validator<S: GeoStream> {
    input: ChunkInput<S>,
    /// Violations recorded so far, with the element ordinal they
    /// occurred at.
    pub violations: Vec<(u64, Violation)>,
    position: u64,
    sector: Option<(u64, CellBox, i64)>,
    frame: Option<CellBox>,
    seen_sectors: HashSet<u64>,
    seen_frames: HashSet<u64>,
    ended: bool,
}

impl<S: GeoStream> Validator<S> {
    /// Wraps a stream.
    pub fn new(input: S) -> Self {
        Validator {
            input: ChunkInput::new(input),
            violations: Vec::new(),
            position: 0,
            sector: None,
            frame: None,
            seen_sectors: HashSet::new(),
            seen_frames: HashSet::new(),
            ended: false,
        }
    }

    /// True when no violations were recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn record(&mut self, v: Violation) {
        self.violations.push((self.position, v));
    }

    /// The next output element; `next_chunk` packs these into runs.
    fn step(&mut self) -> Option<Element<S::V>> {
        let el = match self.input.pull() {
            Some(el) => el,
            None => {
                if !self.ended {
                    self.ended = true;
                    if self.frame.is_some() || self.sector.is_some() {
                        self.record(Violation::TruncatedStream);
                    }
                }
                return None;
            }
        };
        self.position += 1;
        match &el {
            Element::SectorStart(si) => {
                if self.sector.is_some() {
                    self.record(Violation::UnmatchedEnd);
                }
                if !self.seen_sectors.insert(si.sector_id) {
                    self.record(Violation::DuplicateSectorId);
                }
                self.sector = Some((
                    si.sector_id,
                    CellBox::full(si.lattice.width, si.lattice.height),
                    si.timestamp.value(),
                ));
                self.frame = None;
            }
            Element::FrameStart(fi) => {
                match &self.sector {
                    None => self.record(Violation::FrameOutsideSector),
                    Some((_, _, sector_ts)) => {
                        if self.schema().time_semantics == crate::model::TimeSemantics::SectorId
                            && fi.timestamp.value() != *sector_ts
                        {
                            self.record(Violation::TimestampMismatch);
                        }
                    }
                }
                if self.frame.is_some() {
                    self.record(Violation::OverlappingFrames);
                }
                if !self.seen_frames.insert(fi.frame_id) {
                    self.record(Violation::DuplicateFrameId);
                }
                self.frame = Some(fi.cells);
            }
            Element::Point(p) => {
                let frame_box = self.frame;
                let lattice_box = self.sector.map(|(_, b, _)| b);
                match frame_box {
                    None => self.record(Violation::PointOutsideFrame),
                    Some(frame_box) => {
                        if !frame_box.contains(p.cell) {
                            self.record(Violation::PointOutsideFrameBox);
                        }
                        if let Some(lattice_box) = lattice_box {
                            if !lattice_box.contains(p.cell) {
                                self.record(Violation::PointOutsideLattice);
                            }
                        }
                    }
                }
            }
            Element::FrameEnd(_) => {
                if self.frame.take().is_none() {
                    self.record(Violation::UnmatchedEnd);
                }
            }
            Element::SectorEnd(_) => {
                if self.frame.is_some() {
                    self.record(Violation::TruncatedStream);
                    self.frame = None;
                }
                if self.sector.take().is_none() {
                    self.record(Violation::UnmatchedEnd);
                }
            }
        }
        Some(el)
    }
}

impl<S: GeoStream> GeoStream for Validator<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        self.input.stream().schema()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        pack_elements(budget, || self.step())
    }

    fn op_stats(&self) -> OpStats {
        self.input.stream().op_stats()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.stream().collect_stats(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, FrameEnd, SectorEnd, StreamSchema, Timestamp, VecStream};
    use geostreams_geo::{Cell, Crs, LatticeGeoref, Rect};

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    fn clean_elements() -> Vec<Element<f32>> {
        let mut s: VecStream<f32> =
            VecStream::single_sector("x", lattice(), 0, |c, r| f64::from(c + r));
        s.drain_elements()
    }

    fn validate(els: Vec<Element<f32>>) -> Vec<Violation> {
        let mut v = Validator::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), els));
        while v.next_element().is_some() {}
        let _ = v.next_element(); // trigger end-of-stream checks
        v.violations.into_iter().map(|(_, x)| x).collect()
    }

    #[test]
    fn well_formed_streams_are_clean() {
        assert!(validate(clean_elements()).is_empty());
    }

    #[test]
    fn all_generated_streams_are_clean() {
        // Every operator and source in the crate must satisfy the
        // protocol; spot-check a deep pipeline.
        use crate::ops::{Downsample, FocalFunc, FocalTransform, Magnify, SpatialRestrict};
        use geostreams_geo::Region;
        let src: VecStream<f32> =
            VecStream::sectors("x", lattice(), 3, |s, c, r| f64::from(c + r) + s as f64);
        let op = SpatialRestrict::new(src, Region::Rect(Rect::new(0.5, 0.5, 3.5, 3.5)));
        let op = Magnify::new(op, 2);
        let op = FocalTransform::new(op, FocalFunc::Mean, 3);
        let op = Downsample::new(op, 2);
        let mut v = Validator::new(op);
        while v.next_element().is_some() {}
        let _ = v.next_element();
        assert!(v.is_clean(), "{:?}", v.violations);
    }

    #[test]
    fn detects_point_outside_frame() {
        let mut els = clean_elements();
        // Move a point before the first FrameStart.
        let p = Element::point(Cell::new(0, 0), 1.0f32);
        els.insert(1, p);
        let vs = validate(els);
        assert!(vs.contains(&Violation::PointOutsideFrame), "{vs:?}");
    }

    #[test]
    fn detects_out_of_box_point() {
        let mut els = clean_elements();
        // Inject a point with a cell outside the lattice into a frame.
        let idx = els.iter().position(|e| matches!(e, Element::FrameStart(_))).unwrap();
        els.insert(idx + 1, Element::point(Cell::new(99, 99), 1.0f32));
        let vs = validate(els);
        assert!(vs.contains(&Violation::PointOutsideFrameBox));
        assert!(vs.contains(&Violation::PointOutsideLattice));
    }

    #[test]
    fn detects_unmatched_ends() {
        let els: Vec<Element<f32>> = vec![
            Element::FrameEnd(FrameEnd { frame_id: 0, sector_id: 0 }),
            Element::SectorEnd(SectorEnd { sector_id: 0 }),
        ];
        let vs = validate(els);
        assert_eq!(vs.iter().filter(|v| **v == Violation::UnmatchedEnd).count(), 2, "{vs:?}");
    }

    #[test]
    fn detects_truncation() {
        let mut els = clean_elements();
        els.truncate(els.len() - 2); // drop last FrameEnd + SectorEnd
        let vs = validate(els);
        assert!(vs.contains(&Violation::TruncatedStream), "{vs:?}");
    }

    #[test]
    fn detects_duplicate_ids() {
        let mut els = clean_elements();
        let dup = els.clone();
        els.extend(dup); // replay the same sector id / frame ids
        let vs = validate(els);
        assert!(vs.contains(&Violation::DuplicateSectorId));
        assert!(vs.contains(&Violation::DuplicateFrameId));
    }

    #[test]
    fn detects_timestamp_mismatch() {
        let mut els = clean_elements();
        for el in &mut els {
            if let Element::FrameStart(fi) = el {
                fi.timestamp = Timestamp::new(999);
                break;
            }
        }
        let vs = validate(els);
        assert!(vs.contains(&Violation::TimestampMismatch));
    }

    #[test]
    fn validator_is_transparent() {
        let base = clean_elements();
        let mut v =
            Validator::new(VecStream::new(StreamSchema::new("x", Crs::LatLon), base.clone()));
        assert_eq!(v.drain_elements(), base);
    }
}
