//! Load shedding.
//!
//! The paper's introduction lists load shedding among the adaptive DSMS
//! techniques its framework should carry over to image streams. For a
//! raster stream, dropping *random* points produces speckle; dropping
//! whole rows or a regular cell stride degrades gracefully (the image
//! loses resolution, not coherence). [`Shed`] implements both policies
//! deterministically — the engine can dial `keep_ratio` down when a
//! pipeline falls behind the downlink, and every dropped point is
//! counted.

use crate::model::{ChunkOrMarker, GeoStream, Marker, StreamSchema};
use crate::stats::{OpReport, OpStats};
use serde::{Deserialize, Serialize};

/// What a shedding operator drops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Keep every point of every k-th row-frame, drop other frames
    /// entirely (cheapest: whole frames skip the pipeline).
    Rows,
    /// Keep a regular subgrid of points (uniform resolution loss).
    Points,
}

/// The load-shedding operator.
pub struct Shed<S: GeoStream> {
    input: S,
    policy: ShedPolicy,
    /// Keep 1 of every `stride` rows/points.
    stride: u32,
    frame_counter: u64,
    keeping_frame: bool,
    /// Points dropped so far.
    pub dropped: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Shed<S> {
    /// Keeps `1/stride` of the stream (`stride = 1` keeps everything).
    pub fn new(input: S, policy: ShedPolicy, stride: u32) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        let schema = input.schema().renamed(format!("shed[{policy:?} 1/{stride}]"));
        Shed {
            input,
            policy,
            stride,
            frame_counter: 0,
            keeping_frame: true,
            dropped: 0,
            stats: OpStats::default(),
            schema,
        }
    }

    /// The effective keep ratio.
    pub fn keep_ratio(&self) -> f64 {
        1.0 / f64::from(self.stride)
    }

    /// Marker transition; returns the marker to forward, if any.
    fn chunk_marker(&mut self, m: Marker) -> Option<Marker> {
        match (m, self.policy) {
            (Marker::FrameStart(fi), ShedPolicy::Rows) => {
                self.stats.frames_in += 1;
                self.keeping_frame = self.frame_counter.is_multiple_of(u64::from(self.stride));
                self.frame_counter += 1;
                if self.keeping_frame {
                    self.stats.frames_out += 1;
                    Some(Marker::FrameStart(fi))
                } else {
                    self.stats.stalls += 1;
                    None
                }
            }
            (Marker::FrameEnd(fe), ShedPolicy::Rows) => {
                if self.keeping_frame {
                    Some(Marker::FrameEnd(fe))
                } else {
                    None
                }
            }
            (Marker::FrameStart(fi), ShedPolicy::Points) => {
                self.stats.frames_in += 1;
                self.stats.frames_out += 1;
                Some(Marker::FrameStart(fi))
            }
            (m, _) => Some(m),
        }
    }
}

impl<S: GeoStream> GeoStream for Shed<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        loop {
            match self.input.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    if let Some(out) = self.chunk_marker(m) {
                        return Some(ChunkOrMarker::Marker(out));
                    }
                }
                ChunkOrMarker::Chunk(mut c) => {
                    let n = c.points.len() as u64;
                    self.stats.points_in += n;
                    let end = c.end.take();
                    match self.policy {
                        ShedPolicy::Rows => {
                            // The whole run shares the frame's verdict.
                            if self.keeping_frame {
                                self.stats.points_out += n;
                            } else {
                                self.dropped += n;
                                c.points.clear();
                            }
                        }
                        ShedPolicy::Points => {
                            let stride = self.stride;
                            c.points
                                .retain(|p| p.cell.col % stride == 0 && p.cell.row % stride == 0);
                            let kept = c.points.len() as u64;
                            self.stats.points_out += kept;
                            self.dropped += n - kept;
                        }
                    }
                    let end_keep = end.and_then(|m| self.chunk_marker(m));
                    if let Some(item) = c.into_item(end_keep) {
                        return Some(item);
                    }
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Shedding drops *points* but always keeps markers (the PR 3 contract):
/// the bracketing skeleton and surviving-point order pass through
/// untouched, so the contract is a pure forwarder.
pub fn shed_contract() -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{Granularity, Parallelism};
    // The frame/point stride counters run across the whole stream, so a
    // per-morsel instance would restart the cadence: serial only.
    crate::ops::ProtocolContract::forwarding("shed")
        .with_parallelism(Parallelism::OrderSensitive, Granularity::Sector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn source(w: u32, h: u32) -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), w, h);
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + 100 * r))
    }

    #[test]
    fn stride_one_keeps_everything() {
        let mut op = Shed::new(source(8, 8), ShedPolicy::Points, 1);
        assert_eq!(op.drain_points().len(), 64);
        assert_eq!(op.dropped, 0);
    }

    #[test]
    fn row_shedding_keeps_every_kth_row() {
        let mut op = Shed::new(source(8, 8), ShedPolicy::Rows, 2);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 32);
        assert!(pts.iter().all(|p| p.cell.row % 2 == 0));
        assert_eq!(op.dropped, 32);
    }

    #[test]
    fn point_shedding_keeps_subgrid() {
        let mut op = Shed::new(source(8, 8), ShedPolicy::Points, 4);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 4); // cols {0,4} x rows {0,4}
        assert!(pts.iter().all(|p| p.cell.col % 4 == 0 && p.cell.row % 4 == 0));
        assert_eq!(op.dropped, 60);
    }

    #[test]
    fn row_shedding_emits_no_empty_frames() {
        let mut op = Shed::new(source(4, 6), ShedPolicy::Rows, 3);
        let els = op.drain_elements();
        let starts = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert_eq!(starts, 2); // rows 0 and 3
        assert_eq!(starts, ends);
    }

    #[test]
    fn shedding_never_buffers() {
        let mut op = Shed::new(source(32, 32), ShedPolicy::Rows, 4);
        let _ = op.drain_points();
        assert_eq!(op.op_stats().buffered_points_peak, 0);
    }

    #[test]
    fn keep_ratio_matches_stride() {
        for stride in [1u32, 2, 3, 7, 16] {
            let op = Shed::new(source(4, 4), ShedPolicy::Points, stride);
            assert!((op.keep_ratio() - 1.0 / f64::from(stride)).abs() < 1e-12);
        }
    }

    #[test]
    fn keep_ratio_holds_under_bursty_input() {
        // Frames arriving in uneven bursts (many short rows, then long
        // ones) must still converge on the declared keep ratio.
        use crate::model::{FrameEnd, FrameInfo, SectorInfo, StreamSchema};
        use crate::model::{Organization, Timestamp};
        use geostreams_geo::{Cell, CellBox};
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 64, 32);
        let mut els: Vec<Element<f32>> = vec![Element::SectorStart(SectorInfo {
            sector_id: 0,
            lattice,
            band: 0,
            organization: Organization::RowByRow,
            timestamp: Timestamp::new(0),
        })];
        // Bursts: rows of width 1, 64, 2, 64, 3, ... (id = row).
        let widths = [1u32, 64, 2, 64, 3, 64, 4, 64, 5, 64];
        for (row, w) in widths.iter().enumerate() {
            let row = row as u32;
            els.push(Element::FrameStart(FrameInfo {
                frame_id: u64::from(row),
                sector_id: 0,
                timestamp: Timestamp::new(0),
                cells: CellBox::new(0, row, w - 1, row),
                synth_ns: 0,
            }));
            for col in 0..*w {
                els.push(Element::point(Cell::new(col, row), 1.0f32));
            }
            els.push(Element::FrameEnd(FrameEnd { frame_id: u64::from(row), sector_id: 0 }));
        }
        els.push(Element::SectorEnd(crate::model::SectorEnd { sector_id: 0 }));
        let total: u64 = widths.iter().map(|w| u64::from(*w)).sum();

        // Rows policy: exactly every stride-th frame survives, whatever
        // its burst size.
        let src = VecStream::new(StreamSchema::new("bursty", Crs::LatLon), els.clone());
        let mut op = Shed::new(src, ShedPolicy::Rows, 2);
        let pts = op.drain_points();
        let kept_rows: u64 = widths.iter().step_by(2).map(|w| u64::from(*w)).sum();
        assert_eq!(pts.len() as u64, kept_rows);
        assert_eq!(op.dropped, total - kept_rows);
        assert!((op.keep_ratio() - 0.5).abs() < 1e-12);

        // Points policy: the kept fraction tracks 1/stride² on the
        // subgrid (cols and rows both strided), independent of burst
        // shape.
        let src = VecStream::new(StreamSchema::new("bursty", Crs::LatLon), els);
        let mut op = Shed::new(src, ShedPolicy::Points, 4);
        let pts = op.drain_points();
        assert!(pts.iter().all(|p| p.cell.col % 4 == 0 && p.cell.row % 4 == 0));
        assert_eq!(pts.len() as u64 + op.dropped, total, "every point accounted for");
    }

    #[test]
    fn shed_then_downsample_degrades_gracefully() {
        // A classic shed-then-aggregate pipeline still yields an image.
        use crate::ops::Downsample;
        let shed = Shed::new(source(16, 16), ShedPolicy::Points, 2);
        let mut down = Downsample::new(shed, 2);
        let pts = down.drain_points();
        assert_eq!(pts.len(), 64, "one surviving point per 2x2 block");
    }
}
