//! Temporal shift: replaying the previous image(s) under the current
//! timestamp.
//!
//! The composition operator (§3.3) joins points on `(space, timestamp)`,
//! which makes *cross-band* products expressible — but change detection
//! needs to join a stream with **its own past**. [`Delay`] closes that
//! gap inside the algebra: it buffers `d` images and re-emits the image
//! from `d` sectors ago stamped with the *current* sector's timestamp,
//! so `(G − delay(G, 1))` is the per-cell difference between consecutive
//! scans. Buffering is exactly `d + 1` images (the paper's space-cost
//! style of analysis applies: the state is images, not the stream).

use crate::model::chunk::RunQueue;
use crate::model::sector::{SectorImage, SectorOut};
use crate::model::{
    ChunkOrMarker, GeoStream, Marker, SectorInfo, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{OpReport, OpStats};
use std::collections::VecDeque;

/// The delay operator `delay(G, d)`. Input runs are written into the
/// open sector's image; at `SectorEnd` the image from `d` sectors ago
/// goes out, a pull budget of cells at a time, before the next input is
/// read.
pub struct Delay<S: GeoStream> {
    input: S,
    d: usize,
    /// Delay line: front = oldest.
    line: VecDeque<SectorImage<S::V>>,
    current: Option<SectorImage<S::V>>,
    pending_sector: Option<SectorInfo>,
    /// The delayed image going out.
    replay: Option<(SectorOut, SectorImage<S::V>)>,
    queue: RunQueue<S::V>,
    next_frame_id: u64,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Delay<S> {
    /// Creates a delay of `d ≥ 1` sectors.
    pub fn new(input: S, d: u32) -> Self {
        assert!(d >= 1, "delay must be at least one sector");
        let schema = input.schema().renamed(format!("delay[{d}]"));
        Delay {
            input,
            d: d as usize,
            line: VecDeque::new(),
            current: None,
            pending_sector: None,
            replay: None,
            queue: RunQueue::default(),
            next_frame_id: 0,
            stats: OpStats::default(),
            schema,
        }
    }

    /// The current timestamp shift in sectors.
    pub fn delay_sectors(&self) -> usize {
        self.d
    }

    /// Reports the cells of the line and the image going out, and the
    /// bytes of every image held.
    fn hold(&mut self) {
        let held = || self.line.iter().chain(self.replay.as_ref().map(|(_, image)| image));
        let bytes = held().chain(&self.current).map(SectorImage::bytes).sum();
        self.stats.hold(held().map(SectorImage::cells).sum(), bytes);
    }

    /// Takes one input item: its points into the open image, then its
    /// marker.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        let marker = item.take_run(|run| {
            self.stats.points_in += run.len() as u64;
            if let Some(cur) = &mut self.current {
                cur.ingest(run, |v| v);
            }
        });
        match marker {
            Some(Marker::SectorStart(si)) => {
                self.current = Some(SectorImage::new(si.lattice));
                self.pending_sector = Some(si);
            }
            Some(Marker::FrameStart(_) | Marker::FrameEnd(_)) => self.stats.stalls += 1,
            None => return,
            Some(Marker::SectorEnd(_)) => {
                let Some(si) = self.pending_sector.take() else { return };
                self.line.extend(self.current.take());
                // Once the line holds more than `d` images, the front
                // one is exactly d sectors old: it is replayed under the
                // current sector's identity and timestamp, so it joins
                // against the live stream, on its own (old) lattice.
                if self.line.len() > self.d {
                    if let Some(old) = self.line.pop_front() {
                        let frame_id = self.next_frame_id;
                        self.next_frame_id += 1;
                        self.stats.frames_out += 1;
                        let out = SectorOut::open(&mut self.queue, &si, old.lattice(), frame_id);
                        self.replay = Some((out, old));
                    }
                }
            }
        }
        self.hold();
    }
}

impl<S: GeoStream> GeoStream for Delay<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            if let Some((out, image)) = &mut self.replay {
                let stats = &mut self.stats;
                let done = out.fill(&mut self.queue, budget, |idx| {
                    let value = image.get(idx);
                    stats.points_out += u64::from(value.is_some());
                    value
                });
                if done {
                    self.replay = None;
                    self.hold();
                }
                continue;
            }
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            self.ingest_item(item);
        }
        self.queue.pop(budget)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// A delay line replays whole buffered frames: it needs bracketed input
/// (frames are captured between `FrameStart`/`FrameEnd`) and re-emits
/// its own marker sequence; order within a captured frame is kept as
/// received, so it has no order requirement of its own.
pub fn delay_contract() -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{ChunkDiscipline, MarkerEffect, OrderEffect, ProtocolContract};
    ProtocolContract {
        operator: "delay".to_string(),
        markers: MarkerEffect::Resynthesize,
        order: OrderEffect::Preserve,
        chunks: ChunkDiscipline::Repack,
        requires_bracketing: true,
        requires_order: false,
        // The d-sector shift spans morsel boundaries by definition.
        parallelism: crate::ops::protocol::Parallelism::OrderSensitive,
        granularity: crate::ops::protocol::Granularity::Sector,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{tee2, Element, VecStream};
    use crate::ops::{Compose, GammaOp};
    use geostreams_geo::{Cell, Crs, LatticeGeoref, Rect};

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4)
    }

    fn sectors(n: u64) -> VecStream<f32> {
        // Sector s: value = cell index + 10·s.
        VecStream::sectors("src", lattice(), n, |s, c, r| f64::from(c + 4 * r) + 10.0 * s as f64)
    }

    #[test]
    fn delay_one_replays_previous_sector_under_new_timestamp() {
        let mut op = Delay::new(sectors(3), 1);
        let els = op.drain_elements();
        // Sectors 1 and 2 produce delayed output (0 has no predecessor).
        let starts: Vec<u64> = els
            .iter()
            .filter_map(|e| match e {
                Element::SectorStart(si) => Some(si.sector_id),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![1, 2]);
        // The first delayed image carries sector 0's values.
        let first_point = els.iter().find_map(|e| match e {
            Element::Point(p) if p.cell == Cell::new(0, 0) => Some(p.value),
            _ => None,
        });
        assert_eq!(first_point, Some(0.0));
    }

    #[test]
    fn change_detection_composes_stream_with_its_past() {
        // (G − delay(G,1)) = +10 at every cell for our synthetic sectors.
        let (live, to_delay) = tee2(sectors(4));
        let delayed = Delay::new(to_delay, 1);
        let mut diff = Compose::new(live, delayed, GammaOp::Sub).unwrap();
        let pts = diff.drain_points();
        // Sectors 1..3 join (sector 0 has no past): 3 × 16 points.
        assert_eq!(pts.len(), 3 * 16);
        assert!(pts.iter().all(|p| (p.value - 10.0).abs() < 1e-6), "constant change rate");
    }

    #[test]
    fn deeper_delays_shift_further() {
        let (live, to_delay) = tee2(sectors(5));
        let delayed = Delay::new(to_delay, 2);
        let mut diff = Compose::new(live, delayed, GammaOp::Sub).unwrap();
        let pts = diff.drain_points();
        assert_eq!(pts.len(), 3 * 16); // sectors 2..4
        assert!(pts.iter().all(|p| (p.value - 20.0).abs() < 1e-6));
    }

    #[test]
    fn buffer_is_d_plus_one_images() {
        for d in [1u32, 3] {
            let mut op = Delay::new(sectors(8), d);
            let _ = op.drain_points();
            assert_eq!(op.op_stats().buffered_points_peak, u64::from(d + 1) * 16, "delay {d}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_delay_rejected() {
        let _ = Delay::new(sectors(1), 0);
    }
}
