//! Splitting a multiplexed transmission into per-band GeoStreams.
//!
//! A satellite downlink is physically **one** stream: the instrument
//! interleaves the spectral bands according to its scan organization —
//! band-sequential for image-by-image instruments, line-interleaved for
//! row-by-row scanners (Fig. 1 / §3.3 of the paper). The algebra, on the
//! other hand, models each band as its own GeoStream (Definition 5).
//!
//! [`split2`] bridges the two: it turns an interleaved element sequence
//! into two pullable per-band streams. When one side is pulled and the
//! transport's next elements belong to the *other* band, those elements
//! are queued on the other side — this queue is precisely the buffering
//! that §3.3 attributes to the organization of the image data: "If the
//! data is transmitted on an image-by-image basis, the operator has to
//! buffer a complete image whereas for a row-by-row organization, it only
//! has to buffer a single row." Experiment E3 measures these queues (plus
//! the composition operator's own match buffer).

use super::chunk::{pack_elements, ChunkInput, ChunkOrMarker};
use super::element::Element;
use super::schema::StreamSchema;
use super::stream::GeoStream;
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_raster::Pixel;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Queues `el` for a side and reports what its queue holds: the points,
/// counted in `buffered_points` as they come and go, and the bytes the
/// queue has allocated.
fn enqueue<V>(queue: &mut VecDeque<Element<V>>, stats: &mut OpStats, el: Element<V>) {
    let points = stats.buffered_points + u64::from(el.is_point());
    queue.push_back(el);
    stats.hold(points, bytes_of::<Element<V>>(queue.capacity()));
}

/// The oldest element queued for a side, reported as [`enqueue`] does.
fn dequeue<V>(queue: &mut VecDeque<Element<V>>, stats: &mut OpStats) -> Option<Element<V>> {
    let el = queue.pop_front()?;
    let points = stats.buffered_points - u64::from(el.is_point());
    stats.hold(points, bytes_of::<Element<V>>(queue.capacity()));
    Some(el)
}

/// Shared state between the two sides of a split.
struct SplitState<V> {
    /// The interleaved transport: `(side, element)` in transmission order.
    transport: Box<dyn Iterator<Item = (u8, Element<V>)> + Send>,
    /// Pending queues per side.
    queues: [VecDeque<Element<V>>; 2],
    /// Buffer accounting per side (points queued for a side while the
    /// other side is being pulled).
    stats: [OpStats; 2],
}

impl<V: Pixel> SplitState<V> {
    /// Pulls the next element for `side`, draining the transport into the
    /// other side's queue as needed.
    fn pull(&mut self, side: u8) -> Option<Element<V>> {
        let si = side as usize;
        if let Some(el) = dequeue(&mut self.queues[si], &mut self.stats[si]) {
            return Some(el);
        }
        loop {
            let (owner, el) = self.transport.next()?;
            let oi = owner as usize & 1;
            if oi == si {
                return Some(el);
            }
            enqueue(&mut self.queues[oi], &mut self.stats[oi], el);
        }
    }
}

/// One side of a split transport.
pub struct SideStream<V> {
    state: Arc<Mutex<SplitState<V>>>,
    side: u8,
    schema: StreamSchema,
}

impl<V: Pixel> GeoStream for SideStream<V> {
    type V = V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<V>> {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        pack_elements(budget, || state.pull(self.side))
    }

    fn op_stats(&self) -> OpStats {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats
            [self.side as usize]
            .clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        out.push(OpReport::new(format!("{}[split]", self.schema.name), self.op_stats()));
    }
}

/// Splits an interleaved `(side, element)` sequence into two per-band
/// streams with the transmission-coupled buffering semantics described in
/// the module docs.
pub fn split2<V: Pixel>(
    transport: impl Iterator<Item = (u8, Element<V>)> + Send + 'static,
    schema0: StreamSchema,
    schema1: StreamSchema,
) -> (SideStream<V>, SideStream<V>) {
    let state = Arc::new(Mutex::new(SplitState {
        transport: Box::new(transport),
        queues: [VecDeque::new(), VecDeque::new()],
        stats: [OpStats::default(), OpStats::default()],
    }));
    (
        SideStream { state: Arc::clone(&state), side: 0, schema: schema0 },
        SideStream { state, side: 1, schema: schema1 },
    )
}

/// Shared state of a [`tee2`] duplication.
struct TeeState<S: GeoStream> {
    input: ChunkInput<S>,
    queues: [VecDeque<Element<S::V>>; 2],
    stats: [OpStats; 2],
    done: bool,
}

/// One consumer of a teed stream.
pub struct TeeStream<S: GeoStream> {
    state: Arc<Mutex<TeeState<S>>>,
    side: u8,
    schema: StreamSchema,
}

impl<S: GeoStream> TeeStream<S> {
    /// The next output element; `next_chunk` packs these into runs.
    fn step(&mut self) -> Option<Element<S::V>> {
        let mut guard = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let st = &mut *guard;
        let si = self.side as usize;
        if let Some(el) = dequeue(&mut st.queues[si], &mut st.stats[si]) {
            return Some(el);
        }
        if st.done {
            return None;
        }
        match st.input.pull() {
            Some(el) => {
                let oi = 1 - si;
                enqueue(&mut st.queues[oi], &mut st.stats[oi], el.clone());
                Some(el)
            }
            None => {
                st.done = true;
                None
            }
        }
    }
}

impl<S: GeoStream> GeoStream for TeeStream<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        pack_elements(budget, || self.step())
    }

    fn op_stats(&self) -> OpStats {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats
            [self.side as usize]
            .clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        // Report the upstream pipeline once (from side 0) plus this side's
        // tee queue.
        if self.side == 0 {
            self.state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .input
                .stream()
                .collect_stats(out);
        }
        out.push(OpReport::new(format!("{}[tee{}]", self.schema.name, self.side), self.op_stats()));
    }
}

/// Duplicates one stream into two independent consumers. The slower
/// consumer's pending elements are queued (and accounted) — this is how a
/// query DAG can reference the same stream twice, e.g. the paper's §3.4
/// NDVI expression `(G₁ − G₂) ⊘ (G₂ + G₁)` which reads each band twice.
pub fn tee2<S: GeoStream>(input: S) -> (TeeStream<S>, TeeStream<S>) {
    let schema0 = input.schema().clone();
    let schema1 = schema0.clone();
    let state = Arc::new(Mutex::new(TeeState {
        input: ChunkInput::new(input),
        queues: [VecDeque::new(), VecDeque::new()],
        stats: [OpStats::default(), OpStats::default()],
        done: false,
    }));
    (
        TeeStream { state: Arc::clone(&state), side: 0, schema: schema0 },
        TeeStream { state, side: 1, schema: schema1 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn elements(n: u32) -> Vec<Element<f32>> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), n, 1);
        let mut s: VecStream<f32> = VecStream::single_sector("x", lattice, 0, |c, _| f64::from(c));
        s.drain_elements()
    }

    #[test]
    fn round_robin_interleaving_needs_no_queueing() {
        let a = elements(8);
        let b = elements(8);
        let transport: Vec<(u8, Element<f32>)> =
            a.into_iter().zip(b).flat_map(|(x, y)| [(0u8, x), (1u8, y)]).collect();
        let (mut s0, mut s1) = split2(
            transport.into_iter(),
            StreamSchema::new("band0", Crs::LatLon),
            StreamSchema::new("band1", Crs::LatLon),
        );
        // Alternate pulls: queues stay at ≤1 point.
        loop {
            let e0 = s0.next_element();
            let e1 = s1.next_element();
            if e0.is_none() && e1.is_none() {
                break;
            }
        }
        assert!(s0.op_stats().buffered_points_peak <= 1);
        assert!(s1.op_stats().buffered_points_peak <= 1);
    }

    #[test]
    fn band_sequential_transmission_queues_whole_image() {
        let a = elements(16);
        let b = elements(16);
        let n_points = 16;
        // All of band 0, then all of band 1 (image-by-image downlink).
        let transport: Vec<(u8, Element<f32>)> =
            a.into_iter().map(|e| (0u8, e)).chain(b.into_iter().map(|e| (1u8, e))).collect();
        let (mut s0, mut s1) = split2(
            transport.into_iter(),
            StreamSchema::new("band0", Crs::LatLon),
            StreamSchema::new("band1", Crs::LatLon),
        );
        // Pull band 1 first: the entire band-0 image must queue.
        let first = s1.next_element();
        assert!(first.is_some());
        assert_eq!(s0.op_stats().buffered_points, n_points);
        // Draining band 0 releases the queue.
        while s0.next_element().is_some() {}
        assert_eq!(s0.op_stats().buffered_points, 0);
        assert_eq!(s0.op_stats().buffered_points_peak, n_points);
        while s1.next_element().is_some() {}
    }

    #[test]
    fn tee_duplicates_every_element() {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 2);
        let src: VecStream<f32> =
            VecStream::single_sector("x", lattice, 0, |c, r| f64::from(c + 10 * r));
        let (mut a, mut b) = tee2(src);
        let ea = a.drain_elements();
        let eb = b.drain_elements();
        assert_eq!(ea, eb);
        assert_eq!(ea.iter().filter(|e| e.is_point()).count(), 8);
        // Side A consumed everything first, so side B's queue peaked at
        // the full point count.
        assert_eq!(b.op_stats().buffered_points_peak, 8);
    }

    #[test]
    fn tee_alternating_consumers_stay_small() {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 8, 8);
        let src: VecStream<f32> = VecStream::single_sector("x", lattice, 0, |c, _| f64::from(c));
        let (mut a, mut b) = tee2(src);
        loop {
            let ea = a.next_element();
            let eb = b.next_element();
            if ea.is_none() && eb.is_none() {
                break;
            }
        }
        assert!(a.op_stats().buffered_points_peak <= 1);
        assert!(b.op_stats().buffered_points_peak <= 1);
    }

    #[test]
    fn each_side_sees_only_its_elements() {
        let a = elements(4);
        let b_el = elements(4);
        let transport: Vec<(u8, Element<f32>)> = a
            .iter()
            .cloned()
            .map(|e| (0u8, e))
            .chain(b_el.iter().cloned().map(|e| (1u8, e)))
            .collect();
        let (mut s0, mut s1) = split2(
            transport.into_iter(),
            StreamSchema::new("band0", Crs::LatLon),
            StreamSchema::new("band1", Crs::LatLon),
        );
        let got0 = s0.drain_elements();
        let got1 = s1.drain_elements();
        assert_eq!(got0, a);
        assert_eq!(got1, b_el);
    }
}
