//! Seeded input generation shared by the workloads.
//!
//! The seed drives the `EarthModel`, the region rectangles and the
//! request order; the system under test only ever sees the generated
//! inputs. Region *sizes* are fixed in lattice cells and only their
//! positions are drawn, so every seed asks for the same amount of work.

use geostreams_core::model::{
    Chunk, ChunkOrMarker, Element, GeoStream, Marker, PointRecord, StreamSchema,
    DEFAULT_CHUNK_BUDGET,
};
use geostreams_geo::{Cell, CellBox, LatticeGeoref, Rect};
use std::collections::VecDeque;
use std::sync::Arc;

/// SplitMix64: small, seedable, and the generator the system's own
/// fault plans use.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// FNV-1a over little-endian words; the digest every output check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> Fnv {
        let mut fnv = Fnv::default();
        fnv.bytes(bytes);
        fnv
    }

    /// Cell and value of a delivered point.
    pub fn point(&mut self, p: &PointRecord<f32>) {
        self.u32(p.cell.col);
        self.u32(p.cell.row);
        self.u32(p.value.to_bits());
    }

    /// Every point of a delivered item.
    pub fn item(&mut self, item: &ChunkOrMarker<f32>) {
        if let ChunkOrMarker::Chunk(c) = item {
            c.points.iter().for_each(|p| self.point(p));
        }
    }

    /// The point of a delivered scalar element, if it is one.
    pub fn element(&mut self, el: &Element<f32>) {
        if let Element::Point(p) = el {
            self.point(p);
        }
    }
}

/// A world rectangle that contains exactly the centres of `cells`: from
/// the first to the last centre, widened by a quarter step.
pub fn rect_of_cells(lattice: &LatticeGeoref, cells: CellBox) -> Rect {
    let a = lattice.cell_to_world(Cell::new(cells.col_min, cells.row_min));
    let b = lattice.cell_to_world(Cell::new(cells.col_max, cells.row_max));
    let (mx, my) = (lattice.step_x.abs() / 4.0, lattice.step_y.abs() / 4.0);
    Rect::new(a.x.min(b.x) - mx, a.y.min(b.y) - my, a.x.max(b.x) + mx, a.y.max(b.y) + my)
}

/// A `w × h`-cell box whose corner is drawn inside `jitter`, a fraction
/// of the room left in the lattice, around the centred position. Two
/// such boxes of half the lattice drawn with `jitter <= 0.5` overlap by
/// at least a quarter of their area.
pub fn seeded_cells(
    rng: &mut Rng,
    lattice: &LatticeGeoref,
    w: u32,
    h: u32,
    jitter: f64,
) -> CellBox {
    let place = |rng: &mut Rng, size: u32, extent: u32| {
        let room = extent - size;
        let span = (f64::from(room) * jitter) as u32;
        let lo = (room - span) / 2;
        rng.range(lo, lo + span)
    };
    let col = place(rng, w, lattice.width);
    let row = place(rng, h, lattice.height);
    CellBox::new(col, row, col + w - 1, row + h - 1)
}

pub fn bbox_text(rect: &Rect) -> String {
    format!("bbox({}, {}, {}, {})", rect.x_min, rect.y_min, rect.x_max, rect.y_max)
}

/// A stream drained into memory as chunked items, replayable any number
/// of times without touching the scanner again.
#[derive(Clone)]
pub struct Materialized {
    pub schema: StreamSchema,
    pub items: Arc<Vec<ChunkOrMarker<f32>>>,
    pub points: u64,
}

pub fn materialize<S: GeoStream<V = f32>>(mut stream: S) -> Materialized {
    let schema = stream.schema().clone();
    let mut items = Vec::new();
    let mut points = 0u64;
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        points += item.point_count() as u64;
        items.push(item);
    }
    Materialized { schema, items: Arc::new(items), points }
}

impl Materialized {
    pub fn source(&self) -> MemSource {
        MemSource {
            schema: self.schema.clone(),
            items: Arc::clone(&self.items),
            next: 0,
            offset: 0,
            queue: VecDeque::new(),
        }
    }

    /// Every point, in stream order.
    pub fn points(&self) -> impl Iterator<Item = &PointRecord<f32>> {
        self.items
            .iter()
            .filter_map(|item| match item {
                ChunkOrMarker::Chunk(c) => Some(c.points.iter()),
                ChunkOrMarker::Marker(_) => None,
            })
            .flatten()
    }
}

/// The in-memory source: hands out copies of the materialized items,
/// point buffers taken from the system's chunk pool, so a pull costs one
/// copy of the run and nothing else.
pub struct MemSource {
    schema: StreamSchema,
    items: Arc<Vec<ChunkOrMarker<f32>>>,
    next: usize,
    /// Points of `items[next]` already handed out (budget < run length).
    offset: usize,
    queue: VecDeque<Element<f32>>,
}

impl GeoStream for MemSource {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_element(&mut self) -> Option<Element<f32>> {
        if self.queue.is_empty() {
            self.next_chunk(DEFAULT_CHUNK_BUDGET)?
                .into_elements(&mut |el| self.queue.push_back(el));
        }
        self.queue.pop_front()
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        if let Some(el) = self.queue.pop_front() {
            // Mixed pulls: finish the flattened item one element at a time.
            return Some(match Marker::from_element(el) {
                Ok(m) => ChunkOrMarker::Marker(m),
                Err(p) => {
                    let mut c = Chunk::with_budget(1);
                    c.points.push(p);
                    ChunkOrMarker::Chunk(c)
                }
            });
        }
        match self.items.get(self.next)? {
            ChunkOrMarker::Marker(m) => {
                self.next += 1;
                Some(ChunkOrMarker::Marker(m.clone()))
            }
            ChunkOrMarker::Chunk(src) => {
                let budget = budget.max(1);
                let end = (self.offset + budget).min(src.points.len());
                let mut c = Chunk::with_budget(end - self.offset);
                c.points.extend_from_slice(&src.points[self.offset..end]);
                if end == src.points.len() {
                    c.end = src.end.clone();
                    self.next += 1;
                    self.offset = 0;
                } else {
                    self.offset = end;
                }
                Some(ChunkOrMarker::Chunk(c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::model::drain_chunked;
    use geostreams_satsim::goes_like;

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (3..=9).contains(&r.range(3, 9))));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, s);
    }

    #[test]
    fn rect_of_cells_selects_exactly_those_cells() {
        let lattice = goes_like(64, 32, 1).instrument.band_lattice(0);
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            let cells = seeded_cells(&mut rng, &lattice, 32, 16, 0.5);
            assert_eq!((cells.width(), cells.height()), (32, 16));
            assert_eq!(lattice.footprint(&rect_of_cells(&lattice, cells)), Some(cells));
        }
    }

    #[test]
    fn half_size_boxes_overlap_by_a_quarter() {
        let lattice = goes_like(64, 32, 1).instrument.band_lattice(0);
        let mut rng = Rng::new(11);
        let boxes: Vec<CellBox> =
            (0..40).map(|_| seeded_cells(&mut rng, &lattice, 32, 16, 0.5)).collect();
        for a in &boxes {
            for b in &boxes {
                let w = (a.col_max.min(b.col_max) + 1).saturating_sub(a.col_min.max(b.col_min));
                let h = (a.row_max.min(b.row_max) + 1).saturating_sub(a.row_min.max(b.row_min));
                assert!(4 * w * h >= 32 * 16, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn mem_source_replays_the_scalar_sequence_at_any_budget() {
        let scanner = goes_like(48, 8, 5);
        let expected = scanner.band_stream(0, 2).drain_elements();
        let mat = materialize(scanner.band_stream(0, 2));
        assert_eq!(mat.points, 2 * 48 * 8);
        for budget in [1, 7, 48, 1024] {
            assert_eq!(drain_chunked(&mut mat.source(), budget), expected, "budget {budget}");
        }
        assert_eq!(mat.source().drain_elements(), expected);
    }
}
