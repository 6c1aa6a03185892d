//! Resolution-changing spatial transforms (§3.2, Fig. 2a).
//!
//! * [`Magnify`] — "An operator that increases the spatial resolution
//!   would take an incoming point x and produce a rectangular lattice of
//!   k·k points in Y, all with the point value G(x). No neighboring
//!   points for x are required" — hence zero buffering.
//! * [`Downsample`] — "neighboring points are needed in case one wants to
//!   decrease the resolution … a rectangular lattice of k·k neighboring
//!   points surrounding x is needed", so the operator accumulates block
//!   sums; for a row-by-row stream its buffer is proportional to the row
//!   width (never the frame height), which experiment F2 verifies.

use crate::model::chunk::RunQueue;
use crate::model::{
    Chunk, ChunkOrMarker, FrameEnd, FrameInfo, GeoStream, Marker, PointRecord, SectorEnd,
    SectorInfo, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use crate::stats::{bytes_of, OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, LatticeGeoref};
use geostreams_raster::Pixel;
use std::collections::VecDeque;
use std::ops::Range;

/// k× magnification: each input point becomes a `k × k` block of output
/// points with the same value. Non-blocking; per-point cost O(k²). An
/// input run's blocks are written into the open output run, point by
/// point, rows of a block top to bottom, a pull budget of them at a
/// time before the next input is read.
pub struct Magnify<S: GeoStream> {
    input: S,
    k: u32,
    /// The input run being magnified and its next point.
    pending: Option<(Chunk<S::V>, usize)>,
    queue: RunQueue<S::V>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Magnify<S> {
    /// Creates a magnification by integer factor `k ≥ 1`.
    pub fn new(input: S, k: u32) -> Self {
        assert!(k >= 1, "magnification factor must be >= 1");
        let schema = input.schema().renamed(format!("magnify[x{k}]"));
        Magnify {
            input,
            k,
            pending: None,
            queue: RunQueue::default(),
            stats: OpStats::default(),
            schema,
        }
    }

    /// Writes the blocks of the pending run's next points, enough to
    /// fill the open output run to `budget`; once the run is done, its
    /// marker follows.
    fn magnify_some(&mut self, budget: usize) {
        let Some((run, at)) = &mut self.pending else { return };
        let k = self.k;
        let block = (k * k) as usize;
        let out = self.queue.open_run();
        let n = budget.saturating_sub(out.len()).div_ceil(block).clamp(1, run.len() - *at);
        out.reserve(n * block);
        for p in &run.points[*at..*at + n] {
            let (col, row) = (p.cell.col * k, p.cell.row * k);
            for dr in 0..k {
                out.extend(
                    (0..k).map(|dc| PointRecord {
                        cell: Cell::new(col + dc, row + dr),
                        value: p.value,
                    }),
                );
            }
        }
        self.stats.points_out += (n * block) as u64;
        *at += n;
        if *at == run.len() {
            if let Some((mut run, _)) = self.pending.take() {
                let end = run.end.take();
                run.recycle();
                self.push_marker(end);
            }
        }
    }

    /// Takes one input item: its run to magnify, or its marker.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        match item {
            ChunkOrMarker::Chunk(run) if !run.is_empty() => {
                self.stats.points_in += run.len() as u64;
                self.pending = Some((run, 0));
            }
            item => {
                let marker = item.take_run(|_| {});
                self.push_marker(marker);
            }
        }
    }

    /// Queues a marker mapped onto the magnified lattice.
    fn push_marker(&mut self, marker: Option<Marker>) {
        let k = self.k;
        let out = match marker {
            Some(Marker::SectorStart(si)) => {
                Marker::SectorStart(SectorInfo { lattice: si.lattice.magnified(k), ..si })
            }
            Some(Marker::FrameStart(fi)) => {
                self.stats.frames_in += 1;
                self.stats.frames_out += 1;
                let c = fi.cells;
                let cells = CellBox::new(
                    c.col_min * k,
                    c.row_min * k,
                    c.col_max * k + (k - 1),
                    c.row_max * k + (k - 1),
                );
                Marker::FrameStart(FrameInfo { cells, ..fi })
            }
            Some(other) => other,
            None => return,
        };
        self.queue.push(ChunkOrMarker::Marker(out));
    }
}

impl<S: GeoStream> GeoStream for Magnify<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
            if self.pending.is_some() {
                self.magnify_some(budget);
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

/// Accumulator for one output block.
#[derive(Debug, Clone, Copy, Default)]
struct BlockAcc {
    sum: f64,
    count: u32,
}

/// Accumulators of one output row, by output column from `col0`.
struct BlockRow {
    acc: Vec<BlockAcc>,
    col0: u32,
    /// Columns below this one are emitted.
    next_col: u32,
}

/// The open output rows of a downsampling, the first of them output row
/// `first`, with running counts of the input points their accumulators
/// hold and of the bytes the accumulators have allocated. A row spans
/// the output columns of the frame that opened it, and grows when a
/// point lands past them.
pub(crate) struct BlockRows {
    rows: VecDeque<BlockRow>,
    first: u32,
    points: u64,
    bytes: u64,
}

impl BlockRows {
    fn new() -> Self {
        BlockRows { rows: VecDeque::new(), first: 0, points: 0, bytes: 0 }
    }

    /// Bytes of one open row of `width` accumulators: what a row-by-row
    /// input holds, as a row closes before the next one opens.
    pub(crate) fn bytes_for(width: u32) -> u64 {
        bytes_of::<BlockAcc>(width as usize)
    }

    fn clear(&mut self) {
        self.rows.clear();
        (self.points, self.bytes) = (0, 0);
    }

    /// A row over the output columns `cols`.
    fn new_row(&mut self, cols: &Range<u32>) -> BlockRow {
        let acc = vec![BlockAcc::default(); cols.len()];
        self.bytes += bytes_of::<BlockAcc>(acc.capacity());
        BlockRow { acc, col0: cols.start, next_col: 0 }
    }

    /// The accumulator of output cell `(col, row)`, counting one more
    /// point in it.
    #[inline]
    fn entry(&mut self, col: u32, row: u32, cols: &Range<u32>) -> &mut BlockAcc {
        let i = row.wrapping_sub(self.first) as usize;
        let open = self.rows.get(i).and_then(|r| {
            let c = col.wrapping_sub(r.col0) as usize;
            (c < r.acc.len()).then_some((i, c))
        });
        let (i, c) = open.unwrap_or_else(|| self.open(col, row, cols));
        self.points += 1;
        &mut self.rows[i].acc[c]
    }

    /// Opens the rows up to output row `row` over the columns `cols`, and
    /// widens that row to `col`; returns its index and `col`'s in it.
    fn open(&mut self, col: u32, row: u32, cols: &Range<u32>) -> (usize, usize) {
        if self.rows.is_empty() {
            self.first = row;
        }
        while row < self.first {
            let new = self.new_row(cols);
            self.rows.push_front(new);
            self.first -= 1;
        }
        while row >= self.first + self.rows.len() as u32 {
            let new = self.new_row(cols);
            self.rows.push_back(new);
        }
        let i = (row - self.first) as usize;
        let r = &mut self.rows[i];
        let end = r.col0 + r.acc.len() as u32;
        if !(r.col0..end).contains(&col) {
            let (lo, hi) = (r.col0.min(col), end.max(col + 1));
            let mut acc = vec![BlockAcc::default(); (hi - lo) as usize];
            acc[(r.col0 - lo) as usize..][..r.acc.len()].copy_from_slice(&r.acc);
            self.bytes += bytes_of::<BlockAcc>(acc.len() - r.acc.capacity());
            (r.acc, r.col0) = (acc, lo);
        }
        (i, (col - r.col0) as usize)
    }

    /// Closes the first open row.
    fn pop_front(&mut self) {
        if let Some(row) = self.rows.pop_front() {
            self.bytes -= bytes_of::<BlockAcc>(row.acc.capacity());
            self.first += 1;
        }
    }
}

/// 1/k downsampling by `k × k` block averaging.
///
/// Emits one output frame per input sector (all output points share the
/// sector timestamp). A block that cannot reach `k²` points — its input
/// was cut by a restriction or lost — is emitted as a partial-block
/// average as soon as lattice order says no more of its points can
/// arrive: when a later block of its output row completes, or when a
/// frame starts below its last input row (a frame may interleave its
/// rows, as magnification does). The §3.2 "boundary point
/// interpolations", in lattice order. Input runs are folded into the
/// open rows' accumulators, and the blocks they complete are written
/// into the open output run.
pub struct Downsample<S: GeoStream> {
    input: S,
    k: u32,
    out_lattice: Option<LatticeGeoref>,
    rows: BlockRows,
    /// The output columns the open frame covers: those of a row it opens.
    cols: Range<u32>,
    queue: RunQueue<S::V>,
    next_frame_id: u64,
    open_frame: Option<(u64, u64)>,
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Downsample<S> {
    /// Creates a downsampling by integer factor `k ≥ 1`.
    pub fn new(input: S, k: u32) -> Self {
        assert!(k >= 1, "downsampling factor must be >= 1");
        let schema = input.schema().renamed(format!("downsample[/{k}]"));
        Downsample {
            input,
            k,
            out_lattice: None,
            rows: BlockRows::new(),
            cols: 0..0,
            queue: RunQueue::default(),
            next_frame_id: 0,
            open_frame: None,
            stats: OpStats::default(),
            schema,
        }
    }

    /// Reports what the accumulators hold.
    fn hold(&mut self) {
        self.stats.hold(self.rows.points, self.rows.bytes);
    }

    /// Emits, in column order, every open block in columns `from..to`
    /// of the `i`-th open row.
    fn flush_blocks(&mut self, i: usize, from: u32, to: u32) {
        // The points held peak just before blocks leave.
        self.hold();
        let row = self.rows.first + i as u32;
        let r = &mut self.rows.rows[i];
        let end = r.col0 + r.acc.len() as u32;
        let (from, to) = (from.clamp(r.col0, end), to.clamp(r.col0, end));
        let accs = &mut r.acc[(from - r.col0) as usize..(to.max(from) - r.col0) as usize];
        let Some(first) = accs.iter().position(|acc| acc.count > 0) else { return };
        let out = self.queue.open_run();
        for (col, acc) in (from + first as u32..).zip(&mut accs[first..]) {
            let acc = std::mem::take(acc);
            if acc.count == 0 {
                continue;
            }
            self.rows.points -= u64::from(acc.count);
            let value = S::V::from_f64(acc.sum / f64::from(acc.count));
            self.stats.points_out += 1;
            out.push(PointRecord { cell: Cell::new(col, row), value });
        }
    }

    /// Emits every open row above output row `end`, top to bottom.
    fn flush_rows_above(&mut self, end: u32) {
        while self.rows.first < end && !self.rows.rows.is_empty() {
            self.flush_blocks(0, 0, u32::MAX);
            self.rows.pop_front();
        }
    }

    /// Folds a run into the block accumulators, emitting each block it
    /// completes with the open blocks to its left.
    fn fold_run(&mut self, run: &[PointRecord<S::V>]) {
        self.stats.points_in += run.len() as u64;
        let Some(out) = self.out_lattice else { return };
        let k = self.k;
        for p in run {
            let (oc, or) = (p.cell.col / k, p.cell.row / k);
            if oc >= out.width || or >= out.height {
                continue; // trailing cells of a partial block edge
            }
            let entry = self.rows.entry(oc, or, &self.cols);
            entry.sum += p.value.to_f64();
            entry.count += 1;
            if entry.count == k * k {
                // Each row is scanned left to right: blocks left of a
                // complete one can receive no more points.
                let i = (or - self.rows.first) as usize;
                let next = self.rows.rows[i].next_col;
                self.flush_blocks(i, next.min(oc), oc + 1);
                self.rows.rows[i].next_col = next.max(oc + 1);
            }
        }
        self.hold();
    }

    /// Takes one input item: its run into the accumulators, then its
    /// marker.
    fn ingest_item(&mut self, item: ChunkOrMarker<S::V>) {
        let marker = item.take_run(|run| self.fold_run(run));
        match marker {
            Some(Marker::SectorStart(si)) => {
                let out_lat = si.lattice.reduced(self.k);
                self.out_lattice = Some(out_lat);
                self.rows.clear();
                self.cols = 0..out_lat.width;
                let frame_id = self.next_frame_id;
                self.next_frame_id += 1;
                self.open_frame = Some((frame_id, si.sector_id));
                let (sector_id, timestamp) = (si.sector_id, si.timestamp);
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorStart(SectorInfo {
                    lattice: out_lat,
                    ..si
                })));
                if !out_lat.is_empty() {
                    self.stats.frames_out += 1;
                    self.queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
                        frame_id,
                        sector_id,
                        timestamp,
                        cells: CellBox::full(out_lat.width, out_lat.height),
                        synth_ns: crate::obs::now_ns(),
                    })));
                }
            }
            Some(Marker::FrameStart(fi)) => {
                self.stats.frames_in += 1;
                self.stats.stalls += 1;
                // Frames start top to bottom: no later point lies above
                // this frame's first row.
                self.flush_rows_above(fi.cells.row_min / self.k);
                let width = self.out_lattice.map_or(0, |l| l.width);
                let (lo, hi) = (fi.cells.col_min / self.k, fi.cells.col_max / self.k + 1);
                self.cols = lo.min(width)..hi.min(width);
            }
            Some(Marker::FrameEnd(_)) | None => {}
            Some(Marker::SectorEnd(se)) => {
                self.flush_rows_above(u32::MAX);
                if let Some((frame_id, sector_id)) = self.open_frame.take() {
                    self.queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd {
                        frame_id,
                        sector_id,
                    })));
                }
                self.queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd {
                    sector_id: se.sector_id,
                })));
            }
        }
        self.hold();
    }
}

impl<S: GeoStream> GeoStream for Downsample<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        let budget = budget.max(1);
        while !self.queue.ready(budget) {
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

/// Magnification synthesizes a k×-denser output lattice: markers are
/// re-emitted for the new frame geometry. Each point's block lands
/// where the point does, so any input order is served, and the output
/// is lattice-ordered exactly when the input is.
pub fn magnify_contract() -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract {
        requires_order: false,
        ..crate::ops::ProtocolContract::resynthesizing("magnify")
    }
}

/// Downsampling accumulates k×k blocks and flushes them on row and
/// frame boundaries: it needs bracketed, ordered input and re-emits a
/// fresh marker sequence for the coarser output lattice.
pub fn downsample_contract() -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract::resynthesizing("downsample")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::{Crs, Rect};

    fn lattice(w: u32, h: u32) -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 12.0, 12.0), w, h)
    }

    fn source(w: u32, h: u32) -> VecStream<f32> {
        VecStream::single_sector("src", lattice(w, h), 0, |c, r| f64::from(c + w * r))
    }

    #[test]
    fn magnify_replicates_each_point() {
        let mut op = Magnify::new(source(2, 2), 3);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 4 * 9);
        // Point (1,0) value 1 covers output cols 3..5, rows 0..2.
        let block: Vec<_> = pts.iter().filter(|p| p.value == 1.0).collect();
        assert_eq!(block.len(), 9);
        assert!(block.iter().all(|p| (3..=5).contains(&p.cell.col) && p.cell.row <= 2));
    }

    #[test]
    fn magnify_needs_no_buffer() {
        let mut op = Magnify::new(source(16, 16), 4);
        let _ = op.drain_points();
        let st = op.op_stats();
        assert_eq!(st.buffered_points_peak, 0, "§3.2: no neighboring points required");
        assert_eq!(st.points_out, 16 * 16 * 16);
    }

    #[test]
    fn magnify_updates_sector_lattice() {
        let mut op = Magnify::new(source(4, 4), 2);
        let els = op.drain_elements();
        match &els[0] {
            Element::SectorStart(si) => {
                assert_eq!(si.lattice.width, 8);
                assert_eq!(si.lattice.height, 8);
            }
            other => panic!("expected SectorStart, got {other:?}"),
        }
    }

    #[test]
    fn downsample_buffer_scales_with_row_not_frame() {
        // Row-by-row input: the paper's claim is that only ~k rows of
        // state are needed, never the whole frame.
        let mut wide = Downsample::new(source(64, 8), 4);
        let _ = wide.drain_points();
        let wide_peak = wide.op_stats().buffered_points_peak;

        let mut tall = Downsample::new(source(64, 64), 4);
        let _ = tall.drain_points();
        let tall_peak = tall.op_stats().buffered_points_peak;

        assert_eq!(wide_peak, tall_peak, "peak buffer must not grow with frame height");
        // Peak is at most k rows of accumulated points (64*4) minus the
        // blocks that complete as the k-th row streams through.
        assert!(wide_peak <= 64 * 4, "peak {wide_peak}");
        assert!(wide_peak >= 64 * 3, "peak {wide_peak} should hold ~k-1 rows plus partials");
    }

    #[test]
    fn downsample_flushes_partial_blocks_in_lattice_order() {
        // Columns 1..=6 of an 8x8 ramp: the edge blocks of every output
        // row never fill, and go out as soon as no point can reach them.
        let mut full = source(8, 8);
        let schema = full.schema().clone();
        let cut = full.drain_elements().into_iter().filter(|el| match el {
            Element::Point(p) => (1..=6).contains(&p.cell.col),
            _ => true,
        });
        let mut op = Downsample::new(VecStream::new(schema, cut.collect()), 2);
        let pts = op.drain_points();
        assert_eq!(pts.len(), 16);
        let order: Vec<_> = pts.iter().map(|p| (p.cell.row, p.cell.col)).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        // Block (0, 0) holds input columns 1 only: rows 0 and 1 -> 1, 9.
        assert!((pts[0].value - 5.0).abs() < 1e-6);
        // One output row of accumulators over the frames' four output
        // columns, never more.
        assert_eq!(op.op_stats().buffered_bytes_peak, BlockRows::bytes_for(4));
    }

    #[test]
    fn downsample_matches_order_free_block_averages() {
        use crate::ops::{Orient, Orientation};
        // Trailing cells past the reduced lattice are dropped (5x5 by 2).
        // Magnification interleaves the rows of a frame, and a quarter
        // turn scans column by column: neither may split a block.
        let cases: [(Box<dyn GeoStream<V = f32>>, u32); 7] = [
            (Box::new(source(4, 4)), 2),
            (Box::new(source(5, 5)), 2),
            (Box::new(Magnify::new(source(4, 4), 3)), 3),
            (Box::new(Magnify::new(source(5, 4), 3)), 2),
            (Box::new(Magnify::new(source(4, 4), 2)), 3),
            (Box::new(Orient::new(source(6, 4), Orientation::Transpose)), 2),
            (Box::new(Orient::new(source(6, 4), Orientation::Rot270)), 2),
        ];
        for (mut input, k) in cases {
            let schema = input.schema().clone();
            let els = input.drain_elements();
            let Some(Element::SectorStart(si)) = els.first() else { panic!("no sector") };
            let out = si.lattice.reduced(k);
            let mut want = std::collections::BTreeMap::<_, (f64, u32)>::new();
            for el in &els {
                let Element::Point(p) = el else { continue };
                let cell = (p.cell.row / k, p.cell.col / k);
                if cell.0 < out.height && cell.1 < out.width {
                    let e = want.entry(cell).or_default();
                    (e.0, e.1) = (e.0 + f64::from(p.value), e.1 + 1);
                }
            }
            let mut op = Downsample::new(VecStream::new(schema, els), k);
            let mut got = op.drain_points();
            assert_eq!(op.op_stats().buffered_points, 0, "all state released");
            got.sort_by_key(|p| (p.cell.row, p.cell.col));
            assert_eq!(got.len(), want.len(), "k = {k}");
            for (p, (cell, (sum, n))) in got.iter().zip(want) {
                assert_eq!((p.cell.row, p.cell.col), cell);
                assert!((f64::from(p.value) - sum / f64::from(n)).abs() < 1e-4, "{cell:?}");
            }
        }
    }

    #[test]
    fn downsample_frame_protocol_one_frame_per_sector() {
        let mut op = Downsample::new(source(6, 6), 3);
        let els = op.drain_elements();
        let starts = els.iter().filter(|e| matches!(e, Element::FrameStart(_))).count();
        let ends = els.iter().filter(|e| matches!(e, Element::FrameEnd(_))).count();
        assert_eq!(starts, 1);
        assert_eq!(ends, 1);
        // FrameEnd precedes SectorEnd.
        let fe_pos = els.iter().position(|e| matches!(e, Element::FrameEnd(_))).unwrap();
        let se_pos = els.iter().position(|e| matches!(e, Element::SectorEnd(_))).unwrap();
        assert!(fe_pos < se_pos);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_factor_rejected() {
        let _ = Magnify::new(source(2, 2), 0);
    }
}
