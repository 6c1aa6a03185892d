//! The row window of the operators that read a band of input rows per
//! output row (§3.2): a `k × k` neighbourhood operator reads the `k`
//! rows around its own, a re-projection the rows its scan-sector
//! metadata bounds. Both hold the open sector's input rows in one
//! [`RowWindow`] and run one [`RowSchedule`] — which input rows each
//! output row reads:
//!
//! * [`ingest`](RowWindow::ingest) writes a run of input points into
//!   their rows;
//! * the completion watermark advances at `FrameEnd`: it passes every
//!   row received or evicted and every row the window spans above the
//!   first row of the last frame opened, which lattice order rules out;
//! * [`next_ready_row`](RowWindow::next_ready_row) walks the output rows
//!   whose window the watermark has passed (every remaining row at
//!   `SectorEnd`), handing each to the operator's kernel and then
//!   evicting the rows no later output row reads.
//!
//! The static analyzer bounds the window with
//! [`RowSchedule::peak_rows`], which runs the same rules over the rows
//! that arrive, and asks [`RowWindow::bytes_for`] what a ring of that
//! many rows allocates.

use crate::model::{ChunkOrMarker, Marker, PointRecord};
use crate::stats::{bytes_of, OpStats};
use geostreams_geo::{Cell, CellBox};
use geostreams_raster::resample::SampleSource;
use geostreams_raster::Pixel;
use std::ops::Range;

/// Which input rows each output row of a sector reads: the emission and
/// eviction schedule of a row window.
#[derive(Debug, PartialEq)]
pub(crate) struct RowSchedule {
    /// Per output row, the inclusive input-row window `(lo, hi)` its
    /// kernel reads, or `None` when the row is skipped.
    needed: Vec<Option<(u32, u32)>>,
    /// `min_needed_from[i]` is the smallest `lo` over output rows `i..`,
    /// and the input height at `i` = the row count: the eviction
    /// watermark once row `i` is next to emit.
    min_needed_from: Vec<u32>,
}

impl RowSchedule {
    pub(crate) fn new(needed: Vec<Option<(u32, u32)>>, in_height: u32) -> Self {
        let mut min_needed_from = vec![in_height; needed.len() + 1];
        let mut running = in_height;
        for (i, window) in needed.iter().enumerate().rev() {
            if let Some((lo, _)) = window {
                running = running.min(*lo);
            }
            min_needed_from[i] = running;
        }
        RowSchedule { needed, min_needed_from }
    }

    /// A neighbourhood band over `height` rows: output row `r` reads
    /// input rows `r ± half`, clamped to the sector.
    pub(crate) fn band(height: u32, half: u32) -> Self {
        let last = height.saturating_sub(1);
        let needed = (0..height).map(|r| Some((r.saturating_sub(half), (r + half).min(last))));
        RowSchedule::new(needed.collect(), height)
    }

    /// Bytes the schedule has allocated: a window and a watermark per
    /// output row.
    pub(crate) fn bytes(&self) -> u64 {
        bytes_of::<Option<(u32, u32)>>(self.needed.capacity())
            + bytes_of::<u32>(self.min_needed_from.capacity())
    }

    /// Input rows of the sector the schedule was built for.
    pub(crate) fn in_height(&self) -> u32 {
        self.min_needed_from.last().copied().unwrap_or(0)
    }

    /// Whether output row `row` is emitted (some input window reads it).
    pub(crate) fn emits(&self, row: u32) -> bool {
        self.needed.get(row as usize).is_some_and(Option::is_some)
    }

    /// The most input rows a window holds over one sector whose rows
    /// `arriving` come in order, each complete and a frame of its own:
    /// the schedule run the way [`RowWindow`] runs it. When a row's
    /// frame ends, every row up to it is received or ruled out.
    pub(crate) fn peak_rows(&self, arriving: Range<u32>) -> u32 {
        let in_height = self.in_height();
        let (mut cursor, mut first, mut end, mut peak) = (0, 0u32, 0u32, 0u32);
        for row in arriving.clone() {
            if row >= first {
                end = end.max(row + 1);
                peak = peak.max(row + 1 - first.max(arriving.start));
            }
            let complete = (row + 1).min(in_height);
            while let Some(window) = self.needed.get(cursor) {
                if window.is_some_and(|(_, hi)| complete <= hi) {
                    break;
                }
                cursor += 1;
                // Eviction never passes the last row seen.
                first = first.max(self.min_needed_from[cursor].min(end));
            }
        }
        peak
    }

    /// The static bound of a window run by this schedule: the rows held
    /// over a whole sector, which is the blocking class, and the rows
    /// held when rows `arriving` of the sector come in. Those are
    /// [`peak_rows`](Self::peak_rows) of them when each comes complete
    /// as a frame of its own (`row_frames`); when rows may go missing or
    /// frames span rows, every row may wait for `SectorEnd`.
    pub(crate) fn bound(&self, arriving: Range<u32>, row_frames: bool) -> (u32, u32) {
        let in_height = self.in_height();
        let held = if row_frames { self.peak_rows(arriving) } else { in_height };
        (self.peak_rows(0..in_height), held)
    }
}

/// The input rows of the open sector, run by a [`RowSchedule`]: one
/// row-major ring of row slots (a power of two of them) over input rows
/// `first_row .. first_row + len`, with a flag per slot marking a row
/// that has received a point, the completion watermark and the next
/// output row. Rows above the first one received (a restriction dropped
/// them) take no slot. As a [`SampleSource`], a row of the window that
/// never arrived reads as `0.0` and a row past the last one seen as that
/// row.
pub(crate) struct RowWindow<V> {
    data: Vec<V>,
    received: Vec<bool>,
    width: u32,
    height: u32,
    first_row: u32,
    len: u32,
    /// The first row with a slot: rows from `first_row` up to it never
    /// arrived, as the window opened on a later row.
    top: u32,
    /// Received rows in the window: the running count behind the
    /// operator's buffered points.
    held: u32,
    open: bool,
    /// Next output row to emit.
    cursor: u32,
    /// Input rows below it are received, evicted or ruled out.
    complete: u32,
    /// The largest first row of a frame opened in this sector: in
    /// lattice order no row above it can still arrive.
    floor: u32,
    /// The cursor's row was handed out and is not yet passed.
    handed_out: bool,
}

impl<V: Pixel> RowWindow<V> {
    pub(crate) fn new() -> Self {
        RowWindow {
            data: Vec::new(),
            received: vec![false],
            width: 0,
            height: 0,
            first_row: 0,
            len: 0,
            top: 0,
            held: 0,
            open: false,
            cursor: 0,
            complete: 0,
            floor: 0,
            handed_out: false,
        }
    }

    /// Opens a sector of `width × height` input cells, keeping the
    /// ring's slots and releasing what an unclosed sector still holds.
    pub(crate) fn open(&mut self, width: u32, height: u32) {
        self.close();
        if width != self.width {
            self.data = vec![V::default(); self.received.len() * width as usize];
        }
        self.received.fill(false);
        (self.width, self.height, self.first_row, self.len, self.top) = (width, height, 0, 0, 0);
        (self.open, self.cursor, self.complete, self.floor, self.handed_out) =
            (true, 0, 0, 0, false);
    }

    /// Closes the open sector, releasing every row it holds; the ring
    /// stays allocated for the next.
    pub(crate) fn close(&mut self) {
        if std::mem::take(&mut self.open) {
            self.held = 0;
        }
    }

    /// Points of the received rows held: whole rows.
    pub(crate) fn points(&self) -> u64 {
        u64::from(self.held) * u64::from(self.width)
    }

    /// Bytes the ring has allocated: its row slots and their flags.
    pub(crate) fn bytes(&self) -> u64 {
        bytes_of::<V>(self.data.capacity()) + bytes_of::<bool>(self.received.capacity())
    }

    /// Bytes of the ring a window holding at most `rows` rows of `width`
    /// cells grows to: a power of two of slots, at least one.
    pub(crate) fn bytes_for(rows: u32, width: u32) -> u64 {
        let slots = rows.max(1).next_power_of_two() as usize;
        bytes_of::<V>(slots * width as usize) + bytes_of::<bool>(slots)
    }

    #[inline]
    fn slot(&self, row: u32) -> usize {
        row as usize & (self.received.len() - 1)
    }

    /// Takes one input item: a run's points go into their rows and are
    /// counted in, the run is recycled; returns the marker to act on.
    pub(crate) fn ingest(&mut self, item: ChunkOrMarker<V>, stats: &mut OpStats) -> Option<Marker> {
        item.take_run(|run| {
            stats.points_in += run.len() as u64;
            self.ingest_run(run);
        })
    }

    /// Writes a run of input points into their rows; a row's first
    /// point counts the whole row as buffered.
    fn ingest_run(&mut self, points: &[PointRecord<V>]) {
        if !self.open {
            return;
        }
        let mut row_at: Option<(u32, usize)> = None;
        for p in points {
            let Cell { col, row } = p.cell;
            if col >= self.width {
                continue;
            }
            let base = match row_at {
                Some((r, base)) if r == row => base,
                // Already evicted (out-of-order input), or off the
                // lattice; checked once per row, as the window's first
                // row and height stay put during a run.
                _ if row < self.first_row || row >= self.height => continue,
                _ => {
                    let base = self.receive(row);
                    row_at = Some((row, base));
                    base
                }
            };
            self.data[base + col as usize] = p.value;
        }
    }

    /// Offset of `row` (at or past `first_row`) in `data`; the row's
    /// first point receives it, zeroed. The first row an empty window
    /// receives is its first slot.
    fn receive(&mut self, row: u32) -> usize {
        if self.len == 0 {
            self.top = row;
        }
        let slots = row - self.first_row.max(self.top) + 1;
        if slots as usize > self.received.len() {
            self.grow(slots as usize);
        }
        self.len = self.len.max(row - self.first_row + 1);
        let (slot, w) = (self.slot(row), self.width as usize);
        if !self.received[slot] {
            self.received[slot] = true;
            self.held += 1;
            self.data[slot * w..][..w].fill(V::default());
        }
        slot * w
    }

    /// Lays the ring out again over at least `rows` slots, in place: a
    /// row whose slot changes moves to a new slot past the old ones.
    fn grow(&mut self, rows: usize) {
        let (old, slots) = (self.received.len(), rows.next_power_of_two());
        let w = self.width as usize;
        self.data.reserve_exact(slots * w - self.data.len());
        self.data.resize(slots * w, V::default());
        self.received.reserve_exact(slots - old);
        self.received.resize(slots, false);
        for row in self.first_row.max(self.top)..self.first_row + self.len {
            let (from, to) = (row as usize & (old - 1), row as usize & (slots - 1));
            if from != to && std::mem::take(&mut self.received[from]) {
                self.received[to] = true;
                self.data.copy_within(from * w..(from + 1) * w, to * w);
            }
        }
    }

    /// A frame over `cells` opens (consumed without output, a stall): the
    /// rows above its first are ruled out.
    pub(crate) fn frame_start(&mut self, cells: &CellBox, stats: &mut OpStats) {
        stats.frames_in += 1;
        stats.stalls += 1;
        self.floor = self.floor.max(cells.row_min);
    }

    /// A frame ends: the completion watermark passes every row ruled out
    /// that the window spans and then the longest run of rows evicted or
    /// received. A row past the last one seen stays open: until a later
    /// row arrives it would read as that row, not as `0.0`.
    pub(crate) fn frame_end(&mut self) {
        let spanned = self.floor.min(self.first_row + self.len).min(self.height);
        self.complete = self.complete.max(spanned);
        while self.complete < self.height && self.is_done(self.complete) {
            self.complete += 1;
        }
    }

    /// Whether input row `row` is evicted or received.
    fn is_done(&self, row: u32) -> bool {
        row < self.first_row || self.has(row)
    }

    /// Whether input row `row` of the window has received a point.
    #[inline]
    fn has(&self, row: u32) -> bool {
        (self.top..self.first_row + self.len).contains(&row) && self.received[self.slot(row)]
    }

    /// The next output row of `schedule` whose input window the
    /// watermark has passed (every remaining row when `force`, at sector
    /// end), or `None` until more input arrives. Called again, it first
    /// evicts the input rows no later output row reads; rows the
    /// schedule skips go by unseen.
    pub(crate) fn next_ready_row(&mut self, schedule: &RowSchedule, force: bool) -> Option<u32> {
        if !self.open {
            return None;
        }
        loop {
            if std::mem::take(&mut self.handed_out) {
                self.advance(schedule);
            }
            match *schedule.needed.get(self.cursor as usize)? {
                None => self.advance(schedule),
                Some((_, hi)) if force || self.complete > hi => {
                    self.handed_out = true;
                    return Some(self.cursor);
                }
                Some(_) => return None,
            }
        }
    }

    /// Moves past the cursor's output row and drops the input rows below
    /// every later output row's window, never past the last row seen.
    fn advance(&mut self, schedule: &RowSchedule) {
        self.cursor += 1;
        let keep = schedule.min_needed_from[self.cursor as usize];
        while self.first_row < keep && self.len > 0 {
            if self.first_row >= self.top {
                let slot = self.slot(self.first_row);
                self.held -= u32::from(std::mem::take(&mut self.received[slot]));
            }
            self.first_row += 1;
            self.len -= 1;
        }
    }

    /// The values of input row `row` as a [`SampleSource`] reads it: a
    /// row off the sector is its nearest edge row, one above the window
    /// its first row and one past the last row seen that row; `None`
    /// (read as `0.0`) when that row never arrived.
    #[inline]
    pub(crate) fn row(&self, row: i64) -> Option<&[V]> {
        let row = (row.clamp(0, i64::from(self.height) - 1) as u32)
            .clamp(self.first_row, self.first_row + self.len.max(1) - 1);
        let (slot, w) = (self.slot(row), self.width as usize);
        self.has(row).then(|| &self.data[slot * w..][..w])
    }
}

impl<V: Pixel> SampleSource for RowWindow<V> {
    #[inline]
    fn at(&self, col: i64, row: i64) -> f64 {
        let col = col.clamp(0, i64::from(self.width) - 1) as usize;
        self.row(row).map_or(0.0, |values| values[col].to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(row: u32, width: u32) -> Vec<PointRecord<f32>> {
        (0..width).map(|col| PointRecord { cell: Cell::new(col, row), value: 1.0 }).collect()
    }

    /// Feeds rows `arriving` of a `width × height` sector, each a frame
    /// of its own, through `schedule`; returns the emitted rows, the peak
    /// of buffered rows and the bytes of the ring.
    fn run(schedule: &RowSchedule, width: u32, arriving: Range<u32>) -> (Vec<u32>, u64, u64) {
        let (mut window, mut stats, mut emitted) = (RowWindow::new(), OpStats::default(), vec![]);
        window.open(width, schedule.in_height());
        for row in arriving {
            window.frame_start(&CellBox::new(0, row, width - 1, row), &mut stats);
            window.ingest_run(&points(row, width));
            stats.hold(window.points(), window.bytes());
            window.frame_end();
            while let Some(r) = window.next_ready_row(schedule, false) {
                emitted.push(r);
            }
        }
        while let Some(r) = window.next_ready_row(schedule, true) {
            emitted.push(r);
        }
        window.close();
        assert_eq!(window.points(), 0);
        (emitted, stats.buffered_points_peak / u64::from(width), window.bytes())
    }

    #[test]
    fn peak_rows_runs_the_schedule() {
        // Output row i reads input rows i..=i+2 of an 8-row sector.
        let schedule = RowSchedule::new((0..6).map(|i| Some((i, i + 2))).collect::<Vec<_>>(), 8);
        assert_eq!(schedule.min_needed_from, vec![0, 1, 2, 3, 4, 5, 8]);
        // Output row r leaves once row r + 2 is in, so rows r..=r + 2
        // are held at most.
        assert_eq!(schedule.peak_rows(0..8), 3);
        // Row 0 never arrives, but row 1's frame rules it out.
        assert_eq!(schedule.peak_rows(1..8), 3);
        assert_eq!(schedule.peak_rows(0..0), 0);
    }

    #[test]
    fn the_window_holds_what_peak_rows_says() {
        for schedule in [
            RowSchedule::band(12, 1),
            RowSchedule::band(12, 3),
            RowSchedule::band(2, 2),
            RowSchedule::new(
                (0..12).map(|i| (i % 4 != 1).then_some((i / 2, i / 2 + 4))).collect(),
                12,
            ),
        ] {
            let h = schedule.in_height();
            for arriving in [0..h, 3..h, 0..h / 2, 4..h - 1] {
                let (emitted, peak, bytes) = run(&schedule, 5, arriving.clone());
                let want: Vec<u32> =
                    (0..schedule.needed.len() as u32).filter(|&r| schedule.emits(r)).collect();
                assert_eq!(emitted, want, "{arriving:?}");
                let rows = schedule.peak_rows(arriving.clone());
                assert_eq!(peak, u64::from(rows), "{arriving:?}");
                // The ring spans the rows held, from the first received.
                assert_eq!(bytes, RowWindow::<f32>::bytes_for(rows, 5), "{arriving:?}");
            }
        }
    }

    #[test]
    fn rows_never_seen_stay_open_across_empty_frames() {
        // Rows 1 and 2 come as empty frames. Output row 0 reads row 1,
        // which reads as row 0 until a later row arrives and as `0.0`
        // after, so row 0 waits for row 3.
        let schedule = RowSchedule::band(6, 1);
        let (mut window, mut stats) = (RowWindow::<f32>::new(), OpStats::default());
        window.open(4, 6);
        let mut frame = |window: &mut RowWindow<f32>, row: u32, points: &[PointRecord<f32>]| {
            window.frame_start(&CellBox::new(0, row, 3, row), &mut stats);
            window.ingest_run(points);
            window.frame_end();
            window.next_ready_row(&schedule, false)
        };
        assert_eq!(frame(&mut window, 0, &points(0, 4)), None);
        assert_eq!(frame(&mut window, 1, &[]), None);
        assert_eq!(frame(&mut window, 2, &[]), None);
        assert_eq!(frame(&mut window, 3, &points(3, 4)), Some(0));
        assert_eq!(window.at(0, 1), 0.0);
    }

    #[test]
    fn a_row_reads_as_the_window_samples_it() {
        // Rows 0–3 and 5 of a 4 × 10 sector arrive, row 4 does not;
        // output rows 0–2 of a ±1 band leave and evict rows 0 and 1.
        let schedule = RowSchedule::band(10, 1);
        let (mut window, mut stats) = (RowWindow::<f32>::new(), OpStats::default());
        window.open(4, 10);
        // A window that has seen no row reads zeros everywhere.
        for r in [-2, 0, 3, 10] {
            assert_eq!(window.row(r), None, "row {r} of an empty window");
            assert_eq!(window.at(1, r), 0.0);
        }
        let values = |row: u32| (0..4).map(|col| (10 * row + col) as f32).collect::<Vec<_>>();
        let arrive = |window: &mut RowWindow<f32>, stats: &mut OpStats, row: u32| {
            window.frame_start(&CellBox::new(0, row, 3, row), stats);
            let run: Vec<_> = (0..4)
                .map(|col| PointRecord {
                    cell: Cell::new(col, row),
                    value: values(row)[col as usize],
                })
                .collect();
            window.ingest_run(&run);
            window.frame_end();
        };
        let mut emitted = vec![];
        for row in 0..4 {
            arrive(&mut window, &mut stats, row);
            while let Some(r) = window.next_ready_row(&schedule, false) {
                emitted.push(r);
            }
        }
        // Row 5's frame rules row 4 out; no output row leaves after it.
        arrive(&mut window, &mut stats, 5);
        assert_eq!(emitted, vec![0, 1, 2]);
        assert_eq!((window.first_row, window.len), (2, 4), "rows 2..=5 held");
        let cases: [(i64, Option<u32>, &str); 9] = [
            (-3, Some(2), "a negative row reads as the first row held"),
            (0, Some(2), "an evicted row reads as the first row held"),
            (1, Some(2), "an evicted row reads as the first row held"),
            (3, Some(3), "a received row is itself"),
            (4, None, "a row not received reads as zeros"),
            (5, Some(5), "the last row seen is itself"),
            (7, Some(5), "a row past the last one seen reads as it"),
            (10, Some(5), "the sector height clamps to the last row"),
            (25, Some(5), "a row past the sector height clamps too"),
        ];
        for (r, want, why) in cases {
            let want = want.map(values);
            assert_eq!(window.row(r), want.as_deref(), "row {r}: {why}");
            for col in -1..5 {
                let at = want.as_ref().map_or(0.0, |v| f64::from(v[col.clamp(0, 3) as usize]));
                assert_eq!(window.at(col, r), at, "at({col}, {r}): {why}");
            }
        }
    }

    #[test]
    fn points_past_the_sector_height_are_not_taken() {
        // Row 3's run carries two points past the 12-row sector (rows 12
        // and 70 000): neither may grow the ring or count as a held row.
        let schedule = RowSchedule::band(12, 1);
        let (mut window, mut stats) = (RowWindow::<f32>::new(), OpStats::default());
        window.open(5, 12);
        for row in 0..12 {
            window.frame_start(&CellBox::new(0, row, 4, row), &mut stats);
            let mut run = points(row, 5);
            if row == 3 {
                run.extend([12, 70_000].map(|r| PointRecord { cell: Cell::new(1, r), value: 1.0 }));
            }
            window.ingest_run(&run);
            stats.hold(window.points(), window.bytes());
            window.frame_end();
            while window.next_ready_row(&schedule, false).is_some() {}
        }
        let (_, held) = schedule.bound(0..12, true);
        assert!(
            stats.buffered_points_peak <= u64::from(held) * 5,
            "{} points buffered, bound {held} rows of 5",
            stats.buffered_points_peak
        );
        assert_eq!(window.bytes(), RowWindow::<f32>::bytes_for(held, 5), "a ring of {held} rows");
    }

    #[test]
    fn a_band_is_its_rows_clamped_to_the_sector() {
        let band = RowSchedule::band(5, 1);
        assert_eq!(
            band.needed,
            vec![Some((0, 1)), Some((0, 2)), Some((1, 3)), Some((2, 4)), Some((3, 4))]
        );
        assert_eq!(band.min_needed_from, vec![0, 0, 1, 2, 3, 5]);
        assert_eq!(band.peak_rows(0..5), 3);
    }
}
