//! Shared by the integration suites: a deterministic PRNG, scratch
//! directories, the per-operator references and the literal three-join
//! NDVI.
//!
//! The build environment has no crates.io access, so the former
//! proptest suites run as fixed-case loops over this SplitMix64
//! generator: same properties, reproducible inputs, zero dependencies.
#![allow(dead_code)]

use geostreams::core::model::{tee2, GeoStream};
use geostreams::core::ops::{Compose, GammaOp};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The literal §3.4 expression `(G₁ − G₂) ⊘ (G₂ + G₁)`: three
/// compositions over two stream tees, each band read twice. What the
/// fused `ndvi` macro operator computes in one join.
pub fn ndvi_unfused<L, R>(
    nir: L,
    vis: R,
) -> Compose<impl GeoStream<V = L::V>, impl GeoStream<V = L::V>>
where
    L: GeoStream,
    R: GeoStream<V = L::V>,
{
    let (nir_a, nir_b) = tee2(nir);
    let (vis_a, vis_b) = tee2(vis);
    let num = Compose::new(nir_a, vis_a, GammaOp::Sub).unwrap();
    let den = Compose::new(vis_b, nir_b, GammaOp::Add).unwrap();
    Compose::new(num, den, GammaOp::Div).unwrap()
}

/// An absent directory under the system's temporary directory, unique
/// to this process and call; the caller removes it when done.
pub fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gs-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `lo..hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn chance(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Reference semantics of the operators whose per-point logic used to
/// live in a scalar arm of its own (the restrictions, the point-wise
/// value maps, load shedding), of re-projection as it ran before its
/// mapping was cached, of composition as it ran before it zipped runs
/// and of the focal operator as it ran one element at a time, written
/// over the flattened input element sequences. The
/// chunked operators are compared against these at every pull budget.
pub mod reference {
    use geostreams::core::model::{
        Element, FrameEnd, FrameInfo, SectorEnd, SectorInfo, TimeSet, Timestamp,
    };
    use geostreams::core::ops::{
        AggFunc, FocalFunc, GammaOp, ReprojectConfig, ShedPolicy, StretchMode, StretchScope,
        ValueFunc,
    };
    use geostreams::core::stats::OpStats;
    use geostreams::geo::{Cell, CellBox, Crs, LatticeGeoref, Rect, Region};
    use geostreams::raster::resample::{sample_source, SampleSource};
    use geostreams::raster::{Histogram, Pixel, RangeTracker};
    use std::collections::{HashMap, VecDeque};

    type Els = Vec<Element<f32>>;

    /// The references' point accounting: each grows and shrinks the
    /// points it buffers as it goes, and counts no bytes. What an
    /// operator allocates is its structures' to say, and
    /// `tests/memory_bound.rs` holds that to the heap.
    trait Buffered {
        fn grow(&mut self, n: u64);
        fn shrink(&mut self, n: u64);
    }

    impl Buffered for OpStats {
        fn grow(&mut self, n: u64) {
            self.hold(self.buffered_points + n, 0);
        }

        fn shrink(&mut self, n: u64) {
            self.hold(self.buffered_points.saturating_sub(n), 0);
        }
    }

    /// A frame whose `FrameStart` is withheld until its first surviving
    /// point; a frame nothing survives in is swallowed whole.
    #[derive(Default)]
    struct LazyFrame {
        pending: Option<FrameInfo>,
        open: bool,
    }

    impl LazyFrame {
        fn begin(&mut self, fi: Option<FrameInfo>) {
            self.pending = fi;
            self.open = false;
        }

        fn point(&mut self, out: &mut Els, el: Element<f32>) {
            if let Some(fi) = self.pending.take() {
                out.push(Element::FrameStart(fi));
                self.open = true;
            }
            out.push(el);
        }

        fn end(&mut self, out: &mut Els, el: Element<f32>) {
            if std::mem::take(&mut self.open) {
                out.push(el);
            }
            self.pending = None;
        }
    }

    /// `restrict_space`: a point survives when its cell is in the
    /// region's lattice footprint and, for a non-rectangular region, its
    /// cell centre is in the region.
    pub fn restrict_space(els: &[Element<f32>], region: &Region) -> Els {
        let (mut out, mut frame, mut lattice) = (Vec::new(), LazyFrame::default(), None);
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(ref si) => {
                    lattice = Some((si.lattice, si.lattice.footprint_of_region(region)));
                    out.push(el);
                }
                Element::FrameStart(mut fi) => {
                    let cells = lattice.and_then(|(_, fp)| fp?.intersect(&fi.cells));
                    frame.begin(cells.map(|c| {
                        fi.cells = c;
                        fi
                    }));
                }
                Element::Point(p) => {
                    let Some((lat, Some(fp))) = lattice else { continue };
                    let live = frame.pending.is_some() || frame.open;
                    let exact =
                        region.is_rectangular() || region.contains(lat.cell_to_world(p.cell));
                    if live && fp.contains(p.cell) && exact {
                        frame.point(&mut out, el);
                    }
                }
                Element::FrameEnd(_) => frame.end(&mut out, el),
                Element::SectorEnd(_) => out.push(el),
            }
        }
        out
    }

    /// `restrict_time`: whole frames pass or go by their timestamp.
    pub fn restrict_time(els: &[Element<f32>], times: &TimeSet) -> Els {
        let mut passing = false;
        let keep = |el: &&Element<f32>| match el {
            Element::FrameStart(fi) => {
                passing = times.contains(fi.timestamp);
                passing
            }
            Element::Point(_) => passing,
            Element::FrameEnd(_) => std::mem::take(&mut passing),
            _ => true,
        };
        els.iter().filter(keep).cloned().collect()
    }

    /// `restrict_value`: a point survives when its value is in one of
    /// the inclusive ranges.
    pub fn restrict_value(els: &[Element<f32>], ranges: &[(f64, f64)]) -> Els {
        let (mut out, mut frame) = (Vec::new(), LazyFrame::default());
        for el in els.iter().cloned() {
            match el {
                Element::FrameStart(fi) => frame.begin(Some(fi)),
                Element::Point(p) => {
                    let v = f64::from(p.value);
                    if ranges.iter().any(|&(lo, hi)| v >= lo && v <= hi) {
                        frame.point(&mut out, el);
                    }
                }
                Element::FrameEnd(_) => frame.end(&mut out, el),
                _ => out.push(el),
            }
        }
        out
    }

    /// `map_value`: `func` applied to every point value in `f64`.
    pub fn map_value(els: &[Element<f32>], func: ValueFunc) -> Els {
        els.iter()
            .cloned()
            .map(|el| el.map_value(|v| f32::from_f64(func.apply(v.to_f64()))))
            .collect()
    }

    /// `cast`: every point value converted through `f64`.
    pub fn cast<W: Pixel>(els: &[Element<f32>]) -> Vec<Element<W>> {
        els.iter().cloned().map(|el| el.map_value(|v| W::from_f64(v.to_f64()))).collect()
    }

    /// Buffered input rows of one sector: `rows[i]` is input row
    /// `first_row + i`, once it has received a point.
    struct RowWindow {
        rows: VecDeque<Option<Vec<f32>>>,
        first_row: u32,
        width: u32,
        height: u32,
    }

    impl RowWindow {
        fn new(lattice: &LatticeGeoref) -> Self {
            RowWindow {
                rows: VecDeque::new(),
                first_row: 0,
                width: lattice.width,
                height: lattice.height,
            }
        }

        fn points(&self) -> u64 {
            self.rows.iter().flatten().map(|r| r.len() as u64).sum()
        }

        /// Writes a point into its row, counting a row's first point as
        /// the whole row buffered; a point above the window or off the
        /// lattice is dropped.
        fn set(&mut self, cell: Cell, value: f32, stats: &mut OpStats) {
            if cell.row < self.first_row || cell.col >= self.width {
                return;
            }
            while self.first_row + self.rows.len() as u32 <= cell.row {
                self.rows.push_back(None);
            }
            let width = self.width as usize;
            let row = &mut self.rows[(cell.row - self.first_row) as usize];
            if row.is_none() {
                stats.grow(width as u64);
            }
            row.get_or_insert_with(|| vec![0.0; width])[cell.col as usize] = value;
        }

        /// Advances `complete` past the rows evicted or received.
        fn advance(&self, complete: &mut u32) {
            while *complete < self.height {
                let r = *complete;
                let done = r < self.first_row
                    || matches!(self.rows.get((r - self.first_row) as usize), Some(Some(_)));
                if !done {
                    break;
                }
                *complete += 1;
            }
        }

        /// Drops the rows below `keep`, never past the last row seen.
        fn evict_below(&mut self, keep: u32, stats: &mut OpStats) {
            while self.first_row < keep {
                let Some(row) = self.rows.pop_front() else { break };
                let n = row.map_or(0, |r| r.len() as u64);
                stats.shrink(n);
                self.first_row += 1;
            }
        }
    }

    impl SampleSource for RowWindow {
        fn at(&self, col: i64, row: i64) -> f64 {
            let col = col.clamp(0, i64::from(self.width) - 1) as usize;
            let row = row.clamp(0, i64::from(self.height) - 1) as u32;
            let last = self.first_row + (self.rows.len().max(1) as u32) - 1;
            let row = row.clamp(self.first_row, last);
            match self.rows.get((row - self.first_row) as usize) {
                Some(Some(r)) => f64::from(r[col]),
                _ => 0.0,
            }
        }
    }

    /// One visible sector in flight.
    struct Plan {
        in_lattice: LatticeGeoref,
        out_lattice: LatticeGeoref,
        /// Per output row, the inclusive input rows it reads.
        needed: Vec<Option<(u32, u32)>>,
        cursor: usize,
        rows_complete: u32,
        sector_id: u64,
        timestamp: Timestamp,
        window: RowWindow,
    }

    /// `reproject`, one element at a time: per sector, derive the output
    /// lattice from 16 samples per edge of the input extent; bound each
    /// output row's input rows by projecting 17 of its columns; buffer
    /// input rows as they arrive; emit an output row — every cell
    /// projected, then sampled — once the rows it reads are complete,
    /// and drop the rows no later output row reads. A sector invisible
    /// in the target CRS is dropped whole. Returns the elements and the
    /// operator's counters; buffered bytes are the buffered points' only.
    pub fn reproject(els: &[Element<f32>], from: Crs, cfg: &ReprojectConfig) -> (Els, OpStats) {
        let (from_p, to_p) = (from.projection().unwrap(), cfg.to.projection().unwrap());
        let source = |inl: &LatticeGeoref, outl: &LatticeGeoref, col: u32, row: u32| {
            let ll = to_p.inverse(outl.cell_to_world(Cell::new(col, row))).ok()?;
            Some(inl.world_to_fractional(from_p.forward(ll).ok()?))
        };
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        let (mut plan, mut dropping, mut next_frame_id) = (None::<Plan>, false, 0u64);
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(si) => {
                    let inl = si.lattice;
                    let mut bounds = Rect::empty();
                    for s in inl.world_bbox().boundary_samples(16) {
                        if let Some(p) = from_p.inverse(s).ok().and_then(|ll| to_p.forward(ll).ok())
                        {
                            bounds = bounds.union(&Rect::new(p.x, p.y, p.x, p.y));
                        }
                    }
                    let outl = match cfg.output_lattice {
                        Some(l) => l,
                        None if bounds.is_empty() || bounds.area() <= 0.0 => {
                            (plan, dropping) = (None, true);
                            continue;
                        }
                        None => LatticeGeoref::north_up(cfg.to, bounds, inl.width, inl.height),
                    };
                    let last = inl.height.saturating_sub(1);
                    let margin = i64::from(cfg.kernel.support() + cfg.safety_rows);
                    let step = (outl.width / 16).max(1);
                    let needed = (0..outl.height)
                        .map(|row| {
                            if !cfg.use_sector_metadata {
                                return Some((0, last));
                            }
                            let mut cols: Vec<u32> =
                                (0..outl.width).step_by(step as usize).collect();
                            cols.extend(outl.width.checked_sub(1));
                            let rows: Vec<f64> = cols
                                .iter()
                                .filter_map(|&c| source(&inl, &outl, c, row).map(|(_, fr)| fr))
                                .collect();
                            let lo = rows.iter().copied().fold(f64::INFINITY, f64::min);
                            let hi = rows.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                            lo.is_finite().then(|| {
                                let lo = ((lo.floor() as i64 - margin).max(0) as u32).min(last);
                                let hi = ((hi.ceil() as i64 + margin).max(0) as u32).min(last);
                                (lo, hi)
                            })
                        })
                        .collect();
                    plan = Some(Plan {
                        in_lattice: inl,
                        out_lattice: outl,
                        needed,
                        cursor: 0,
                        rows_complete: 0,
                        sector_id: si.sector_id,
                        timestamp: si.timestamp,
                        window: RowWindow::new(&inl),
                    });
                    dropping = false;
                    out.push(Element::SectorStart(SectorInfo { lattice: outl, ..si }));
                }
                Element::FrameStart(_) => {
                    stats.frames_in += 1;
                    stats.stalls += 1;
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    if let Some(pl) = &mut plan {
                        pl.window.set(p.cell, p.value, &mut stats);
                    }
                }
                Element::FrameEnd(_) | Element::SectorEnd(_) => {
                    let force = matches!(el, Element::SectorEnd(_));
                    if let Some(pl) = &mut plan {
                        pl.window.advance(&mut pl.rows_complete);
                        while let Some(&need) = pl.needed.get(pl.cursor) {
                            if let Some((_, hi)) = need {
                                if !force && pl.rows_complete <= hi {
                                    break;
                                }
                                let (row, frame_id) = (pl.cursor as u32, next_frame_id);
                                next_frame_id += 1;
                                let (inl, outl) = (pl.in_lattice, pl.out_lattice);
                                let mut points = Vec::new();
                                for col in 0..outl.width {
                                    let Some((fc, fr)) = source(&inl, &outl, col, row) else {
                                        continue;
                                    };
                                    if fc < -0.5
                                        || fr < -0.5
                                        || fc > f64::from(inl.width) - 0.5
                                        || fr > f64::from(inl.height) - 0.5
                                    {
                                        continue;
                                    }
                                    let v = sample_source(&pl.window, fc, fr, cfg.kernel);
                                    points.push(Element::point(Cell::new(col, row), v as f32));
                                }
                                if !points.is_empty() {
                                    stats.frames_out += 1;
                                    stats.points_out += points.len() as u64;
                                    out.push(Element::FrameStart(FrameInfo {
                                        frame_id,
                                        sector_id: pl.sector_id,
                                        timestamp: pl.timestamp,
                                        cells: CellBox::new(0, row, outl.width - 1, row),
                                        synth_ns: 0,
                                    }));
                                    out.extend(points);
                                    let end = FrameEnd { frame_id, sector_id: pl.sector_id };
                                    out.push(Element::FrameEnd(end));
                                }
                            }
                            pl.cursor += 1;
                            // Drop the rows below every later output row's window.
                            let keep = pl.needed[pl.cursor..]
                                .iter()
                                .flatten()
                                .map(|(lo, _)| *lo)
                                .min()
                                .unwrap_or(pl.in_lattice.height);
                            pl.window.evict_below(keep, &mut stats);
                        }
                    }
                    if force {
                        if let Some(pl) = plan.take() {
                            let n = pl.window.points();
                            stats.shrink(n);
                        }
                        if !std::mem::take(&mut dropping) {
                            out.push(el);
                        }
                    }
                }
            }
        }
        (out, stats)
    }

    /// `focal`, one element at a time: buffer input rows as they arrive;
    /// at each `FrameEnd` advance the completion watermark over the
    /// leading rows received (or dropped) and emit each output row whose
    /// `k` rows are complete — every cell of the sector row, with the
    /// neighbourhood clamped to the sector and to the rows seen — as a
    /// frame of its own, id `sector_id × height + row`, stamped with the
    /// last input frame's timestamp; drop the rows more than `k / 2`
    /// above the next output row; at `SectorEnd` emit the rest. Sobel
    /// and Laplacian are 3 × 3; other sizes round up to odd and at least
    /// 3. Returns the elements and the operator's counters.
    pub fn focal(els: &[Element<f32>], func: FocalFunc, k: u32) -> (Els, OpStats) {
        let k = if func.fixed_3x3() { 3 } else { k.max(3) | 1 };
        let h = k / 2;
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        let (mut window, mut sector_id, mut timestamp) =
            (None::<RowWindow>, 0u64, Timestamp::default());
        let (mut rows_complete, mut cursor) = (0u32, 0u32);
        for el in els.iter().cloned() {
            let force = match el {
                Element::SectorStart(ref si) => {
                    window = Some(RowWindow::new(&si.lattice));
                    (rows_complete, cursor) = (0, 0);
                    (sector_id, timestamp) = (si.sector_id, si.timestamp);
                    out.push(el);
                    continue;
                }
                Element::FrameStart(fi) => {
                    stats.frames_in += 1;
                    stats.stalls += 1;
                    timestamp = fi.timestamp;
                    continue;
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    if let Some(w) = &mut window {
                        w.set(p.cell, p.value, &mut stats);
                    }
                    continue;
                }
                Element::FrameEnd(_) => false,
                Element::SectorEnd(_) => true,
            };
            if let Some(w) = &mut window {
                w.advance(&mut rows_complete);
                let (width, height) = (w.width, w.height);
                while cursor < height {
                    if !(force || rows_complete > cursor + h || rows_complete >= height) {
                        break;
                    }
                    let (row, frame_id) =
                        (cursor, sector_id * u64::from(height) + u64::from(cursor));
                    stats.frames_out += 1;
                    out.push(Element::FrameStart(FrameInfo {
                        frame_id,
                        sector_id,
                        timestamp,
                        cells: CellBox::new(0, row, width.saturating_sub(1), row),
                        synth_ns: 0,
                    }));
                    for col in 0..width {
                        let v = focal_at(w, func, k, col, row);
                        stats.points_out += 1;
                        out.push(Element::point(Cell::new(col, row), f32::from_f64(v)));
                    }
                    out.push(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
                    cursor += 1;
                    if cursor > h {
                        w.evict_below(cursor - h, &mut stats);
                    }
                }
            }
            if force {
                if let Some(w) = window.take() {
                    let n = w.points();
                    stats.shrink(n);
                }
                out.push(el);
            }
        }
        (out, stats)
    }

    /// The focal function at one cell over the buffered rows.
    fn focal_at(w: &RowWindow, func: FocalFunc, k: u32, col: u32, row: u32) -> f64 {
        let (c, r, h) = (i64::from(col), i64::from(row), i64::from(k / 2));
        let g = |dc: i64, dr: i64| w.at(c + dc, r + dr);
        let square = || (-h..=h).flat_map(move |dr| (-h..=h).map(move |dc| g(dc, dr)));
        match func {
            FocalFunc::Sobel => {
                let gx =
                    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1));
                let gy =
                    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1));
                gx.hypot(gy)
            }
            FocalFunc::Laplacian => g(-1, 0) + g(1, 0) + g(0, -1) + g(0, 1) - 4.0 * g(0, 0),
            FocalFunc::Mean => square().fold(0.0, |acc, v| acc + v) / f64::from(k * k),
            FocalFunc::Min => square().fold(f64::INFINITY, f64::min),
            FocalFunc::Max => square().fold(f64::NEG_INFINITY, f64::max),
            FocalFunc::Median => {
                let mut vals: Vec<f64> = square().collect();
                vals.sort_by(f64::total_cmp);
                vals[vals.len() / 2]
            }
        }
    }

    /// `shed`: every `stride`-th frame (`Rows`), or the points on the
    /// `stride` subgrid (`Points`).
    pub fn shed(els: &[Element<f32>], policy: ShedPolicy, stride: u32) -> Els {
        let (mut frames, mut keeping) = (0u64, true);
        let keep = |el: &&Element<f32>| match (el, policy) {
            (Element::FrameStart(_), ShedPolicy::Rows) => {
                keeping = frames.is_multiple_of(u64::from(stride));
                frames += 1;
                keeping
            }
            (Element::Point(_) | Element::FrameEnd(_), ShedPolicy::Rows) => keeping,
            (Element::Point(p), ShedPolicy::Points) => {
                p.cell.col % stride == 0 && p.cell.row % stride == 0
            }
            _ => true,
        };
        els.iter().filter(keep).cloned().collect()
    }

    /// One input of the reference join.
    #[derive(Default)]
    struct JoinSide {
        /// Elements pulled so far, and sectors closed among them: how
        /// far the input has got.
        pulled: usize,
        sectors: u64,
        ts: Option<Timestamp>,
        lattice: Option<LatticeGeoref>,
        closed: bool,
        done: bool,
        buf: HashMap<(i64, Cell), f32>,
    }

    /// `compose`: a symmetric hash join on `(timestamp, cell)` that pulls
    /// one element at a time from the input that is behind (fewer
    /// sectors closed, then fewer elements pulled; the left on a tie).
    /// A point meets its partner waiting on the other side or waits in
    /// its own side's buffer. The left input's sectors are the output's;
    /// a sector closes when both inputs have closed theirs (or the input
    /// has ended), and the composed points of one timestamp form one
    /// frame over the whole sector. Waiting points older than both
    /// inputs' current frame timestamps, and every waiting point once
    /// both inputs have ended, are dropped; so is every point while the
    /// two sector lattices differ. Returns the elements, the operator's
    /// counters and the number of points dropped unmatched.
    pub fn compose(inputs: [&[Element<f32>]; 2], op: GammaOp) -> (Els, OpStats, u64) {
        let (mut out, mut stats, mut unmatched) = (Vec::new(), OpStats::default(), 0u64);
        let mut sides = [JoinSide::default(), JoinSide::default()];
        let (mut active, mut mismatch) = (None::<SectorInfo>, false);
        let (mut frame, mut next_frame_id) = (None::<(Timestamp, u64, u64)>, 0u64);
        let close_frame = |out: &mut Els, frame: &mut Option<(Timestamp, u64, u64)>| {
            if let Some((_, frame_id, sector_id)) = frame.take() {
                out.push(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
            }
        };
        loop {
            let s = match (sides[0].done, sides[1].done) {
                (true, true) => break,
                (true, false) => 1,
                (false, true) => 0,
                _ => usize::from(
                    (sides[0].sectors, sides[0].pulled) > (sides[1].sectors, sides[1].pulled),
                ),
            };
            let Some(el) = inputs[s].get(sides[s].pulled).cloned() else {
                (sides[s].done, sides[s].closed) = (true, true);
                continue;
            };
            sides[s].pulled += 1;
            match el {
                Element::SectorStart(si) => {
                    sides[s].lattice = Some(si.lattice);
                    if s == 0 {
                        out.push(Element::SectorStart(si.clone()));
                        active = Some(si);
                    }
                    mismatch = matches!(
                        (sides[0].lattice, sides[1].lattice),
                        (Some(a), Some(b)) if a != b
                    );
                }
                Element::FrameStart(fi) => {
                    stats.frames_in += 1;
                    sides[s].ts = Some(fi.timestamp);
                    if let (Some(l), Some(r)) = (sides[0].ts, sides[1].ts) {
                        let watermark = l.value().min(r.value());
                        for side in &mut sides {
                            let before = side.buf.len() as u64;
                            side.buf.retain(|k, _| k.0 >= watermark);
                            let dropped = before - side.buf.len() as u64;
                            unmatched += dropped;
                            stats.shrink(dropped);
                        }
                    }
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    if mismatch {
                        unmatched += 1;
                        continue;
                    }
                    let ts = sides[s].ts.unwrap_or_default();
                    let key = (ts.value(), p.cell);
                    let Some(other) = sides[1 - s].buf.remove(&key) else {
                        sides[s].buf.insert(key, p.value);
                        stats.grow(1);
                        continue;
                    };
                    stats.shrink(1);
                    let (a, b) = if s == 0 { (p.value, other) } else { (other, p.value) };
                    if frame.is_none_or(|(open, _, _)| open != ts) {
                        close_frame(&mut out, &mut frame);
                        let sector_id = active.as_ref().map_or(0, |si| si.sector_id);
                        let cells = active.as_ref().map_or(CellBox::new(0, 0, 0, 0), |si| {
                            CellBox::full(si.lattice.width, si.lattice.height)
                        });
                        stats.frames_out += 1;
                        out.push(Element::FrameStart(FrameInfo {
                            frame_id: next_frame_id,
                            sector_id,
                            timestamp: ts,
                            cells,
                            synth_ns: 0,
                        }));
                        frame = Some((ts, next_frame_id, sector_id));
                        next_frame_id += 1;
                    }
                    stats.points_out += 1;
                    let v = f32::from_f64(op.apply(a.to_f64(), b.to_f64()));
                    out.push(Element::point(p.cell, v));
                }
                Element::FrameEnd(_) => {}
                Element::SectorEnd(_) => {
                    sides[s].sectors += 1;
                    sides[s].closed = true;
                    if sides[0].closed && sides[1].closed {
                        close_frame(&mut out, &mut frame);
                        if let Some(si) = active.take() {
                            out.push(Element::SectorEnd(SectorEnd { sector_id: si.sector_id }));
                        }
                        sides[0].closed = false;
                        sides[1].closed = false;
                    }
                }
            }
        }
        let dropped: u64 = sides.iter_mut().map(|s| std::mem::take(&mut s.buf).len() as u64).sum();
        unmatched += dropped;
        stats.shrink(dropped);
        close_frame(&mut out, &mut frame);
        if let Some(si) = active {
            out.push(Element::SectorEnd(SectorEnd { sector_id: si.sector_id }));
        }
        (out, stats, unmatched)
    }

    /// The sector a whole-image operator emits under `si`'s identity on
    /// `lattice`: `SectorStart`, frame `frame_id` over the full lattice
    /// holding `points`, `FrameEnd`, `SectorEnd`.
    fn whole_sector(
        out: &mut Els,
        si: &SectorInfo,
        lattice: LatticeGeoref,
        frame_id: u64,
        points: Els,
    ) {
        let sector_id = si.sector_id;
        out.push(Element::SectorStart(SectorInfo { lattice, ..si.clone() }));
        out.push(Element::FrameStart(FrameInfo {
            frame_id,
            sector_id,
            timestamp: si.timestamp,
            cells: CellBox::full(lattice.width, lattice.height),
            synth_ns: 0,
        }));
        out.extend(points);
        out.push(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
        out.push(Element::SectorEnd(SectorEnd { sector_id }));
    }

    /// The row-major index of `cell` on `lattice`, if it lies inside.
    fn cell_index(lattice: &LatticeGeoref, cell: Cell) -> Option<usize> {
        (cell.col < lattice.width && cell.row < lattice.height)
            .then(|| cell.row as usize * lattice.width as usize + cell.col as usize)
    }

    /// `agg_time`, one element at a time: each sector's points go into
    /// a grid of its lattice (a later point overwrites); at `SectorEnd`
    /// the grid joins the window of the last `window` grids (8 bytes a
    /// cell; a change of lattice empties the window) and every cell
    /// present in any of them leaves, in row-major order, as the
    /// reduction of its values oldest first — one frame over the whole
    /// lattice under the sector's identity. Returns the elements and the
    /// operator's counters.
    pub fn agg_time(els: &[Element<f32>], func: AggFunc, window: usize) -> (Els, OpStats) {
        type Grid = Vec<Option<f64>>;
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        let (mut lattice, mut current, mut pending) = (None::<LatticeGeoref>, None::<Grid>, None);
        let (mut history, mut next_frame_id) = (VecDeque::<Grid>::new(), 0u64);
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(si) => {
                    if lattice != Some(si.lattice) {
                        let freed: u64 = history.iter().map(|g| g.len() as u64).sum();
                        stats.shrink(freed);
                        history.clear();
                        lattice = Some(si.lattice);
                    }
                    current = Some(vec![None; si.lattice.len() as usize]);
                    pending = Some(si);
                }
                Element::FrameStart(_) => stats.frames_in += 1,
                Element::Point(p) => {
                    stats.points_in += 1;
                    if let (Some(grid), Some(idx)) =
                        (&mut current, lattice.and_then(|l| cell_index(&l, p.cell)))
                    {
                        grid[idx] = Some(p.value.to_f64());
                    }
                }
                Element::FrameEnd(_) => {}
                Element::SectorEnd(_) => {
                    let Some(grid) = current.take() else { continue };
                    if history.len() == window {
                        if let Some(old) = history.pop_front() {
                            stats.shrink(old.len() as u64);
                        }
                    }
                    stats.grow(grid.len() as u64);
                    history.push_back(grid);
                    let (Some(si), Some(lat)) = (pending.take(), lattice) else { continue };
                    stats.frames_out += 1;
                    let mut points = Vec::new();
                    for idx in 0..lat.len() as usize {
                        let obs: Vec<f64> = history.iter().filter_map(|g| g[idx]).collect();
                        if !obs.is_empty() {
                            stats.points_out += 1;
                            let w = lat.width as usize;
                            let cell = Cell::new((idx % w) as u32, (idx / w) as u32);
                            points.push(Element::point(cell, func.reduce(&obs) as f32));
                        }
                    }
                    whole_sector(&mut out, &si, lat, next_frame_id, points);
                    next_frame_id += 1;
                }
            }
        }
        (out, stats)
    }

    /// `delay`, one element at a time: each sector's points go into a
    /// grid of its lattice (a later point overwrites); at `SectorEnd`
    /// the grid joins the delay line (4 bytes a cell), and once the line
    /// holds more than `d` grids its oldest leaves — its present cells
    /// in row-major order, one frame over its own lattice — under the
    /// closing sector's identity. Returns the elements and the
    /// operator's counters.
    pub fn delay(els: &[Element<f32>], d: usize) -> (Els, OpStats) {
        type Grid = (LatticeGeoref, Vec<Option<f32>>);
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        let (mut line, mut current, mut pending) = (VecDeque::<Grid>::new(), None::<Grid>, None);
        let mut next_frame_id = 0u64;
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(si) => {
                    current = Some((si.lattice, vec![None; si.lattice.len() as usize]));
                    pending = Some(si);
                }
                Element::FrameStart(_) | Element::FrameEnd(_) => stats.stalls += 1,
                Element::Point(p) => {
                    stats.points_in += 1;
                    if let Some((lat, grid)) = &mut current {
                        if let Some(idx) = cell_index(lat, p.cell) {
                            grid[idx] = Some(p.value);
                        }
                    }
                }
                Element::SectorEnd(_) => {
                    let Some(si) = pending.take() else { continue };
                    if let Some(grid) = current.take() {
                        stats.grow(grid.1.len() as u64);
                        line.push_back(grid);
                    }
                    if line.len() <= d {
                        continue;
                    }
                    let Some((lat, grid)) = line.pop_front() else { continue };
                    stats.frames_out += 1;
                    let w = lat.width as usize;
                    let points: Els = (0..grid.len())
                        .filter_map(|idx| {
                            let v = grid[idx]?;
                            stats.points_out += 1;
                            Some(Element::point(Cell::new((idx % w) as u32, (idx / w) as u32), v))
                        })
                        .collect();
                    whole_sector(&mut out, &si, lat, next_frame_id, points);
                    next_frame_id += 1;
                    stats.shrink(grid.len() as u64);
                }
            }
        }
        (out, stats)
    }

    /// `stretch`, one element at a time: hold every element of the scope
    /// — a frame up to its `FrameEnd`, or an image up to its
    /// `SectorEnd` — feeding each point's value to the scope's range
    /// tracker (and histogram) in stream order; once the scope closes,
    /// or the input ends, emit the held elements with each value
    /// stretched by the complete statistics. A `SectorStart` that finds
    /// nothing held passes straight through. The histogram spans the
    /// input's nominal `value_range` (one unit wide when empty). Returns
    /// the elements and the operator's counters.
    pub fn stretch(
        els: &[Element<f32>],
        mode: StretchMode,
        scope: StretchScope,
        value_range: (f64, f64),
    ) -> (Els, OpStats) {
        let (mut out, mut stats, mut held) = (Vec::new(), OpStats::default(), Vec::new());
        let (lo, hi) = value_range;
        let range = (lo, if hi > lo { hi } else { lo + 1.0 });
        let new_hist = || match mode {
            StretchMode::HistEq { bins } => Some(Histogram::new(range.0, range.1, bins.max(2))),
            _ => None,
        };
        let (mut tracker, mut hist) = (RangeTracker::new(), new_hist());
        let flush = |held: &mut Els,
                     tracker: &mut RangeTracker,
                     hist: &mut Option<Histogram>,
                     out: &mut Els,
                     stats: &mut OpStats| {
            let released = held.iter().filter(|e| e.is_point()).count() as u64;
            stats.shrink(released);
            for el in held.drain(..) {
                out.push(match el {
                    Element::Point(p) => {
                        stats.points_out += 1;
                        let v = p.value.to_f64();
                        let v = match mode {
                            StretchMode::Linear { out_lo, out_hi } => {
                                tracker.stretch(v, out_lo, out_hi)
                            }
                            StretchMode::HistEq { .. } => {
                                hist.as_ref().map_or(0.0, |h| h.equalize(v, 0.0, 1.0))
                            }
                            StretchMode::Gaussian { n_sigma } => {
                                tracker.gaussian_stretch(v, 0.0, 1.0, n_sigma)
                            }
                        };
                        Element::point(p.cell, v as f32)
                    }
                    Element::FrameStart(fi) => {
                        stats.frames_out += 1;
                        Element::FrameStart(fi)
                    }
                    other => other,
                });
            }
            *tracker = RangeTracker::new();
            *hist = new_hist();
        };
        for el in els.iter().cloned() {
            let closes = match &el {
                Element::SectorStart(_) if held.is_empty() => {
                    out.push(el);
                    continue;
                }
                Element::FrameStart(_) => {
                    stats.frames_in += 1;
                    stats.stalls += 1;
                    false
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    tracker.push(p.value.to_f64());
                    if let Some(h) = &mut hist {
                        h.push(p.value.to_f64());
                    }
                    stats.grow(1);
                    false
                }
                Element::FrameEnd(_) => scope == StretchScope::Frame,
                Element::SectorEnd(_) => true,
                Element::SectorStart(_) => false,
            };
            held.push(el);
            if closes {
                flush(&mut held, &mut tracker, &mut hist, &mut out, &mut stats);
            }
        }
        if !held.is_empty() {
            flush(&mut held, &mut tracker, &mut hist, &mut out, &mut stats);
        }
        (out, stats)
    }

    /// `magnify`, one element at a time: each point becomes its `k × k`
    /// block, rows of the block top to bottom; the sector's lattice and
    /// each frame's cell box scale by `k`. Returns the elements and the
    /// operator's counters.
    pub fn magnify(els: &[Element<f32>], k: u32) -> (Els, OpStats) {
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(si) => out.push(Element::SectorStart(SectorInfo {
                    lattice: si.lattice.magnified(k),
                    ..si
                })),
                Element::FrameStart(fi) => {
                    stats.frames_in += 1;
                    stats.frames_out += 1;
                    let c = fi.cells;
                    let cells = CellBox::new(
                        c.col_min * k,
                        c.row_min * k,
                        c.col_max * k + (k - 1),
                        c.row_max * k + (k - 1),
                    );
                    out.push(Element::FrameStart(FrameInfo { cells, ..fi }));
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    for dr in 0..k {
                        for dc in 0..k {
                            stats.points_out += 1;
                            let cell = Cell::new(p.cell.col * k + dc, p.cell.row * k + dr);
                            out.push(Element::point(cell, p.value));
                        }
                    }
                }
                other => out.push(other),
            }
        }
        (out, stats)
    }

    /// `downsample`, one element at a time: one output frame per sector
    /// on the lattice reduced by `k`; each point adds its value to its
    /// block's running sum (24 bytes a live block, one buffered point per
    /// value). A block leaves as the mean of what it holds when it
    /// completes `k²` points — with every open block to its left in its
    /// row — when a frame starts below its rows, or at `SectorEnd`.
    /// Returns the elements and the operator's counters.
    pub fn downsample(els: &[Element<f32>], k: u32) -> (Els, OpStats) {
        // Open output rows from `first`, each its blocks' (sum, count)
        // and the column below which they are emitted.
        type Row = (Vec<(f64, u32)>, u32);
        let (mut out, mut stats) = (Vec::new(), OpStats::default());
        let (mut rows, mut first) = (VecDeque::<Row>::new(), 0u32);
        let (mut out_lattice, mut open, mut next_frame_id) = (None::<LatticeGeoref>, None, 0u64);
        let emit = |row: &mut Row,
                    r: u32,
                    cols: std::ops::Range<u32>,
                    out: &mut Els,
                    stats: &mut OpStats| {
            for col in cols {
                let (sum, n) = std::mem::take(&mut row.0[col as usize]);
                if n > 0 {
                    stats.shrink(u64::from(n));
                    stats.points_out += 1;
                    out.push(Element::point(Cell::new(col, r), f32::from_f64(sum / f64::from(n))));
                }
            }
        };
        let flush_above = |end: u32,
                           rows: &mut VecDeque<Row>,
                           first: &mut u32,
                           out: &mut Els,
                           stats: &mut OpStats| {
            while *first < end {
                let Some(mut row) = rows.pop_front() else { break };
                let width = row.0.len() as u32;
                emit(&mut row, *first, 0..width, out, stats);
                *first += 1;
            }
        };
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(si) => {
                    let lat = si.lattice.reduced(k);
                    out_lattice = Some(lat);
                    rows.clear();
                    open = Some((next_frame_id, si.sector_id));
                    out.push(Element::SectorStart(SectorInfo { lattice: lat, ..si.clone() }));
                    if !lat.is_empty() {
                        stats.frames_out += 1;
                        out.push(Element::FrameStart(FrameInfo {
                            frame_id: next_frame_id,
                            sector_id: si.sector_id,
                            timestamp: si.timestamp,
                            cells: CellBox::full(lat.width, lat.height),
                            synth_ns: 0,
                        }));
                    }
                    next_frame_id += 1;
                }
                Element::FrameStart(fi) => {
                    stats.frames_in += 1;
                    stats.stalls += 1;
                    flush_above(fi.cells.row_min / k, &mut rows, &mut first, &mut out, &mut stats);
                }
                Element::Point(p) => {
                    stats.points_in += 1;
                    let Some(lat) = out_lattice else { continue };
                    let (oc, or) = (p.cell.col / k, p.cell.row / k);
                    if oc >= lat.width || or >= lat.height {
                        continue;
                    }
                    if rows.is_empty() {
                        first = or;
                    }
                    let new_row = || (vec![(0.0, 0u32); lat.width as usize], 0u32);
                    while or < first {
                        rows.push_front(new_row());
                        first -= 1;
                    }
                    while or >= first + rows.len() as u32 {
                        rows.push_back(new_row());
                    }
                    let row = &mut rows[(or - first) as usize];
                    let block = &mut row.0[oc as usize];
                    block.0 += p.value.to_f64();
                    block.1 += 1;
                    let complete = block.1 == k * k;
                    stats.grow(1);
                    if complete {
                        let next = row.1;
                        emit(row, or, next.min(oc)..oc + 1, &mut out, &mut stats);
                        row.1 = next.max(oc + 1);
                    }
                }
                Element::FrameEnd(_) => {}
                Element::SectorEnd(se) => {
                    flush_above(u32::MAX, &mut rows, &mut first, &mut out, &mut stats);
                    if let Some((frame_id, sector_id)) = open.take() {
                        out.push(Element::FrameEnd(FrameEnd { frame_id, sector_id }));
                    }
                    out.push(Element::SectorEnd(SectorEnd { sector_id: se.sector_id }));
                }
            }
        }
        (out, stats)
    }
}
