//! The sector image of the operators that hold whole images: the §6
//! windowed temporal aggregate keeps the last `W` of them and the open
//! one, the delay line the last `d + 1`. Both write each input run into
//! a [`SectorImage`] — a value grid over the sector lattice with a
//! presence mask — and, at `SectorEnd`, send the present cells out in
//! row-major order as one full-lattice frame, a pull budget of them at a
//! time ([`SectorOut`]).

use crate::model::chunk::RunQueue;
use crate::model::{
    ChunkOrMarker, FrameEnd, FrameInfo, Marker, PointRecord, SectorEnd, SectorInfo,
};
use crate::stats::bytes_of;
use geostreams_geo::{Cell, CellBox, LatticeGeoref};
use geostreams_raster::Pixel;

/// One sector's values on its lattice, cell by cell in row-major order;
/// a cell no point reached is absent.
pub(crate) struct SectorImage<T> {
    lattice: LatticeGeoref,
    values: Vec<T>,
    present: Vec<bool>,
}

impl<T: Copy + Default> SectorImage<T> {
    /// An image of `lattice` with every cell absent.
    pub(crate) fn new(lattice: LatticeGeoref) -> Self {
        let n = (lattice.width as usize) * (lattice.height as usize);
        SectorImage { lattice, values: vec![T::default(); n], present: vec![false; n] }
    }

    /// The lattice the image covers.
    pub(crate) fn lattice(&self) -> LatticeGeoref {
        self.lattice
    }

    /// Cells in the image, present or not.
    pub(crate) fn cells(&self) -> u64 {
        self.values.len() as u64
    }

    /// Bytes the image has allocated: its values and its mask.
    pub(crate) fn bytes(&self) -> u64 {
        bytes_of::<T>(self.values.capacity()) + bytes_of::<bool>(self.present.capacity())
    }

    /// Bytes of an image of `cells` cells.
    pub(crate) fn bytes_for(cells: u64) -> u64 {
        bytes_of::<T>(cells as usize) + bytes_of::<bool>(cells as usize)
    }

    /// Writes a run of points: a point inside the lattice sets its cell
    /// (a later point overwrites an earlier one), any other is dropped.
    pub(crate) fn ingest<V: Pixel>(&mut self, run: &[PointRecord<V>], value: impl Fn(V) -> T) {
        let (w, h) = (self.lattice.width, self.lattice.height);
        for p in run {
            if p.cell.col < w && p.cell.row < h {
                let idx = (p.cell.row as usize) * (w as usize) + p.cell.col as usize;
                self.values[idx] = value(p.value);
                self.present[idx] = true;
            }
        }
    }

    /// The value of cell `idx` (row-major), if a point reached it.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<T> {
        self.present[idx].then(|| self.values[idx])
    }
}

/// One whole sector handed out of held images a run at a time: its
/// `SectorStart` and `FrameStart` go out first, then the present cells
/// in row-major order from a cursor, at most a pull budget of them per
/// run, then `FrameEnd` and `SectorEnd`. No run of the whole lattice is
/// ever built.
pub(crate) struct SectorOut {
    sector_id: u64,
    frame_id: u64,
    width: u32,
    /// The next cell, row-major, and the cells of the lattice.
    next: usize,
    cells: usize,
}

impl SectorOut {
    /// Queues the markers that open one sector under `si`'s identity on
    /// `lattice`, a frame `frame_id` over the whole lattice in it.
    pub(crate) fn open<V: Pixel>(
        queue: &mut RunQueue<V>,
        si: &SectorInfo,
        lattice: LatticeGeoref,
        frame_id: u64,
    ) -> Self {
        let sector_id = si.sector_id;
        queue
            .push(ChunkOrMarker::Marker(Marker::SectorStart(SectorInfo { lattice, ..si.clone() })));
        queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
            frame_id,
            sector_id,
            timestamp: si.timestamp,
            cells: CellBox::full(lattice.width, lattice.height),
            synth_ns: crate::obs::now_ns(),
        })));
        let cells = lattice.len() as usize;
        SectorOut { sector_id, frame_id, width: lattice.width, next: 0, cells }
    }

    /// Appends the cells from the cursor on to the queue's open run, each
    /// with the value `value` gives it (`None`: absent), until that run
    /// holds `budget` points; once no cell is left, queues `FrameEnd` and
    /// `SectorEnd` and returns `true`.
    pub(crate) fn fill<V: Pixel>(
        &mut self,
        queue: &mut RunQueue<V>,
        budget: usize,
        mut value: impl FnMut(usize) -> Option<V>,
    ) -> bool {
        let w = self.width as usize;
        let point = |idx: usize, value| PointRecord {
            cell: Cell::new((idx % w) as u32, (idx / w) as u32),
            value,
        };
        // A run is opened only for a point: no empty run goes out.
        while self.next < self.cells {
            let idx = self.next;
            self.next += 1;
            if let Some(v) = value(idx) {
                let run = queue.open_run();
                run.push(point(idx, v));
                while run.len() < budget && self.next < self.cells {
                    if let Some(v) = value(self.next) {
                        run.push(point(self.next, v));
                    }
                    self.next += 1;
                }
                break;
            }
        }
        if self.next < self.cells {
            return false;
        }
        let (frame_id, sector_id) = (self.frame_id, self.sector_id);
        queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd { frame_id, sector_id })));
        queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd { sector_id })));
        true
    }
}
