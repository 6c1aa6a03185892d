//! The sector image of the operators that hold whole images: the §6
//! windowed temporal aggregate keeps the last `W` of them, the delay
//! line the last `d + 1`. Both write each input run into a
//! [`SectorImage`] — a value grid over the sector lattice with a
//! presence mask — and, at `SectorEnd`, send the grid's present cells
//! out in row-major order as one run of one full-lattice frame
//! ([`queue_sector`]).

use crate::model::chunk::RunQueue;
use crate::model::{
    Chunk, ChunkOrMarker, FrameEnd, FrameInfo, Marker, PointRecord, SectorEnd, SectorInfo,
};
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

    /// The cell of row-major index `idx`.
    #[inline]
    pub(crate) fn cell(&self, idx: usize) -> Cell {
        let w = self.lattice.width as usize;
        Cell::new((idx % w) as u32, (idx / w) as u32)
    }
}

/// Queues one whole sector under `si`'s identity on `lattice`:
/// `SectorStart`, frame `frame_id` over the full lattice holding the
/// points `fill` writes (in the order it writes them), `FrameEnd`,
/// `SectorEnd`.
pub(crate) fn queue_sector<V: Pixel>(
    queue: &mut RunQueue<V>,
    si: &SectorInfo,
    lattice: LatticeGeoref,
    frame_id: u64,
    fill: impl FnOnce(&mut Vec<PointRecord<V>>),
) {
    let sector_id = si.sector_id;
    queue.push(ChunkOrMarker::Marker(Marker::SectorStart(SectorInfo { lattice, ..si.clone() })));
    queue.push(ChunkOrMarker::Marker(Marker::FrameStart(FrameInfo {
        frame_id,
        sector_id,
        timestamp: si.timestamp,
        cells: CellBox::full(lattice.width, lattice.height),
        synth_ns: crate::obs::now_ns(),
    })));
    let mut run = Chunk::with_budget(lattice.len() as usize);
    fill(&mut run.points);
    if let Some(item) = run.into_item(None) {
        queue.push(item);
    }
    queue.push(ChunkOrMarker::Marker(Marker::FrameEnd(FrameEnd { frame_id, sector_id })));
    queue.push(ChunkOrMarker::Marker(Marker::SectorEnd(SectorEnd { sector_id })));
}
