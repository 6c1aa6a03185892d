//! Exact orientation transforms: rotation and mirroring (§3.2: spatial
//! transforms "allow for magnification (zooming), rotation, and general
//! affine transformations").
//!
//! The eight dihedral orientations of a raster are *exact* spatial
//! transforms: every input point maps to exactly one output cell, so —
//! unlike resampling transforms — the operator is point-wise,
//! non-blocking, and buffer-free, like a restriction. The content is
//! re-oriented within the sector's world footprint (the transform acts
//! on the image, not the georeference; quarter-turns therefore swap the
//! lattice dimensions).

use crate::model::{ChunkOrMarker, FrameInfo, GeoStream, Marker, SectorInfo, StreamSchema};
use crate::stats::{OpReport, OpStats};
use geostreams_geo::{Cell, CellBox, LatticeGeoref, Rect};
use serde::{Deserialize, Serialize};

/// One of the non-identity dihedral orientations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Orientation {
    /// Quarter turn counter-clockwise.
    Rot90,
    /// Half turn.
    Rot180,
    /// Quarter turn clockwise.
    Rot270,
    /// Mirror across the vertical axis (left-right).
    FlipH,
    /// Mirror across the horizontal axis (top-bottom).
    FlipV,
    /// Mirror across the main diagonal.
    Transpose,
}

impl Orientation {
    /// Parses the textual name used by the query language.
    pub fn from_name(s: &str) -> Option<Orientation> {
        Some(match s.to_ascii_lowercase().as_str() {
            "rot90" | "90" => Orientation::Rot90,
            "rot180" | "180" => Orientation::Rot180,
            "rot270" | "270" | "-90" => Orientation::Rot270,
            "fliph" | "h" | "mirror" => Orientation::FlipH,
            "flipv" | "v" => Orientation::FlipV,
            "transpose" | "t" => Orientation::Transpose,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Orientation::Rot90 => "rot90",
            Orientation::Rot180 => "rot180",
            Orientation::Rot270 => "rot270",
            Orientation::FlipH => "fliph",
            Orientation::FlipV => "flipv",
            Orientation::Transpose => "transpose",
        }
    }

    /// Whether the orientation swaps lattice width and height.
    pub fn swaps_axes(self) -> bool {
        matches!(self, Orientation::Rot90 | Orientation::Rot270 | Orientation::Transpose)
    }

    /// Maps an input cell into the output lattice (`w`, `h` are the
    /// *input* dimensions).
    #[inline]
    pub fn map_cell(self, cell: Cell, w: u32, h: u32) -> Cell {
        let (c, r) = (cell.col, cell.row);
        match self {
            // CCW quarter turn: the top row becomes the left column.
            Orientation::Rot90 => Cell::new(r, w - 1 - c),
            Orientation::Rot180 => Cell::new(w - 1 - c, h - 1 - r),
            Orientation::Rot270 => Cell::new(h - 1 - r, c),
            Orientation::FlipH => Cell::new(w - 1 - c, r),
            Orientation::FlipV => Cell::new(c, h - 1 - r),
            Orientation::Transpose => Cell::new(r, c),
        }
    }

    /// The inverse orientation.
    pub fn inverse(self) -> Orientation {
        match self {
            Orientation::Rot90 => Orientation::Rot270,
            Orientation::Rot270 => Orientation::Rot90,
            other => other,
        }
    }
}

/// The orientation operator: per-point cell remapping, zero buffering.
/// Each input run is remapped in place, in its own order.
pub struct Orient<S: GeoStream> {
    input: S,
    orientation: Orientation,
    in_dims: (u32, u32),
    stats: OpStats,
    schema: StreamSchema,
}

impl<S: GeoStream> Orient<S> {
    /// Creates the orientation transform.
    pub fn new(input: S, orientation: Orientation) -> Self {
        let schema = input.schema().renamed(format!("orient[{}]", orientation.name()));
        Orient { input, orientation, in_dims: (0, 0), stats: OpStats::default(), schema }
    }

    fn map_box(&self, cells: CellBox) -> CellBox {
        let (w, h) = self.in_dims;
        let a = self.orientation.map_cell(Cell::new(cells.col_min, cells.row_min), w, h);
        let b = self.orientation.map_cell(Cell::new(cells.col_max, cells.row_max), w, h);
        CellBox::new(a.col.min(b.col), a.row.min(b.row), a.col.max(b.col), a.row.max(b.row))
    }

    /// Re-orients a marker: the sector's lattice, a frame's cell box.
    fn map_marker(&mut self, marker: Marker) -> Marker {
        match marker {
            Marker::SectorStart(si) => {
                self.in_dims = (si.lattice.width, si.lattice.height);
                let lat = si.lattice;
                let out_lattice = if self.orientation.swaps_axes() {
                    // Re-grid the same world footprint with swapped dims.
                    let bbox: Rect = lat.world_bbox();
                    LatticeGeoref::north_up(lat.crs, bbox, lat.height, lat.width)
                } else {
                    lat
                };
                Marker::SectorStart(SectorInfo { lattice: out_lattice, ..si })
            }
            Marker::FrameStart(fi) => {
                self.stats.frames_in += 1;
                self.stats.frames_out += 1;
                Marker::FrameStart(FrameInfo { cells: self.map_box(fi.cells), ..fi })
            }
            other => other,
        }
    }
}

impl<S: GeoStream> GeoStream for Orient<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        Some(match self.input.next_chunk(budget)? {
            ChunkOrMarker::Chunk(mut c) => {
                let n = c.points.len() as u64;
                self.stats.points_in += n;
                self.stats.points_out += n;
                let ((w, h), orientation) = (self.in_dims, self.orientation);
                for p in &mut c.points {
                    p.cell = orientation.map_cell(p.cell, w, h);
                }
                c.end = c.end.take().map(|m| self.map_marker(m));
                ChunkOrMarker::Chunk(c)
            }
            ChunkOrMarker::Marker(m) => ChunkOrMarker::Marker(self.map_marker(m)),
        })
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Orientation changes remap cells point-wise and pass markers through,
/// but the points keep the input's scan order: flips and the half turn
/// run right to left or bottom to top, quarter turns column by column.
/// That breaks lattice order for every stage above that needs it.
pub fn orient_contract() -> crate::ops::ProtocolContract {
    use crate::ops::protocol::{Granularity, OrderEffect, Parallelism};
    // Point-wise, but the output lattice is derived from `SectorStart`
    // (quarter-turns swap its dimensions), so the morsel unit is the
    // sector bracket, not the frame.
    let mut contract = crate::ops::ProtocolContract::forwarding("orient")
        .with_parallelism(Parallelism::Partitionable, Granularity::Sector);
    contract.order = OrderEffect::Break;
    contract
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::Crs;

    fn source(w: u32, h: u32) -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 4.0), w, h);
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + 100 * r))
    }

    fn grid_of<S: GeoStream<V = f32>>(mut s: S) -> Vec<Vec<f32>> {
        let mut dims = (0u32, 0u32);
        let mut pts = Vec::new();
        while let Some(el) = s.next_element() {
            match el {
                Element::SectorStart(si) => dims = (si.lattice.width, si.lattice.height),
                Element::Point(p) => pts.push(p),
                _ => {}
            }
        }
        let mut grid = vec![vec![f32::NAN; dims.0 as usize]; dims.1 as usize];
        for p in pts {
            grid[p.cell.row as usize][p.cell.col as usize] = p.value;
        }
        grid
    }

    #[test]
    fn names_parse() {
        assert_eq!(Orientation::from_name("rot90"), Some(Orientation::Rot90));
        assert_eq!(Orientation::from_name("H"), Some(Orientation::FlipH));
        assert_eq!(Orientation::from_name("sideways"), None);
    }

    #[test]
    fn flip_h_mirrors_columns() {
        let g = grid_of(Orient::new(source(4, 2), Orientation::FlipH));
        // Input row 0 is [0,1,2,3] -> output [3,2,1,0].
        assert_eq!(g[0], vec![3.0, 2.0, 1.0, 0.0]);
        assert_eq!(g[1][0], 103.0);
    }

    #[test]
    fn rot90_turns_top_row_into_left_column() {
        let g = grid_of(Orient::new(source(4, 2), Orientation::Rot90));
        // Output is 2 wide, 4 tall.
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].len(), 2);
        // Input (c=3, r=0) -> output (0, 0): value 3.
        assert_eq!(g[0][0], 3.0);
        // Input (c=0, r=0) -> output (0, 3).
        assert_eq!(g[3][0], 0.0);
        // Input (c=0, r=1) -> output (1, 3).
        assert_eq!(g[3][1], 100.0);
    }

    #[test]
    fn involutions_are_identity() {
        for o in
            [Orientation::Rot180, Orientation::FlipH, Orientation::FlipV, Orientation::Transpose]
        {
            let twice = Orient::new(Orient::new(source(5, 3), o), o);
            let g = grid_of(twice);
            let base = grid_of(source(5, 3));
            assert_eq!(g, base, "{o:?} twice");
        }
    }

    #[test]
    fn four_quarter_turns_are_identity() {
        let s = Orient::new(
            Orient::new(
                Orient::new(Orient::new(source(5, 3), Orientation::Rot90), Orientation::Rot90),
                Orientation::Rot90,
            ),
            Orientation::Rot90,
        );
        assert_eq!(grid_of(s), grid_of(source(5, 3)));
    }

    #[test]
    fn rot90_then_rot270_cancels() {
        let s = Orient::new(Orient::new(source(6, 4), Orientation::Rot90), Orientation::Rot270);
        assert_eq!(grid_of(s), grid_of(source(6, 4)));
    }

    #[test]
    fn orientation_never_buffers() {
        let mut op = Orient::new(source(32, 16), Orientation::Rot270);
        let _ = op.drain_points();
        assert_eq!(op.op_stats().buffered_points_peak, 0);
        assert_eq!(op.op_stats().points_out, 512);
    }

    #[test]
    fn map_cell_round_trips_through_inverse() {
        let (w, h) = (7u32, 5u32);
        for o in [
            Orientation::Rot90,
            Orientation::Rot180,
            Orientation::Rot270,
            Orientation::FlipH,
            Orientation::FlipV,
            Orientation::Transpose,
        ] {
            let (ow, oh) = if o.swaps_axes() { (h, w) } else { (w, h) };
            for c in 0..w {
                for r in 0..h {
                    let mapped = o.map_cell(Cell::new(c, r), w, h);
                    assert!(mapped.col < ow && mapped.row < oh, "{o:?} {c},{r} -> {mapped}");
                    let back = o.inverse().map_cell(mapped, ow, oh);
                    assert_eq!(back, Cell::new(c, r), "{o:?}");
                }
            }
        }
    }
}
