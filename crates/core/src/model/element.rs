//! Stream elements: the wire protocol of a GeoStream.
//!
//! A stream is transported as a sequence of [`Element`]s:
//!
//! ```text
//! SectorStart (metadata: full lattice of the upcoming scan sector)
//!   FrameStart (timestamp + cell range)
//!     Point*    (lattice cell + value)
//!   FrameEnd
//!   FrameStart …
//! SectorEnd
//! SectorStart …
//! ```
//!
//! The sector metadata is exactly the "auxiliary information about the
//! spatial region currently scanned by an instrument … added as metadata
//! to the stream of image data" that §3.2 prescribes so that spatial
//! transforms need not block indefinitely. A *frame* is the unit of
//! arrival sharing one timestamp (a whole image for frame cameras, a
//! single row for GOES-style scanners, a small burst for LIDAR — Fig. 1);
//! an *image* in the paper's Definition 4 corresponds to all frames of
//! one timestamp.

use super::schema::Organization;
use super::timestamp::Timestamp;
use geostreams_geo::{Cell, CellBox, LatticeGeoref};
use serde::{Deserialize, Serialize};

/// Metadata announcing a scan sector: the full spatial extent the
/// instrument is about to deliver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectorInfo {
    /// Sector identifier: strictly greater than the id of the sector
    /// before it in the stream.
    pub sector_id: u64,
    /// Georeferenced lattice covering the whole sector.
    pub lattice: LatticeGeoref,
    /// Spectral band of this stream.
    pub band: u16,
    /// Point organization within the sector.
    pub organization: Organization,
    /// Sector timestamp (equals every frame's timestamp under sector-id
    /// semantics).
    pub timestamp: Timestamp,
}

/// Metadata opening a frame: a maximal same-timestamp chunk of arrival.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FrameInfo {
    /// Frame identifier: strictly greater than the id of the frame
    /// before it in the stream (across sectors too), so unique within
    /// the stream.
    pub frame_id: u64,
    /// Sector this frame belongs to.
    pub sector_id: u64,
    /// Shared timestamp of every point in the frame.
    pub timestamp: Timestamp,
    /// Cell range of the sector lattice this frame covers.
    pub cells: CellBox,
    /// Synthesis tick: when the frame was materialized, on the
    /// [`now_ns`](crate::obs::now_ns) process clock (0 = unknown).
    /// Event-time freshness metadata only — excluded from equality so
    /// separately-synthesized but identical streams still compare
    /// equal, and delivery-side lag is `now_ns() - synth_ns`.
    #[serde(default)]
    pub synth_ns: u64,
}

impl PartialEq for FrameInfo {
    fn eq(&self, other: &Self) -> bool {
        // synth_ns is wall-clock provenance, not frame identity.
        self.frame_id == other.frame_id
            && self.sector_id == other.sector_id
            && self.timestamp == other.timestamp
            && self.cells == other.cells
    }
}

/// Closes a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameEnd {
    /// Frame being closed.
    pub frame_id: u64,
    /// Sector the frame belongs to.
    pub sector_id: u64,
}

/// Closes a scan sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectorEnd {
    /// Sector being closed.
    pub sector_id: u64,
}

/// One stream point: a lattice cell plus its value. The world coordinate
/// and timestamp are derived from the enclosing sector/frame metadata,
/// which keeps the per-point payload minimal (the paper's Definition 1
/// restricts point sets to regular lattices precisely to allow this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointRecord<V> {
    /// Cell within the sector lattice.
    pub cell: Cell,
    /// The point's value.
    pub value: V,
}

/// A stream element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element<V> {
    /// Announces a scan sector (metadata).
    SectorStart(SectorInfo),
    /// Opens a frame.
    FrameStart(FrameInfo),
    /// A data point.
    Point(PointRecord<V>),
    /// Closes a frame.
    FrameEnd(FrameEnd),
    /// Closes a sector.
    SectorEnd(SectorEnd),
}

impl<V> Element<V> {
    /// Convenience constructor for a point element.
    pub fn point(cell: Cell, value: V) -> Self {
        Element::Point(PointRecord { cell, value })
    }

    /// Is this a point element?
    pub fn is_point(&self) -> bool {
        matches!(self, Element::Point(_))
    }

    /// Maps the value type, preserving metadata.
    pub fn map_value<W>(self, f: impl FnOnce(V) -> W) -> Element<W> {
        match self {
            Element::SectorStart(s) => Element::SectorStart(s),
            Element::FrameStart(fi) => Element::FrameStart(fi),
            Element::Point(p) => Element::Point(PointRecord { cell: p.cell, value: f(p.value) }),
            Element::FrameEnd(fe) => Element::FrameEnd(fe),
            Element::SectorEnd(se) => Element::SectorEnd(se),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_geo::{Crs, Rect};

    fn sector() -> SectorInfo {
        SectorInfo {
            sector_id: 7,
            lattice: LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), 2, 2),
            band: 1,
            organization: Organization::RowByRow,
            timestamp: Timestamp::new(7),
        }
    }

    #[test]
    fn element_point_constructor() {
        let el: Element<u8> = Element::point(Cell::new(1, 2), 42);
        assert!(el.is_point());
        match el {
            Element::Point(p) => {
                assert_eq!(p.cell, Cell::new(1, 2));
                assert_eq!(p.value, 42);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn map_value_preserves_metadata() {
        let el: Element<u8> = Element::SectorStart(sector());
        let mapped: Element<f32> = el.map_value(f32::from);
        assert!(matches!(mapped, Element::SectorStart(s) if s.sector_id == 7));

        let el: Element<u8> = Element::point(Cell::new(0, 0), 10);
        let mapped: Element<f32> = el.map_value(|v| f32::from(v) * 2.0);
        match mapped {
            Element::Point(p) => assert_eq!(p.value, 20.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn elements_serialize() {
        let el: Element<f32> = Element::FrameStart(FrameInfo {
            frame_id: 3,
            sector_id: 7,
            timestamp: Timestamp::new(7),
            cells: CellBox::new(0, 1, 1, 1),
            synth_ns: 0,
        });
        let json = serde_json::to_string(&el).unwrap();
        let back: Element<f32> = serde_json::from_str(&json).unwrap();
        assert_eq!(el, back);
    }
}
