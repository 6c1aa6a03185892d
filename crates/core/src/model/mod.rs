//! The GeoStreams data model (§2 of the paper).
//!
//! * A **point** is `x = ⟨s, t⟩` — a spatial location on a regularly
//!   spaced lattice plus a [`Timestamp`].
//! * A **stream** `G : X → V` maps points to values of a value set; it is
//!   transported as a sequence of [`Element`]s interleaving point records
//!   with frame and scan-sector metadata.
//! * An **image** is the subset of a stream sharing one timestamp; the
//!   delivery operator reassembles it.
//! * A **GeoStream** attaches a coordinate system via the lattice
//!   georeference carried in the sector metadata — see [`StreamSchema`].

pub mod chunk;
mod element;
mod repair;
pub(crate) mod rows;
mod schema;
pub(crate) mod sector;
mod split;
mod stream;
mod timestamp;

pub use chunk::{
    drain_chunked, pack_elements, pool_counts, Chunk, ChunkInput, ChunkOrMarker, Marker,
    DEFAULT_CHUNK_BUDGET,
};
pub use element::{Element, FrameEnd, FrameInfo, PointRecord, SectorEnd, SectorInfo};
pub use repair::{RepairCounters, RepairProbe, RepairStats, SectorCompleteness, StreamRepair};
pub use schema::{Organization, StreamSchema};
pub use split::{split2, tee2, SideStream, TeeStream};
pub use stream::{BoxedF32Stream, ChunkChannel, GeoStream, VecStream};
pub use timestamp::{TimeSemantics, TimeSet, Timestamp};
