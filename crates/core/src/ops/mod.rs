//! The stream operator algebra (§3 of the paper).
//!
//! Three operator classes, all closed over GeoStreams:
//!
//! * **restrictions** (§3.1): [`SpatialRestrict`], [`TemporalRestrict`],
//!   [`ValueRestrict`] — non-blocking, O(1) per point, zero buffering;
//! * **transforms** (§3.2): point-wise value maps ([`MapTransform`],
//!   [`CastTransform`]), frame/image-scoped stretches
//!   ([`StretchTransform`]), and spatial transforms ([`Magnify`],
//!   [`Downsample`], [`Reproject`]);
//! * **compositions** (§3.3): [`Compose`] with `γ ∈ {+,−,×,÷,sup,inf}`,
//!   plus macro operators such as [`macro_ops::ndvi`].
//!
//! [`aggregate`] adds the spatio-temporal aggregates the paper's outlook
//! (§6) announces, and [`delivery`] reassembles images and encodes PNG
//! for clients.

pub mod aggregate;
pub mod blocking;
pub mod compose;
pub mod delay;
pub mod delivery;
pub mod focal;
pub mod lanes;
pub mod macro_ops;
pub mod orient;
pub mod protocol;
pub mod reproject;
pub mod restrict;
pub mod shed;
pub mod spatial;
pub mod stretch;
pub mod value_transform;

pub use aggregate::{AggFunc, SpatialAggregate, TemporalAggregate};
pub use blocking::BlockingClass;
pub use compose::{Compose, GammaOp};
pub use delay::Delay;
pub use delivery::{ImageAssembler, PngSink, RgbComposite};
pub use focal::{FocalFunc, FocalTransform};
pub use orient::{Orient, Orientation};
pub use protocol::{
    meet, CertBuilder, ChunkDiscipline, ChunkProtocolChecker, Granularity, MarkerEffect,
    OrderEffect, Parallelism, ProtocolCertificate, ProtocolContract, StageCheck, StreamGuarantees,
    Violation,
};
pub use reproject::{Reproject, ReprojectConfig};
pub use restrict::{SpatialRestrict, TemporalRestrict, ValueRestrict};
pub use shed::{Shed, ShedPolicy};
pub use spatial::{Downsample, Magnify};
pub use stretch::{StretchMode, StretchScope, StretchTransform};
pub use value_transform::{CastTransform, MapTransform, ValueFunc};
