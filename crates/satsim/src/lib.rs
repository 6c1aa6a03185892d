//! Remote-sensing instrument simulator.
//!
//! The paper's prototype ingests live GOES downlink (§4) — 20–60 GB/day
//! of multi-spectral imagery. This crate is the substitution documented
//! in DESIGN.md: a deterministic, seeded simulator that reproduces the
//! *stream-relevant* properties of such instruments —
//!
//! * the three point organizations of Fig. 1 (image-by-image, row-by-row,
//!   point-by-point),
//! * multi-band scan sectors with scan-sector-id (or measurement-time)
//!   timestamps,
//! * native acquisition coordinate systems (geostationary view for the
//!   GOES-like preset),
//! * band-dependent resolutions and physically plausible radiance
//!   (vegetation, clouds, diurnal cycles) so products like NDVI are
//!   meaningful,
//! * the transmission multiplexing of bands (band-sequential vs
//!   line-interleaved), which drives the composition-buffering
//!   experiment E3.
//!
//! Everything is reproducible from a seed; no external data is needed.

#![warn(missing_docs)]

pub mod airborne;
pub mod faults;
pub mod field;
pub mod goes;
pub mod instrument;
pub mod lidar;
pub mod modis;
pub mod noise;
pub mod scanner;
pub mod trace;

pub use faults::{ChaosStream, FaultPlan, FaultProbe, FaultStats};
pub use field::{BandKind, EarthModel, EarthSampler};
pub use goes::goes_like;
pub use instrument::{BandSpec, Instrument};
pub use modis::modis_like;
pub use scanner::{Scanner, SyntheticStream};
