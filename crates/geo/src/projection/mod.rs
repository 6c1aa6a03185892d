//! Map projections, from scratch.
//!
//! Each projection converts geographic coordinates (longitude/latitude in
//! **degrees**, WGS-84) to planar coordinates (meters) and back. The paper
//! uses re-projection (`f_spat` of Definition 9) as its flagship "spatial
//! transform" — and the prototype in §4 re-projects the native GOES
//! Variable-Format grid to latitude/longitude — so this module provides the
//! geostationary satellite view plus the common cartographic projections a
//! GIS client would request (UTM is the paper's §3.4 example).
//!
//! Formulas follow Snyder (USGS PP 1395) for the classical projections and
//! the GOES-R Product User's Guide / CGMS LRIT-HRIT spec for the
//! geostationary fixed grid.

mod albers;
mod geostationary;
mod lambert;
mod latlon;
mod mercator;
mod sinusoidal;
mod stereographic;
mod transverse_mercator;

pub use albers::Albers;
pub use geostationary::Geostationary;
pub use lambert::LambertConformal;
pub use latlon::PlateCarree;
pub use mercator::Mercator;
pub use sinusoidal::Sinusoidal;
pub use stereographic::PolarStereographic;
pub use transverse_mercator::TransverseMercator;

use crate::coord::Coord;
use crate::error::Result;

/// A forward/inverse pair between geographic coordinates (degrees) and a
/// planar coordinate space (meters, except [`PlateCarree`] which keeps
/// degrees).
///
/// Implementations must satisfy `inverse(forward(p)) ≈ p` on their domain;
/// this invariant is property-tested for every projection in the crate.
pub trait Projection: Send + Sync + std::fmt::Debug {
    /// Projects geographic `(lon, lat)` degrees into planar coordinates.
    fn forward(&self, lonlat: Coord) -> Result<Coord>;

    /// Recovers geographic `(lon, lat)` degrees from planar coordinates.
    fn inverse(&self, xy: Coord) -> Result<Coord>;

    /// Projects every point of `lonlat` into `out`, which is cleared
    /// first: one entry per point, bit-equal to
    /// [`forward`](Self::forward)'s result, and `None` where `forward`
    /// fails. A projection overrides it when a run of points can share
    /// work, such as the points of one parallel.
    fn forward_batch(&self, lonlat: &[Coord], out: &mut Vec<Option<Coord>>) {
        out.clear();
        out.extend(lonlat.iter().map(|&p| self.forward(p).ok()));
    }

    /// Short human-readable name used in errors and plans.
    fn name(&self) -> &'static str;
}

/// Degrees-to-radians.
#[inline]
pub(crate) fn rad(deg: f64) -> f64 {
    deg.to_radians()
}

/// Radians-to-degrees.
#[inline]
pub(crate) fn deg(rad: f64) -> f64 {
    rad.to_degrees()
}

/// Normalizes a longitude difference into `(-180, 180]` degrees.
#[inline]
pub(crate) fn norm_lon_deg(mut lon: f64) -> f64 {
    while lon > 180.0 {
        lon -= 360.0;
    }
    while lon <= -180.0 {
        lon += 360.0;
    }
    lon
}

/// Validates a geographic coordinate and returns it in radians.
pub(crate) fn checked_lonlat_rad(lonlat: Coord) -> Result<(f64, f64)> {
    if !lonlat.is_finite() || lonlat.y.abs() > 90.0 + 1e-9 || lonlat.x.abs() > 360.0 {
        return Err(crate::error::GeoError::InvalidLatLon { lon: lonlat.x, lat: lonlat.y });
    }
    Ok((rad(norm_lon_deg(lonlat.x)), rad(lonlat.y.clamp(-90.0, 90.0))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lon_normalization_wraps_into_half_open_interval() {
        assert_eq!(norm_lon_deg(190.0), -170.0);
        assert_eq!(norm_lon_deg(-190.0), 170.0);
        assert_eq!(norm_lon_deg(180.0), 180.0);
        assert_eq!(norm_lon_deg(-180.0), 180.0);
        assert_eq!(norm_lon_deg(540.0), 180.0);
    }

    #[test]
    fn invalid_latitudes_are_rejected() {
        assert!(checked_lonlat_rad(Coord::new(0.0, 91.0)).is_err());
        assert!(checked_lonlat_rad(Coord::new(0.0, f64::NAN)).is_err());
        assert!(checked_lonlat_rad(Coord::new(0.0, 89.0)).is_ok());
    }
}
