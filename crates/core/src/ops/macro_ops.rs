//! Macro operators for common data products (§4).
//!
//! "Other operators that are currently being implemented … include
//! specialized macro operators that compute specific data products, such
//! as NDVI. Such data products can be directly selected in the user
//! interface, without the need to compose otherwise complex queries."
//!
//! A macro operator fuses a multi-operator expression into a single
//! composition pass. [`ndvi`] computes the §3.4 example
//! `(G₁ − G₂) ⊘ (G₂ + G₁)` — the normalized difference vegetation index
//! over the near-infrared and visible bands — in one join instead of
//! three.

use crate::error::Result;
use crate::model::GeoStream;
use crate::ops::compose::{Compose, GammaOp};

/// Fused NDVI: `(nir − vis) / (nir + vis)` in a single composition.
pub fn ndvi<L, R>(nir: L, vis: R) -> Result<Compose<L, R>>
where
    L: GeoStream,
    R: GeoStream<V = L::V>,
{
    Compose::new(nir, vis, GammaOp::NormDiff)
}

/// Normalized-difference water index `(green − nir) / (green + nir)` —
/// same fused kernel, different band order.
pub fn ndwi<L, R>(green: L, nir: R) -> Result<Compose<L, R>>
where
    L: GeoStream,
    R: GeoStream<V = L::V>,
{
    Compose::new(green, nir, GammaOp::NormDiff)
}

/// Brightness-temperature difference `a − b`, the classic split-window
/// product for cloud/fire detection on thermal IR bands.
pub fn band_difference<L, R>(a: L, b: R) -> Result<Compose<L, R>>
where
    L: GeoStream,
    R: GeoStream<V = L::V>,
{
    Compose::new(a, b, GammaOp::Sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn lattice() -> LatticeGeoref {
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8)
    }

    fn nir() -> VecStream<f32> {
        VecStream::single_sector("nir", lattice(), 0, |c, r| f64::from(c + r) + 8.0)
    }

    fn vis() -> VecStream<f32> {
        VecStream::single_sector("vis", lattice(), 0, |c, r| f64::from(c + r) + 2.0)
    }

    #[test]
    fn fused_ndvi_matches_formula() {
        let mut op = ndvi(nir(), vis()).unwrap();
        let pts = op.drain_points();
        assert_eq!(pts.len(), 64);
        for p in &pts {
            let base = f64::from(p.cell.col + p.cell.row);
            let n = base + 8.0;
            let v = base + 2.0;
            let expect = (n - v) / (n + v);
            assert!((f64::from(p.value) - expect).abs() < 1e-6);
        }
        // NDVI of these synthetic bands is strictly positive and ≤ 1.
        assert!(pts.iter().all(|p| p.value > 0.0 && p.value <= 1.0));
    }

    #[test]
    fn ndvi_schema_range_is_symmetric_unit() {
        let op = ndvi(nir(), vis()).unwrap();
        assert_eq!(op.schema().value_range, (-1.0, 1.0));
    }

    #[test]
    fn band_difference_subtracts() {
        let mut op = band_difference(nir(), vis()).unwrap();
        let pts = op.drain_points();
        assert!(pts.iter().all(|p| (p.value - 6.0).abs() < 1e-6));
    }
}
