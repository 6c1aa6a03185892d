//! Geostationary satellite view ("GEOS" projection).
//!
//! This is the native acquisition geometry of GOES-class imagers: the
//! paper's prototype receives streams in the *GOES Variable Format*, a
//! satellite-specific coordinate system, and re-projects them to
//! latitude/longitude inside the DSMS (§4). Our simulator emits streams on
//! this fixed grid and the re-projection operator uses this projection's
//! forward/inverse pair.
//!
//! Formulas follow the GOES-R Product Definition and User's Guide (PUG,
//! Vol. 3 §5.1.2.8) / CGMS LRIT-HRIT navigation, ellipsoidal form. Planar
//! coordinates are scan angles multiplied by the satellite height above
//! the surface (the PROJ `geos` convention), i.e. approximate meters at
//! the sub-satellite point.

use super::{checked_lonlat_rad, deg, norm_lon_deg, Projection};
use crate::coord::Coord;
use crate::ellipsoid::Ellipsoid;
use crate::error::{GeoError, Result};

/// Distance of a geostationary satellite from the Earth's center, meters.
pub const GEO_ORBIT_RADIUS: f64 = 42_164_160.0;

/// Geostationary view projection for a satellite at a fixed longitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geostationary {
    /// Sub-satellite longitude, degrees (GOES-East ≈ -75, GOES-West ≈ -137).
    pub lon0_deg: f64,
    /// Reference ellipsoid.
    pub ellipsoid: Ellipsoid,
    /// Satellite distance from the Earth center, meters.
    pub orbit_radius: f64,
}

impl Geostationary {
    /// Creates a geostationary view for the given sub-satellite longitude.
    pub fn new(lon0_deg: f64) -> Self {
        Geostationary { lon0_deg, ellipsoid: Ellipsoid::WGS84, orbit_radius: GEO_ORBIT_RADIUS }
    }

    /// Height above the sub-satellite surface point (the planar scale).
    #[inline]
    pub fn height(&self) -> f64 {
        self.orbit_radius - self.ellipsoid.a
    }

    /// Ratio `r_eq² / r_pol²`.
    #[inline]
    fn axis_ratio2(&self) -> f64 {
        let a = self.ellipsoid.a;
        let b = self.ellipsoid.b();
        (a * a) / (b * b)
    }

    /// The terms of a surface point that depend on its latitude `lat`
    /// (radians) alone: `rc · cos φc` and `sz = rc · sin φc`, from the
    /// geocentric latitude `φc` and radius `rc`.
    #[inline]
    fn parallel(&self, lat: f64) -> (f64, f64) {
        let e2 = self.ellipsoid.e2();
        let r_pol = self.ellipsoid.b();
        let phi_c = ((1.0 - e2) * lat.tan()).atan();
        let cos_c = phi_c.cos();
        let rc = r_pol / (1.0 - e2 * cos_c.powi(2)).sqrt();
        (rc * cos_c, rc * phi_c.sin())
    }

    /// The view of the surface point at longitude `lon` (radians) on the
    /// parallel with [`parallel`](Self::parallel) terms `(rc_cos, sz)`;
    /// `lonlat` names the point in the error.
    #[inline]
    fn view(&self, lonlat: Coord, lon: f64, (rc_cos, sz): (f64, f64)) -> Result<Coord> {
        let dlon = norm_lon_deg(deg(lon) - self.lon0_deg).to_radians();
        let h_total = self.orbit_radius;

        // Satellite-centered coordinates (x toward Earth center).
        let sx = h_total - rc_cos * dlon.cos();
        let sy = -rc_cos * dlon.sin();

        // Visibility: the surface normal must face the satellite.
        if h_total * (h_total - sx) < sy * sy + self.axis_ratio2() * sz * sz {
            return Err(GeoError::OutOfDomain {
                projection: self.name(),
                coord: (lonlat.x, lonlat.y),
            });
        }

        let rs = (sx * sx + sy * sy + sz * sz).sqrt();
        let x_ang = (-sy / rs).asin();
        let y_ang = (sz / sx).atan();
        let h = self.height();
        Ok(Coord::new(h * x_ang, h * y_ang))
    }
}

impl Projection for Geostationary {
    fn forward(&self, lonlat: Coord) -> Result<Coord> {
        let (lon, lat) = checked_lonlat_rad(lonlat)?;
        self.view(lonlat, lon, self.parallel(lat))
    }

    /// [`forward`](Projection::forward) with the latitude terms computed
    /// once per run of points that share a latitude bit pattern, as the
    /// cells of a north-up lat/lon row do.
    fn forward_batch(&self, lonlat: &[Coord], out: &mut Vec<Option<Coord>>) {
        out.clear();
        let mut last: Option<(u64, (f64, f64))> = None;
        out.extend(lonlat.iter().map(|&p| {
            let (lon, lat) = checked_lonlat_rad(p).ok()?;
            let terms = match last {
                Some((bits, terms)) if bits == p.y.to_bits() => terms,
                _ => last.insert((p.y.to_bits(), self.parallel(lat))).1,
            };
            self.view(p, lon, terms).ok()
        }));
    }

    fn inverse(&self, xy: Coord) -> Result<Coord> {
        if !xy.is_finite() {
            return Err(GeoError::OutOfDomain { projection: self.name(), coord: (xy.x, xy.y) });
        }
        let h = self.height();
        let x = xy.x / h;
        let y = xy.y / h;
        let h_total = self.orbit_radius;
        let r_eq = self.ellipsoid.a;
        let ratio2 = self.axis_ratio2();

        let (sin_x, cos_x) = x.sin_cos();
        let (sin_y, cos_y) = y.sin_cos();
        let a_ = sin_x * sin_x + cos_x * cos_x * (cos_y * cos_y + ratio2 * sin_y * sin_y);
        let b_ = -2.0 * h_total * cos_x * cos_y;
        let c_ = h_total * h_total - r_eq * r_eq;
        let disc = b_ * b_ - 4.0 * a_ * c_;
        if disc < 0.0 {
            // The view ray misses the Earth.
            return Err(GeoError::OutOfDomain { projection: self.name(), coord: (xy.x, xy.y) });
        }
        let rs = (-b_ - disc.sqrt()) / (2.0 * a_);
        let sx = rs * cos_x * cos_y;
        let sy = -rs * sin_x;
        let sz = rs * cos_x * sin_y;

        let lat = (ratio2 * sz / ((h_total - sx).hypot(sy))).atan();
        let lon = self.lon0_deg - deg((sy / (h_total - sx)).atan());
        Ok(Coord::new(norm_lon_deg(lon), deg(lat)))
    }

    fn name(&self) -> &'static str {
        "geostationary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_satellite_point_is_origin() {
        let g = Geostationary::new(-75.0);
        let xy = g.forward(Coord::new(-75.0, 0.0)).unwrap();
        assert!(xy.x.abs() < 1e-6 && xy.y.abs() < 1e-6);
        let ll = g.inverse(Coord::new(0.0, 0.0)).unwrap();
        assert!((ll.x + 75.0).abs() < 1e-9 && ll.y.abs() < 1e-9);
    }

    #[test]
    fn far_side_is_invisible() {
        let g = Geostationary::new(-75.0);
        assert!(g.forward(Coord::new(105.0, 0.0)).is_err()); // antipode
        assert!(g.forward(Coord::new(10.0, 0.0)).is_err()); // just past limb
    }

    #[test]
    fn limb_neighborhood_visible_inside() {
        let g = Geostationary::new(0.0);
        // The limb is at about 81.3° great-circle distance from nadir.
        assert!(g.forward(Coord::new(75.0, 0.0)).is_ok());
        assert!(g.forward(Coord::new(85.0, 0.0)).is_err());
    }

    #[test]
    fn round_trip_visible_disk() {
        let g = Geostationary::new(-75.0);
        for &(lon, lat) in &[
            (-75.0, 0.0),
            (-122.4, 37.8),
            (-45.0, -30.0),
            (-100.0, 45.0),
            (-75.0, 70.0),
            (-20.0, 10.0),
        ] {
            let xy = g.forward(Coord::new(lon, lat)).unwrap();
            let ll = g.inverse(xy).unwrap();
            assert!((ll.x - lon).abs() < 1e-6, "lon {lon} -> {}", ll.x);
            assert!((ll.y - lat).abs() < 1e-6, "lat {lat} -> {}", ll.y);
        }
    }

    #[test]
    fn scan_angles_scale_with_height() {
        let g = Geostationary::new(0.0);
        // A point one degree east of nadir on the equator subtends roughly
        // earth-radius*1° / height scan angle.
        let xy = g.forward(Coord::new(1.0, 0.0)).unwrap();
        let arc = Ellipsoid::WGS84.a * 1f64.to_radians();
        // Apparent size is a bit larger than arc/height (oblique factor ≈ 1).
        let expected = arc; // x is angle*h ≈ ground meters near nadir
        assert!((xy.x - expected).abs() / expected < 0.05, "x={} expected≈{}", xy.x, expected);
    }

    #[test]
    fn off_disk_planar_rejected() {
        let g = Geostationary::new(0.0);
        let h = g.height();
        assert!(g.inverse(Coord::new(0.3 * h, 0.0)).is_err());
    }
}
