//! The synthetic Earth: physically plausible radiance fields.
//!
//! Real remotely-sensed radiance has structure that the paper's
//! operators exploit and that the experiments' data products (NDVI,
//! split-window differences, aggregates) need to be meaningful:
//! vegetation raises near-infrared and lowers visible reflectance,
//! clouds are bright in both and cold in thermal IR, and everything
//! drifts over time. [`EarthModel`] synthesizes these fields from seeded
//! value noise — deterministic, continuous, and cheap to sample at any
//! geographic coordinate and logical time.

use crate::noise::{fbm, FbmCursor};
use geostreams_geo::Coord;
use serde::{Deserialize, Serialize};

/// Spectral band classes supported by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BandKind {
    /// Visible reflectance (GOES band 1-like), 0..1.
    Visible,
    /// Near-infrared reflectance (vegetation-sensitive), 0..1.
    NearInfrared,
    /// Mid-IR / water-vapor channel, normalized 0..1.
    WaterVapor,
    /// Thermal infrared brightness temperature, normalized 0..1
    /// (0 ≈ 200 K, 1 ≈ 320 K).
    ThermalIr,
    /// "Dirty window" thermal channel (GOES channel 5-like): like
    /// [`BandKind::ThermalIr`] but attenuated by atmospheric moisture,
    /// so the split-window difference against the clean window senses
    /// water vapor.
    ThermalIrDirty,
}

/// A deterministic synthetic Earth radiance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarthModel {
    /// Master seed; all fields derive sub-seeds from it.
    pub seed: u64,
    /// Cloud speed in degrees of longitude per time tick.
    pub cloud_speed: f64,
}

impl EarthModel {
    /// Creates a model from a seed.
    pub fn new(seed: u64) -> Self {
        EarthModel { seed, cloud_speed: 0.08 }
    }

    /// Static vegetation density at a geographic coordinate, 0..1.
    /// Higher toward temperate latitudes, modulated by terrain noise.
    pub fn vegetation(&self, lonlat: Coord) -> f64 {
        let base = fbm(self.seed ^ VEG_SEED, lonlat.x * 0.05, lonlat.y * 0.05, 5);
        // Suppress vegetation at extreme latitudes (deserts/ice caps are
        // driven by the noise itself).
        let lat_factor = (1.0 - (lonlat.y.abs() / 90.0).powi(2)).max(0.0);
        (base * 1.3 - 0.15).clamp(0.0, 1.0) * lat_factor
    }

    /// Cloud optical thickness at a coordinate and time, 0..1. Clouds
    /// drift eastward with `cloud_speed`.
    pub fn cloud(&self, lonlat: Coord, t: i64) -> f64 {
        let drift = self.cloud_speed * t as f64;
        let raw = fbm(
            self.seed ^ 0xC10D,
            (lonlat.x - drift) * 0.08,
            lonlat.y * 0.08 + (t as f64) * 0.002,
            4,
        );
        // Threshold so much of the sky is clear.
        ((raw - 0.55) * 3.0).clamp(0.0, 1.0)
    }

    /// Soil brightness (bare-ground albedo variation), 0..1.
    fn soil(&self, lonlat: Coord) -> f64 {
        fbm(self.seed ^ 0x5011, lonlat.x * 0.11, lonlat.y * 0.11, 3)
    }

    /// Visible-band reflectance, 0..1.
    pub fn visible(&self, lonlat: Coord, t: i64) -> f64 {
        let veg = self.vegetation(lonlat);
        let soil = self.soil(lonlat);
        let ground = 0.08 + 0.25 * soil - 0.10 * veg;
        let cloud = self.cloud(lonlat, t);
        (ground * (1.0 - cloud) + 0.85 * cloud).clamp(0.0, 1.0)
    }

    /// Near-infrared reflectance, 0..1 (vegetation is bright here).
    pub fn near_infrared(&self, lonlat: Coord, t: i64) -> f64 {
        let veg = self.vegetation(lonlat);
        let soil = self.soil(lonlat);
        let ground = 0.12 + 0.18 * soil + 0.45 * veg;
        let cloud = self.cloud(lonlat, t);
        (ground * (1.0 - cloud) + 0.80 * cloud).clamp(0.0, 1.0)
    }

    /// Water-vapor channel, 0..1.
    pub fn water_vapor(&self, lonlat: Coord, t: i64) -> f64 {
        let humid = fbm(self.seed ^ 0x1120, lonlat.x * 0.06 + t as f64 * 0.01, lonlat.y * 0.06, 4);
        (0.3 + 0.5 * humid + 0.2 * self.cloud(lonlat, t)).clamp(0.0, 1.0)
    }

    /// Thermal-IR brightness temperature, normalized 0..1
    /// (≈ 200–320 K). Cloud tops are cold; the surface cools toward the
    /// poles and with a mild diurnal cycle.
    pub fn thermal_ir(&self, lonlat: Coord, t: i64) -> f64 {
        let lat_cool = (lonlat.y.abs() / 90.0).powi(2) * 0.35;
        let diurnal = 0.04 * ((t as f64) * 0.26).sin();
        let surface = 0.78 - lat_cool + diurnal + 0.05 * self.soil(lonlat);
        let cloud = self.cloud(lonlat, t);
        (surface * (1.0 - cloud) + 0.25 * cloud).clamp(0.0, 1.0)
    }

    /// "Dirty window" brightness temperature: the clean thermal window
    /// depressed by column moisture (the split-window signal).
    pub fn thermal_ir_dirty(&self, lonlat: Coord, t: i64) -> f64 {
        let clean = self.thermal_ir(lonlat, t);
        let moisture = self.water_vapor(lonlat, t);
        (clean - 0.06 * moisture).clamp(0.0, 1.0)
    }

    /// Samples a band at a geographic coordinate and logical time.
    pub fn sample(&self, kind: BandKind, lonlat: Coord, t: i64) -> f64 {
        match kind {
            BandKind::Visible => self.visible(lonlat, t),
            BandKind::NearInfrared => self.near_infrared(lonlat, t),
            BandKind::WaterVapor => self.water_vapor(lonlat, t),
            BandKind::ThermalIr => self.thermal_ir(lonlat, t),
            BandKind::ThermalIrDirty => self.thermal_ir_dirty(lonlat, t),
        }
    }

    /// Ground-truth NDVI at a clear-sky coordinate (for validation).
    pub fn true_ndvi(&self, lonlat: Coord, t: i64) -> f64 {
        let nir = self.near_infrared(lonlat, t);
        let vis = self.visible(lonlat, t);
        if nir + vis <= 0.0 {
            0.0
        } else {
            (nir - vis) / (nir + vis)
        }
    }
}

/// Sub-seed salt for the vegetation field.
const VEG_SEED: u64 = 0x7E6E;

/// [`EarthModel::sample`] for a scanner: one band, one logical time at
/// a time, sampled along scan lines. Each noise field is read through
/// an [`FbmCursor`] and what `t` contributes is worked out once per
/// [`set_time`](Self::set_time) instead of per point; the arithmetic on
/// top is [`EarthModel`]'s, term for term, so the values are its values
/// bit for bit (the model stays the oracle the tests compare against).
#[derive(Debug, Clone)]
pub struct EarthSampler {
    kind: BandKind,
    vegetation: FbmCursor,
    soil: FbmCursor,
    cloud: FbmCursor,
    humidity: FbmCursor,
    cloud_speed: f64,
    /// `cloud_speed * t`.
    drift: f64,
    /// `t * 0.002`, the cloud field's evolution term.
    cloud_dy: f64,
    /// `t * 0.01`, the humidity field's advection term.
    humidity_dx: f64,
    /// `0.04 * sin(t * 0.26)`.
    diurnal: f64,
}

impl EarthSampler {
    /// A sampler of `kind` over `model` at logical time `t`.
    pub fn new(model: &EarthModel, kind: BandKind, t: i64) -> Self {
        let mut sampler = EarthSampler {
            kind,
            vegetation: FbmCursor::new(model.seed ^ VEG_SEED, 5),
            soil: FbmCursor::new(model.seed ^ 0x5011, 3),
            cloud: FbmCursor::new(model.seed ^ 0xC10D, 4),
            humidity: FbmCursor::new(model.seed ^ 0x1120, 4),
            cloud_speed: model.cloud_speed,
            drift: 0.0,
            cloud_dy: 0.0,
            humidity_dx: 0.0,
            diurnal: 0.0,
        };
        sampler.set_time(t);
        sampler
    }

    /// Moves the sampler to logical time `t`.
    pub fn set_time(&mut self, t: i64) {
        let t = t as f64;
        self.drift = self.cloud_speed * t;
        self.cloud_dy = t * 0.002;
        self.humidity_dx = t * 0.01;
        self.diurnal = 0.04 * (t * 0.26).sin();
    }

    /// `model.sample(kind, lonlat, t)`.
    pub fn sample(&mut self, lonlat: Coord) -> f64 {
        let raw =
            self.cloud.sample((lonlat.x - self.drift) * 0.08, lonlat.y * 0.08 + self.cloud_dy);
        let cloud = ((raw - 0.55) * 3.0).clamp(0.0, 1.0);
        match self.kind {
            BandKind::Visible => {
                let ground = 0.08 + 0.25 * self.soil(lonlat) - 0.10 * self.vegetation(lonlat);
                (ground * (1.0 - cloud) + 0.85 * cloud).clamp(0.0, 1.0)
            }
            BandKind::NearInfrared => {
                let ground = 0.12 + 0.18 * self.soil(lonlat) + 0.45 * self.vegetation(lonlat);
                (ground * (1.0 - cloud) + 0.80 * cloud).clamp(0.0, 1.0)
            }
            BandKind::WaterVapor => self.water_vapor(lonlat, cloud),
            BandKind::ThermalIr => self.thermal_ir(lonlat, cloud),
            BandKind::ThermalIrDirty => {
                let clean = self.thermal_ir(lonlat, cloud);
                (clean - 0.06 * self.water_vapor(lonlat, cloud)).clamp(0.0, 1.0)
            }
        }
    }

    fn vegetation(&mut self, lonlat: Coord) -> f64 {
        let base = self.vegetation.sample(lonlat.x * 0.05, lonlat.y * 0.05);
        let lat_factor = (1.0 - (lonlat.y.abs() / 90.0).powi(2)).max(0.0);
        (base * 1.3 - 0.15).clamp(0.0, 1.0) * lat_factor
    }

    fn soil(&mut self, lonlat: Coord) -> f64 {
        self.soil.sample(lonlat.x * 0.11, lonlat.y * 0.11)
    }

    fn water_vapor(&mut self, lonlat: Coord, cloud: f64) -> f64 {
        let humid = self.humidity.sample(lonlat.x * 0.06 + self.humidity_dx, lonlat.y * 0.06);
        (0.3 + 0.5 * humid + 0.2 * cloud).clamp(0.0, 1.0)
    }

    fn thermal_ir(&mut self, lonlat: Coord, cloud: f64) -> f64 {
        let lat_cool = (lonlat.y.abs() / 90.0).powi(2) * 0.35;
        let surface = 0.78 - lat_cool + self.diurnal + 0.05 * self.soil(lonlat);
        (surface * (1.0 - cloud) + 0.25 * cloud).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EarthModel {
        EarthModel::new(20_060_330)
    }

    #[test]
    fn fields_are_deterministic() {
        let m = model();
        let p = Coord::new(-95.0, 38.0);
        assert_eq!(m.visible(p, 5), m.visible(p, 5));
        assert_eq!(m.sample(BandKind::ThermalIr, p, 9), m.thermal_ir(p, 9));
    }

    #[test]
    fn fields_stay_in_unit_range() {
        let m = model();
        for i in 0..200 {
            let p = Coord::new(-130.0 + i as f64 * 0.7, -60.0 + i as f64 * 0.6);
            for kind in [
                BandKind::Visible,
                BandKind::NearInfrared,
                BandKind::WaterVapor,
                BandKind::ThermalIr,
            ] {
                let v = m.sample(kind, p, i);
                assert!((0.0..=1.0).contains(&v), "{kind:?} {v} at {p}");
            }
        }
    }

    #[test]
    fn vegetation_raises_ndvi() {
        let m = model();
        // Find a high-veg and a low-veg clear-sky point.
        let mut high = None;
        let mut low = None;
        for i in 0..4000 {
            let p = Coord::new(-140.0 + (i % 80) as f64, -40.0 + (i / 80) as f64);
            if m.cloud(p, 0) > 0.01 {
                continue;
            }
            let v = m.vegetation(p);
            if v > 0.6 && high.is_none() {
                high = Some(p);
            }
            if v < 0.05 && low.is_none() {
                low = Some(p);
            }
        }
        let (high, low) = (high.expect("dense veg exists"), low.expect("barren exists"));
        assert!(
            m.true_ndvi(high, 0) > m.true_ndvi(low, 0) + 0.2,
            "ndvi(veg)={} ndvi(barren)={}",
            m.true_ndvi(high, 0),
            m.true_ndvi(low, 0)
        );
    }

    #[test]
    fn clouds_move_with_time() {
        let m = model();
        // Find a clearly cloudy point at t=0.
        let mut cloudy = None;
        for i in 0..4000 {
            let p = Coord::new(-160.0 + (i % 100) as f64 * 0.8, -50.0 + (i / 100) as f64 * 2.0);
            if m.cloud(p, 0) > 0.8 {
                cloudy = Some(p);
                break;
            }
        }
        let p = cloudy.expect("some cloud exists");
        // Far in the future the cloud field at this point has changed.
        let later = m.cloud(p, 500);
        assert!((m.cloud(p, 0) - later).abs() > 0.05, "cloud field should evolve");
    }

    #[test]
    fn clouds_brighten_visible_and_cool_ir() {
        let m = model();
        // Scan a dense grid for the thickest cloud and a clear pixel at
        // comparable latitude.
        let mut best_cloud = (0.0, Coord::new(0.0, 0.0));
        let mut clear = None;
        for i in 0..40_000 {
            let p = Coord::new(-170.0 + (i % 200) as f64 * 0.85, -50.0 + (i / 200) as f64 * 0.5);
            let c = m.cloud(p, 0);
            if c > best_cloud.0 {
                best_cloud = (c, p);
            }
            if c < 1e-9 && clear.is_none() {
                clear = Some(p);
            }
        }
        let (thickness, pc) = best_cloud;
        assert!(thickness > 0.6, "a thick cloud exists somewhere: {thickness}");
        let pl = clear.expect("clear sky exists");
        assert!(
            m.visible(pc, 0) > 0.5,
            "thick cloud is bright: {} (thickness {thickness})",
            m.visible(pc, 0)
        );
        // Compare IR against a clear pixel at the *same* latitude to
        // remove the pole-equator gradient.
        let pl_same_lat = Coord::new(pl.x, pc.y);
        assert!(
            m.thermal_ir(pc, 0) < m.thermal_ir(pl_same_lat, 0) + 0.1,
            "cloud tops are cold-ish"
        );
    }

    #[test]
    fn poles_are_colder_than_tropics() {
        let m = model();
        let tropics = m.thermal_ir(Coord::new(-60.0, 5.0), 0);
        let pole = m.thermal_ir(Coord::new(-60.0, 85.0), 0);
        assert!(tropics > pole + 0.1, "tropics {tropics} vs pole {pole}");
    }
}
