//! Point-wise value transforms (§3.2, Definition 8).
//!
//! "A simple form of a value transform operator is one that transforms
//! color point values … to gray-scale point values. Clearly, such an
//! operator allows for processing on a point-by-point basis." These
//! operators hold no state and cost O(1) per point; the frame-scoped
//! stretches that *do* buffer live in [`crate::ops::stretch`].

use crate::model::{Chunk, ChunkOrMarker, GeoStream, Marker, PointRecord, StreamSchema};
use crate::stats::{OpReport, OpStats};
use geostreams_raster::Pixel;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// A declarative, plannable point-wise value function on the arithmetic
/// domain (`f64 → f64`). Using data rather than closures keeps query
/// plans serializable and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValueFunc {
    /// `v ↦ scale·v + offset`.
    Linear {
        /// Multiplier.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// Maps `[lo, hi] → [0, 1]`, clamping outside.
    Normalize {
        /// Input low bound.
        lo: f64,
        /// Input high bound.
        hi: f64,
    },
    /// Clamps into `[lo, hi]`.
    Clamp {
        /// Low bound.
        lo: f64,
        /// High bound.
        hi: f64,
    },
    /// Absolute value.
    Abs,
    /// Gamma correction on a `[0, 1]` value.
    Gamma {
        /// Exponent.
        g: f64,
    },
    /// Binary threshold: `v ≥ t ↦ 1`, else `0`.
    Threshold {
        /// Threshold.
        t: f64,
    },
}

impl ValueFunc {
    /// Applies the function.
    #[inline]
    pub fn apply(&self, v: f64) -> f64 {
        match *self {
            ValueFunc::Linear { scale, offset } => scale * v + offset,
            ValueFunc::Normalize { lo, hi } => {
                if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }
            ValueFunc::Clamp { lo, hi } => v.clamp(lo, hi),
            ValueFunc::Abs => v.abs(),
            ValueFunc::Gamma { g } => v.clamp(0.0, 1.0).powf(g),
            ValueFunc::Threshold { t } => {
                if v >= t {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The image of a value range under the function (used to keep the
    /// schema's nominal display range truthful).
    pub fn map_range(&self, (lo, hi): (f64, f64)) -> (f64, f64) {
        match *self {
            ValueFunc::Linear { .. } | ValueFunc::Abs => {
                let a = self.apply(lo);
                let b = self.apply(hi);
                if matches!(self, ValueFunc::Abs) && lo < 0.0 && hi > 0.0 {
                    (0.0, a.max(b))
                } else {
                    (a.min(b), a.max(b))
                }
            }
            ValueFunc::Normalize { .. } | ValueFunc::Gamma { .. } | ValueFunc::Threshold { .. } => {
                (0.0, 1.0)
            }
            ValueFunc::Clamp { lo: l, hi: h } => (lo.max(l), hi.min(h)),
        }
    }
}

/// Point-wise value transform `f_val ∘ G` applying a [`ValueFunc`] and
/// converting to a (possibly different) pixel type `W`.
pub struct MapTransform<S: GeoStream, W: Pixel> {
    input: S,
    func: ValueFunc,
    stats: OpStats,
    schema: StreamSchema,
    /// Reused f64 staging buffer for the lane-blocked chunk path
    /// (drained every chunk; see [`crate::ops::lanes`]).
    scratch: Vec<f64>,
    _w: PhantomData<W>,
}

impl<S: GeoStream, W: Pixel> MapTransform<S, W> {
    /// Creates the transform.
    pub fn new(input: S, func: ValueFunc) -> Self {
        let mut schema = input.schema().renamed("map_value");
        schema.value_range = func.map_range(schema.value_range);
        MapTransform {
            input,
            func,
            stats: OpStats::default(),
            schema,
            scratch: Vec::new(),
            _w: PhantomData,
        }
    }
}

impl<S: GeoStream, W: Pixel> GeoStream for MapTransform<S, W> {
    type V = W;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<W>> {
        match self.input.next_chunk(budget)? {
            ChunkOrMarker::Marker(m) => {
                if matches!(m, Marker::FrameStart(_)) {
                    self.stats.frames_in += 1;
                    self.stats.frames_out += 1;
                }
                Some(ChunkOrMarker::Marker(m))
            }
            ChunkOrMarker::Chunk(mut c) => {
                let n = c.points.len() as u64;
                self.stats.points_in += n;
                self.stats.points_out += n;
                if let Some(Marker::FrameStart(_)) = &c.end {
                    self.stats.frames_in += 1;
                    self.stats.frames_out += 1;
                }
                // Lane-blocked fast path: stage values through the f64
                // arithmetic domain, apply the hoisted-dispatch kernel
                // (bit-identical to per-element `apply`), convert back.
                self.scratch.clear();
                self.scratch.extend(c.points.iter().map(|p| p.value.to_f64()));
                crate::ops::lanes::apply_slice(self.func, &mut self.scratch);
                let mut out = Chunk::with_budget(c.points.len());
                out.points.extend(
                    c.points
                        .drain(..)
                        .zip(self.scratch.drain(..))
                        .map(|(p, v)| PointRecord { cell: p.cell, value: W::from_f64(v) }),
                );
                out.end = c.end.take();
                c.recycle();
                Some(ChunkOrMarker::Chunk(out))
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Pure pixel-type cast (`V → W` through the arithmetic domain) with no
/// value change; the planner inserts these to normalize pipelines.
pub struct CastTransform<S: GeoStream, W: Pixel> {
    input: S,
    stats: OpStats,
    schema: StreamSchema,
    _w: PhantomData<W>,
}

impl<S: GeoStream, W: Pixel> CastTransform<S, W> {
    /// Creates the cast.
    pub fn new(input: S) -> Self {
        let schema = input.schema().renamed("cast");
        CastTransform { input, stats: OpStats::default(), schema, _w: PhantomData }
    }
}

impl<S: GeoStream, W: Pixel> GeoStream for CastTransform<S, W> {
    type V = W;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<W>> {
        match self.input.next_chunk(budget)? {
            ChunkOrMarker::Marker(m) => Some(ChunkOrMarker::Marker(m)),
            ChunkOrMarker::Chunk(mut c) => {
                let n = c.points.len() as u64;
                self.stats.points_in += n;
                self.stats.points_out += n;
                let mut out = Chunk::with_budget(c.points.len());
                out.points.extend(
                    c.points.drain(..).map(|p| PointRecord {
                        cell: p.cell,
                        value: W::from_f64(p.value.to_f64()),
                    }),
                );
                out.end = c.end.take();
                c.recycle();
                Some(ChunkOrMarker::Chunk(out))
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn collect_stats(&self, out: &mut Vec<OpReport>) {
        self.input.collect_stats(out);
        out.push(OpReport::new(self.schema.name.clone(), self.op_stats()));
    }
}

/// Point-wise value transforms rewrite values in place: markers and
/// lattice order are untouched, so the contract is a pure forwarder.
pub fn value_transform_contract(operator: &str) -> crate::ops::ProtocolContract {
    crate::ops::ProtocolContract::forwarding(operator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Element, VecStream};
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn source() -> VecStream<f32> {
        let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        VecStream::single_sector("src", lattice, 0, |c, r| f64::from(c + 4 * r))
    }

    #[test]
    fn value_funcs_apply() {
        assert_eq!(ValueFunc::Linear { scale: 2.0, offset: 1.0 }.apply(3.0), 7.0);
        assert_eq!(ValueFunc::Normalize { lo: 0.0, hi: 10.0 }.apply(5.0), 0.5);
        assert_eq!(ValueFunc::Normalize { lo: 0.0, hi: 10.0 }.apply(-5.0), 0.0);
        assert_eq!(ValueFunc::Clamp { lo: 0.0, hi: 1.0 }.apply(7.0), 1.0);
        assert_eq!(ValueFunc::Abs.apply(-3.0), 3.0);
        assert_eq!(ValueFunc::Threshold { t: 0.5 }.apply(0.6), 1.0);
        assert_eq!(ValueFunc::Threshold { t: 0.5 }.apply(0.4), 0.0);
        assert!((ValueFunc::Gamma { g: 2.0 }.apply(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_normalize_is_zero() {
        assert_eq!(ValueFunc::Normalize { lo: 5.0, hi: 5.0 }.apply(5.0), 0.0);
    }

    #[test]
    fn map_range_tracks_linear() {
        let f = ValueFunc::Linear { scale: -2.0, offset: 0.0 };
        assert_eq!(f.map_range((0.0, 10.0)), (-20.0, 0.0));
        assert_eq!(ValueFunc::Abs.map_range((-3.0, 2.0)), (0.0, 3.0));
        assert_eq!(ValueFunc::Normalize { lo: 0.0, hi: 1.0 }.map_range((5.0, 9.0)), (0.0, 1.0));
    }

    #[test]
    fn map_transform_scales_points() {
        let mut op: MapTransform<_, f32> =
            MapTransform::new(source(), ValueFunc::Linear { scale: 0.5, offset: 1.0 });
        let pts = op.drain_points();
        assert_eq!(pts.len(), 16);
        assert_eq!(pts[0].value, 1.0); // 0*0.5+1
        assert_eq!(pts[15].value, 8.5); // 15*0.5+1
        let st = op.op_stats();
        assert_eq!(st.points_in, 16);
        assert_eq!(st.buffered_points_peak, 0, "point-wise transforms never buffer");
    }

    #[test]
    fn map_transform_can_change_pixel_type() {
        let mut op: MapTransform<_, u8> =
            MapTransform::new(source(), ValueFunc::Linear { scale: 10.0, offset: 0.0 });
        let pts = op.drain_points();
        assert_eq!(pts[15].value, 150u8);
    }

    #[test]
    fn cast_preserves_values() {
        let mut op: CastTransform<_, u16> = CastTransform::new(source());
        let pts = op.drain_points();
        assert_eq!(pts[7].value, 7u16);
    }

    #[test]
    fn chunked_lane_path_is_bit_identical_to_per_point_apply() {
        let funcs = [
            ValueFunc::Linear { scale: 0.37, offset: -2.25 },
            ValueFunc::Normalize { lo: 0.0, hi: 15.0 },
            ValueFunc::Clamp { lo: 2.0, hi: 9.0 },
            ValueFunc::Abs,
            ValueFunc::Gamma { g: 2.2 },
            ValueFunc::Threshold { t: 7.0 },
        ];
        let input = source().drain_points();
        for func in funcs {
            for budget in [1usize, 3, 64] {
                let mut op: MapTransform<_, f32> = MapTransform::new(source(), func);
                let got: Vec<_> = crate::model::drain_chunked(&mut op, budget)
                    .into_iter()
                    .filter_map(|el| if let Element::Point(p) = el { Some(p) } else { None })
                    .collect();
                assert_eq!(got.len(), input.len());
                for (a, p) in got.iter().zip(&input) {
                    let want = f32::from_f64(func.apply(p.value.to_f64()));
                    assert_eq!(a.value.to_bits(), want.to_bits(), "{func:?} budget {budget}");
                }
            }
        }
    }

    #[test]
    fn schema_range_updated() {
        let src = source();
        src.schema();
        let op: MapTransform<_, f32> =
            MapTransform::new(source(), ValueFunc::Normalize { lo: 0.0, hi: 15.0 });
        assert_eq!(op.schema().value_range, (0.0, 1.0));
    }
}
