//! The query algebra's abstract syntax (§3 / §3.4).
//!
//! The algebra is closed, so a query is simply an expression tree whose
//! leaves are named source streams. The §3.4 running example
//!
//! ```text
//! ((f_val((G₁ − G₂) ⊘ (G₂ + G₁))) ∘ f_UTM)|R
//! ```
//!
//! renders in the textual language as
//!
//! ```text
//! restrict_space(
//!   reproject(
//!     normalize(div(sub(g1, g2), add(g2, g1)), -1, 1),
//!     "utm:10N"),
//!   bbox(...), "utm:10N")
//! ```

use crate::model::TimeSet;
use crate::ops::{
    AggFunc, FocalFunc, GammaOp, Orientation, ProtocolContract, ShedPolicy, StretchMode,
    StretchScope, ValueFunc,
};
use geostreams_geo::{Crs, Region};
use geostreams_raster::resample::Kernel;
use serde::{Deserialize, Serialize};

/// A query expression over GeoStreams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A named source stream from the catalog.
    Source(String),
    /// Spatial restriction `E|R`; `crs` is the coordinate system the
    /// region's coordinates are expressed in.
    RestrictSpace {
        /// Input expression.
        input: Box<Expr>,
        /// Restriction region.
        region: Region,
        /// CRS of the region coordinates.
        crs: Crs,
    },
    /// Temporal restriction `E|T`.
    RestrictTime {
        /// Input expression.
        input: Box<Expr>,
        /// Timestamp set.
        times: TimeSet,
    },
    /// Value restriction `E|V` (inclusive ranges).
    RestrictValue {
        /// Input expression.
        input: Box<Expr>,
        /// Accepted value ranges.
        ranges: Vec<(f64, f64)>,
    },
    /// Point-wise value transform `f_val ∘ E`.
    MapValue {
        /// Input expression.
        input: Box<Expr>,
        /// The function.
        func: ValueFunc,
    },
    /// Frame/image-scoped stretch.
    Stretch {
        /// Input expression.
        input: Box<Expr>,
        /// Stretch mode.
        mode: StretchMode,
        /// Buffering scope.
        scope: StretchScope,
    },
    /// Neighborhood (focal) operation over a `k × k` window.
    Focal {
        /// Input expression.
        input: Box<Expr>,
        /// Focal function.
        func: FocalFunc,
        /// Kernel size (odd).
        k: u32,
    },
    /// Exact orientation change (rotation/mirror).
    Orient {
        /// Input expression.
        input: Box<Expr>,
        /// The orientation.
        orientation: Orientation,
    },
    /// k× magnification.
    Magnify {
        /// Input expression.
        input: Box<Expr>,
        /// Factor.
        k: u32,
    },
    /// 1/k downsampling.
    Downsample {
        /// Input expression.
        input: Box<Expr>,
        /// Factor.
        k: u32,
    },
    /// Re-projection `E ∘ f_crs`.
    Reproject {
        /// Input expression.
        input: Box<Expr>,
        /// Target CRS.
        to: Crs,
        /// Interpolation kernel.
        kernel: Kernel,
    },
    /// Binary composition `E₁ γ E₂`.
    Compose {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
        /// The γ operator.
        op: GammaOp,
    },
    /// The NDVI macro operator (fused normalized difference).
    Ndvi {
        /// Near-infrared band.
        nir: Box<Expr>,
        /// Visible band.
        vis: Box<Expr>,
    },
    /// Load shedding: keep 1/stride of the stream.
    Shed {
        /// Input expression.
        input: Box<Expr>,
        /// Shedding policy.
        policy: ShedPolicy,
        /// Keep one of every `stride` rows/points.
        stride: u32,
    },
    /// Temporal shift: the image from `d` sectors ago, re-stamped with
    /// the current timestamp (enables change detection).
    Delay {
        /// Input expression.
        input: Box<Expr>,
        /// Shift in sectors.
        d: u32,
    },
    /// Sliding-window temporal aggregate.
    AggTime {
        /// Input expression.
        input: Box<Expr>,
        /// Aggregate function.
        func: AggFunc,
        /// Window length in images.
        window: u32,
    },
    /// Per-sector spatial aggregate over a region.
    AggSpace {
        /// Input expression.
        input: Box<Expr>,
        /// Aggregate function.
        func: AggFunc,
        /// Region of interest (stream CRS).
        region: Region,
    },
}

impl Expr {
    /// Convenience constructor for a source leaf.
    pub fn source(name: impl Into<String>) -> Expr {
        Expr::Source(name.into())
    }

    /// The names of all source streams referenced by the expression.
    pub fn source_names(&self) -> Vec<String> {
        let mut out = self.source_leaves();
        let mut seen = std::collections::HashSet::new();
        out.retain(|name| seen.insert(name.clone()));
        out
    }

    /// The source name of every leaf, left to right: a stream the plan
    /// reads twice is listed twice, once per stream the planner opens.
    pub fn source_leaves(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Source(name) = e {
                out.push(name.clone());
            }
        });
        out
    }

    /// The node's direct inputs, left to right (none for a source).
    pub fn inputs(&self) -> Vec<&Expr> {
        match self {
            Expr::Source(_) => Vec::new(),
            Expr::RestrictSpace { input, .. }
            | Expr::RestrictTime { input, .. }
            | Expr::RestrictValue { input, .. }
            | Expr::MapValue { input, .. }
            | Expr::Stretch { input, .. }
            | Expr::Focal { input, .. }
            | Expr::Orient { input, .. }
            | Expr::Magnify { input, .. }
            | Expr::Downsample { input, .. }
            | Expr::Reproject { input, .. }
            | Expr::Shed { input, .. }
            | Expr::Delay { input, .. }
            | Expr::AggTime { input, .. }
            | Expr::AggSpace { input, .. } => vec![input],
            Expr::Compose { left, right, .. } => vec![left, right],
            Expr::Ndvi { nir, vis } => vec![nir, vis],
        }
    }

    /// Rebuilds the node over `f` of each of its direct inputs, left to
    /// right (a source is returned as it is).
    pub fn map_inputs(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        match self {
            Expr::Source(_) => self,
            Expr::RestrictSpace { input, region, crs } => {
                Expr::RestrictSpace { input: Box::new(f(*input)), region, crs }
            }
            Expr::RestrictTime { input, times } => {
                Expr::RestrictTime { input: Box::new(f(*input)), times }
            }
            Expr::RestrictValue { input, ranges } => {
                Expr::RestrictValue { input: Box::new(f(*input)), ranges }
            }
            Expr::MapValue { input, func } => Expr::MapValue { input: Box::new(f(*input)), func },
            Expr::Stretch { input, mode, scope } => {
                Expr::Stretch { input: Box::new(f(*input)), mode, scope }
            }
            Expr::Focal { input, func, k } => Expr::Focal { input: Box::new(f(*input)), func, k },
            Expr::Orient { input, orientation } => {
                Expr::Orient { input: Box::new(f(*input)), orientation }
            }
            Expr::Delay { input, d } => Expr::Delay { input: Box::new(f(*input)), d },
            Expr::Shed { input, policy, stride } => {
                Expr::Shed { input: Box::new(f(*input)), policy, stride }
            }
            Expr::Magnify { input, k } => Expr::Magnify { input: Box::new(f(*input)), k },
            Expr::Downsample { input, k } => Expr::Downsample { input: Box::new(f(*input)), k },
            Expr::Reproject { input, to, kernel } => {
                Expr::Reproject { input: Box::new(f(*input)), to, kernel }
            }
            Expr::Compose { left, right, op } => {
                Expr::Compose { left: Box::new(f(*left)), right: Box::new(f(*right)), op }
            }
            Expr::Ndvi { nir, vis } => {
                Expr::Ndvi { nir: Box::new(f(*nir)), vis: Box::new(f(*vis)) }
            }
            Expr::AggTime { input, func, window } => {
                Expr::AggTime { input: Box::new(f(*input)), func, window }
            }
            Expr::AggSpace { input, func, region } => {
                Expr::AggSpace { input: Box::new(f(*input)), func, region }
            }
        }
    }

    /// The protocol contract of the operator at this node. This is the
    /// one `Expr → ProtocolContract` mapping: `query::analyze` folds it
    /// into the plan's certificate, and its
    /// [`Parallelism`](crate::ops::Parallelism) and
    /// [`Granularity`](crate::ops::Granularity) fields decide what
    /// [`split_parallel`](crate::exec::split_parallel) peels. A source
    /// answers the plain `source` contract; the analyzer substitutes the
    /// replay variants where a leaf is served from the archive.
    pub fn contract(&self) -> ProtocolContract {
        use crate::ops::{
            aggregate, compose, delay, focal, orient, reproject, restrict, shed, spatial, stretch,
            value_transform,
        };
        match self {
            Expr::Source(_) => ProtocolContract::source("source"),
            Expr::RestrictSpace { .. } => restrict::restriction_contract("restrict_space"),
            Expr::RestrictTime { .. } => restrict::restriction_contract("restrict_time"),
            Expr::RestrictValue { .. } => restrict::restriction_contract("restrict_value"),
            Expr::MapValue { .. } => value_transform::value_transform_contract("map_value"),
            Expr::Stretch { scope, .. } => stretch::stretch_contract(*scope),
            Expr::Focal { .. } => focal::focal_contract(),
            Expr::Orient { .. } => orient::orient_contract(),
            Expr::Magnify { .. } => spatial::magnify_contract(),
            Expr::Downsample { .. } => spatial::downsample_contract(),
            Expr::Reproject { .. } => reproject::reproject_contract(),
            Expr::Compose { .. } => compose::compose_contract("compose"),
            Expr::Ndvi { .. } => compose::compose_contract("ndvi"),
            Expr::Shed { .. } => shed::shed_contract(),
            Expr::Delay { .. } => delay::delay_contract(),
            Expr::AggTime { .. } => aggregate::aggregate_contract("agg_time"),
            Expr::AggSpace { .. } => aggregate::aggregate_contract("agg_space"),
        }
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for input in self.inputs() {
            input.visit(f);
        }
    }

    /// Number of operator nodes (excluding sources).
    pub fn operator_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if !matches!(e, Expr::Source(_)) {
                n += 1;
            }
        });
        n
    }
}

fn fmt_region(region: &Region) -> String {
    match region {
        Region::Rect(r) => {
            format!("bbox({}, {}, {}, {})", r.x_min, r.y_min, r.x_max, r.y_max)
        }
        Region::Polygon(p) => {
            let coords: Vec<String> =
                p.vertices.iter().map(|v| format!("{}, {}", v.x, v.y)).collect();
            format!("polygon({})", coords.join(", "))
        }
        other => {
            // Fall back to the bounding box for the remaining shapes.
            let b = other.bbox();
            format!("bbox({}, {}, {}, {})", b.x_min, b.y_min, b.x_max, b.y_max)
        }
    }
}

fn fmt_times(times: &TimeSet) -> String {
    match times {
        TimeSet::Instants(v) => {
            let items: Vec<String> = v.iter().map(|t| t.to_string()).collect();
            format!("instants({})", items.join(", "))
        }
        TimeSet::Interval { lo, hi } => {
            let lo = lo.map_or("none".to_string(), |v| v.to_string());
            let hi = hi.map_or("none".to_string(), |v| v.to_string());
            format!("interval({lo}, {hi})")
        }
        TimeSet::Recurring { period, offset, len } => format!("every({period}, {offset}, {len})"),
    }
}

impl std::fmt::Display for Expr {
    /// Renders the canonical textual form, re-parsable by
    /// [`crate::query::parse_query`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Source(name) => write!(f, "{name}"),
            Expr::RestrictSpace { input, region, crs } => {
                write!(f, "restrict_space({input}, {}, \"{crs}\")", fmt_region(region))
            }
            Expr::RestrictTime { input, times } => {
                write!(f, "restrict_time({input}, {})", fmt_times(times))
            }
            Expr::RestrictValue { input, ranges } => {
                let items: Vec<String> =
                    ranges.iter().map(|(lo, hi)| format!("{lo}, {hi}")).collect();
                write!(f, "restrict_value({input}, {})", items.join(", "))
            }
            Expr::MapValue { input, func } => match func {
                ValueFunc::Linear { scale, offset } => {
                    write!(f, "scale({input}, {scale}, {offset})")
                }
                ValueFunc::Normalize { lo, hi } => write!(f, "normalize({input}, {lo}, {hi})"),
                ValueFunc::Clamp { lo, hi } => write!(f, "clamp({input}, {lo}, {hi})"),
                ValueFunc::Abs => write!(f, "abs({input})"),
                ValueFunc::Gamma { g } => write!(f, "gamma({input}, {g})"),
                ValueFunc::Threshold { t } => write!(f, "threshold({input}, {t})"),
            },
            Expr::Stretch { input, mode, scope } => {
                let mode_s = match mode {
                    StretchMode::Linear { .. } => "linear",
                    StretchMode::HistEq { .. } => "histeq",
                    StretchMode::Gaussian { .. } => "gauss",
                };
                let scope_s = match scope {
                    StretchScope::Frame => "frame",
                    StretchScope::Image => "image",
                };
                write!(f, "stretch({input}, \"{mode_s}\", \"{scope_s}\")")
            }
            Expr::Focal { input, func, k } => {
                write!(f, "focal({input}, \"{}\", {k})", func.name())
            }
            Expr::Orient { input, orientation } => {
                write!(f, "orient({input}, \"{}\")", orientation.name())
            }
            Expr::Magnify { input, k } => write!(f, "magnify({input}, {k})"),
            Expr::Downsample { input, k } => write!(f, "downsample({input}, {k})"),
            Expr::Reproject { input, to, kernel } => {
                let k = match kernel {
                    Kernel::Nearest => "nearest",
                    Kernel::Bilinear => "bilinear",
                    Kernel::Bicubic => "bicubic",
                };
                write!(f, "reproject({input}, \"{to}\", \"{k}\")")
            }
            Expr::Compose { left, right, op } => {
                let name = match op {
                    GammaOp::Add => "add",
                    GammaOp::Sub => "sub",
                    GammaOp::Mul => "mul",
                    GammaOp::Div => "div",
                    GammaOp::Sup => "sup",
                    GammaOp::Inf => "inf",
                    GammaOp::NormDiff => "normdiff",
                };
                write!(f, "{name}({left}, {right})")
            }
            Expr::Ndvi { nir, vis } => write!(f, "ndvi({nir}, {vis})"),
            Expr::Shed { input, policy, stride } => {
                let p = match policy {
                    ShedPolicy::Rows => "rows",
                    ShedPolicy::Points => "points",
                };
                write!(f, "shed({input}, \"{p}\", {stride})")
            }
            Expr::Delay { input, d } => write!(f, "delay({input}, {d})"),
            Expr::AggTime { input, func, window } => {
                write!(f, "agg_time({input}, \"{}\", {window})", agg_name(*func))
            }
            Expr::AggSpace { input, func, region } => {
                write!(f, "agg_space({input}, \"{}\", {})", agg_name(*func), fmt_region(region))
            }
        }
    }
}

fn agg_name(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Mean => "mean",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Sum => "sum",
        AggFunc::Count => "count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_geo::Rect;

    fn sample() -> Expr {
        Expr::RestrictSpace {
            input: Box::new(Expr::Ndvi {
                nir: Box::new(Expr::source("goes.b2")),
                vis: Box::new(Expr::source("goes.b1")),
            }),
            region: Region::Rect(Rect::new(-123.0, 37.0, -121.0, 39.0)),
            crs: Crs::LatLon,
        }
    }

    #[test]
    fn source_names_are_unique_in_order() {
        let e = Expr::Compose {
            left: Box::new(Expr::source("a")),
            right: Box::new(Expr::Compose {
                left: Box::new(Expr::source("b")),
                right: Box::new(Expr::source("a")),
                op: GammaOp::Add,
            }),
            op: GammaOp::Sub,
        };
        assert_eq!(e.source_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(e.source_leaves(), ["a", "b", "a"]);
    }

    #[test]
    fn operator_count_excludes_sources() {
        assert_eq!(sample().operator_count(), 2);
        assert_eq!(Expr::source("x").operator_count(), 0);
    }

    #[test]
    fn display_is_functional_syntax() {
        let text = sample().to_string();
        assert_eq!(
            text,
            "restrict_space(ndvi(goes.b2, goes.b1), bbox(-123, 37, -121, 39), \"latlon\")"
        );
    }

    #[test]
    fn serializes_to_json() {
        let e = sample();
        let json = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
