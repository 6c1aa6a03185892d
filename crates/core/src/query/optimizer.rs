//! Query rewriting (§3.4).
//!
//! "Rather than performing the composition of all point data from the
//! two streams, followed by a value and spatial transform on all the
//! resulting points, the final spatial restriction R can be pushed
//! inwards and applied first … because in the query R is based on the
//! UTM coordinate system, R needs to be mapped to the coordinate system
//! C. The query optimizer has to identify such rewrites in particular
//! for spatial selections, as these result in the most significant space
//! and time gains for query evaluation."
//!
//! Three rewrite families are implemented:
//!
//! 1. **spatial-restriction pushdown** — through value transforms,
//!    resolution changes, compositions (into both inputs), temporal and
//!    value restrictions, temporal aggregates, and — with a cross-CRS
//!    region mapping — through re-projections. When the push crosses a
//!    re-projection the mapped region is a conservative bounding box, so
//!    the original restriction is *kept* on the outside for exactness;
//! 2. **temporal-restriction pushdown** — exact through the operators
//!    that keep a frame's timestamp, widened (outer restriction kept)
//!    through `delay` and `agg_time`, the same set (outer kept) through
//!    `focal`, `reproject` and `agg_space`, stopping at row shedding;
//!    the table is on `push_time`;
//! 3. **macro-operator fusion** — the NDVI pattern
//!    `(G₁ − G₂) ⊘ (G₂ + G₁)` is recognized and replaced by the fused
//!    [`Expr::Ndvi`] operator of §4; adjacent same-CRS rectangular
//!    spatial restrictions are merged by intersection.
//!
//! Every rewrite is semantics-preserving; `tests/` contains
//! property-based equivalence checks between optimized and unoptimized
//! plans. `push_space` and `push_time` are the only code that says how a
//! restriction crosses an operator: the archive routes and the
//! analyzer's replay classification read the restrictions the optimized
//! plan leaves directly on each source (`super::pushdown`).

use super::analyze::{AnalyzeOptions, Plan};
use super::ast::Expr;
use super::plan::Catalog;
use super::pushdown::{time_set_window, TimeWindow};
use crate::model::{TimeSemantics, TimeSet};
use crate::ops::{GammaOp, ShedPolicy, StretchScope};
use geostreams_geo::{map_region, Region};

/// Applies all rewrite rules to an expression and returns the analyzed
/// [`Plan`]: the analysis that checks the rewrite is the plan's report.
///
/// Rewrites must never worsen the plan's static blocking class
/// (restriction pushdown, macro fusion and identity removal are all
/// blocking-neutral). The invariant is asserted in debug builds; in
/// release builds a rewrite that *would* worsen it is discarded and the
/// original expression is kept.
pub fn optimize(expr: &Expr, catalog: &Catalog) -> Plan {
    optimize_with(expr, catalog, &AnalyzeOptions::default())
}

/// [`optimize`] in the runtime context `opts` of
/// [`analyze_with`](super::analyze_with).
pub fn optimize_with(expr: &Expr, catalog: &Catalog, opts: &AnalyzeOptions<'_>) -> Plan {
    let before = Plan::analyze_with(expr.clone(), catalog, opts);
    let e = simplify(expr.clone());
    let e = fuse_macros(e);
    let e = push_restrictions(e, catalog);
    let e = merge_restricts(e);
    // Pushdown can duplicate value transforms; fuse once more.
    let after = Plan::analyze_with(simplify(e), catalog, opts);
    let (from, to) = (before.report().blocking, after.report().blocking);
    debug_assert!(to <= from, "optimizer worsened blocking class: {from} -> {to}");
    if to > from {
        return before;
    }
    after
}

/// Bottom-up algebraic simplifications:
///
/// * adjacent linear value transforms compose into one
///   (`a₂·(a₁·v + b₁) + b₂ = (a₂a₁)·v + (a₂b₁ + b₂)`);
/// * identity transforms (`scale(E,1,0)`, `magnify(E,1)`,
///   `downsample(E,1)`) disappear;
/// * double application of an involutive orientation cancels.
fn simplify(e: Expr) -> Expr {
    use crate::ops::ValueFunc;
    let e = e.map_inputs(&mut simplify);
    match e {
        Expr::MapValue { input, func: ValueFunc::Linear { scale: s2, offset: o2 } } => match *input
        {
            Expr::MapValue { input: inner, func: ValueFunc::Linear { scale: s1, offset: o1 } } => {
                simplify(Expr::MapValue {
                    input: inner,
                    func: ValueFunc::Linear { scale: s2 * s1, offset: s2 * o1 + o2 },
                })
            }
            other => {
                if s2 == 1.0 && o2 == 0.0 {
                    other
                } else {
                    Expr::MapValue {
                        input: Box::new(other),
                        func: ValueFunc::Linear { scale: s2, offset: o2 },
                    }
                }
            }
        },
        Expr::Magnify { input, k: 1 } => *input,
        Expr::Downsample { input, k: 1 } => *input,
        Expr::Orient { input, orientation } => match *input {
            Expr::Orient { input: inner, orientation: o1 }
                if o1 == orientation && orientation.inverse() == orientation =>
            {
                *inner
            }
            other => Expr::Orient { input: Box::new(other), orientation },
        },
        other => other,
    }
}

/// Bottom-up macro fusion: recognize `(a − b) ⊘ (b + a)` as NDVI.
fn fuse_macros(e: Expr) -> Expr {
    let e = e.map_inputs(&mut fuse_macros);
    if let Expr::Compose { left, right, op: GammaOp::Div } = &e {
        if let (
            Expr::Compose { left: a1, right: b1, op: GammaOp::Sub },
            Expr::Compose { left: b2, right: a2, op: GammaOp::Add },
        ) = (&**left, &**right)
        {
            // (a − b) / (b + a)  or  (a − b) / (a + b): addition commutes.
            let straight = a1 == a2 && b1 == b2;
            let swapped = a1 == b2 && b1 == a2;
            if straight || swapped {
                return Expr::Ndvi { nir: a1.clone(), vis: b1.clone() };
            }
        }
    }
    e
}

/// Top-level restriction-pushing pass.
fn push_restrictions(e: Expr, catalog: &Catalog) -> Expr {
    let e = e.map_inputs(&mut |c| push_restrictions(c, catalog));
    match e {
        Expr::RestrictSpace { input, region, crs } => {
            let (pushed, exact) = push_space(*input, &region, &crs, catalog);
            if exact {
                pushed
            } else {
                Expr::RestrictSpace { input: Box::new(pushed), region, crs }
            }
        }
        Expr::RestrictTime { input, times } => push_time(*input, &times, catalog),
        other => other,
    }
}

/// Largest cell step (absolute) of the first source lattice below an
/// expression, used to size conservative push margins.
fn source_step(e: &Expr, catalog: &Catalog) -> Option<f64> {
    let mut step = None;
    e.visit(&mut |x| {
        if step.is_none() {
            if let Expr::Source(n) = x {
                step = catalog
                    .schema(n)
                    .and_then(|s| s.sector_lattice)
                    .map(|l| l.step_x.abs().max(l.step_y.abs()));
            }
        }
    });
    step
}

/// A rectangular superset of `region` grown by `margin` (in the region's
/// own CRS units).
fn expanded(region: &Region, margin: f64) -> Region {
    Region::Rect(region.bbox().expand(margin))
}

/// Converts a margin given in `from`-CRS units into `to`-CRS units
/// (nominal scale factors; callers double it for safety).
fn convert_margin(margin: f64, from: &geostreams_geo::Crs, to: &geostreams_geo::Crs) -> f64 {
    margin * from.meters_per_unit() / to.meters_per_unit()
}

/// Pushes a spatial restriction as deep as possible; returns the pushed
/// expression and whether the push is exact (no conservative region
/// transformation happened on any path).
fn push_space(
    e: Expr,
    region: &Region,
    rcrs: &geostreams_geo::Crs,
    catalog: &Catalog,
) -> (Expr, bool) {
    let into_inputs = |e: Expr, region: &Region, rcrs: &geostreams_geo::Crs| {
        let mut exact = true;
        let node = e.map_inputs(&mut |input| {
            let (pushed, x) = push_space(input, region, rcrs, catalog);
            exact &= x;
            pushed
        });
        (node, exact)
    };
    // A resampling operator's boundary cell reads up to `cells` input
    // cells beyond R: push a margin-expanded region and keep the outer
    // restriction (never exact).
    let widened = |e: Expr, cells: f64| {
        let input = e.inputs()[0];
        let Some(step) = source_step(input, catalog) else { return (e, false) };
        let in_crs = catalog.crs_of(input).unwrap_or(*rcrs);
        let margin = 2.0 * convert_margin(step * cells, &in_crs, rcrs);
        (into_inputs(e, &expanded(region, margin), rcrs).0, false)
    };
    match e {
        // Delay selects the same cells whatever the temporal shift;
        // point shedding drops cells by lattice position only.
        Expr::MapValue { .. }
        | Expr::RestrictValue { .. }
        | Expr::RestrictTime { .. }
        | Expr::RestrictSpace { .. }
        | Expr::Compose { .. }
        | Expr::Ndvi { .. }
        | Expr::AggTime { .. }
        | Expr::Delay { .. }
        | Expr::Shed { policy: ShedPolicy::Points, .. } => into_inputs(e, region, rcrs),
        // A fine cell whose center is inside R may come from a coarse
        // cell whose center is just outside; a boundary block averages
        // cells up to k steps outside; a neighbourhood reads k/2 cells
        // beyond the edge.
        Expr::Magnify { .. } => widened(e, 1.0),
        Expr::Downsample { k, .. } => widened(e, f64::from(k + 1)),
        Expr::Focal { k, .. } => widened(e, f64::from(k / 2 + 1)),
        Expr::Reproject { input, to, kernel } => {
            // §3.4: map R into the input coordinate system; the mapped
            // region is a conservative bbox (padded), so the result is
            // never exact — the caller keeps the original restriction.
            let input_crs = catalog.crs_of(&input);
            let mapped =
                input_crs.ok().and_then(|c| map_region(region, rcrs, &c, 16).ok().map(|r| (c, r)));
            match mapped {
                Some((in_crs, rect)) => {
                    // Pad by a few source cells so boundary interpolation
                    // neighbors survive the pushed restriction.
                    let margin = source_step(&input, catalog).unwrap_or(0.0) * 4.0;
                    let rect = rect.expand(margin);
                    let (i, _) = push_space(*input, &Region::Rect(rect), &in_crs, catalog);
                    (Expr::Reproject { input: Box::new(i), to, kernel }, false)
                }
                None => (Expr::Reproject { input, to, kernel }, false),
            }
        }
        // Stretch scopes its statistics to the surviving points, so a
        // restriction does not commute; row shedding counts arriving
        // frames, so a restriction below it would change the frame
        // parity; orientation moves content spatially (restricting
        // before/after selects different world regions); spatial
        // aggregates own their region; sources are where the
        // restriction lands. Stop here.
        _ => (Expr::RestrictSpace { input: Box::new(e), region: region.clone(), crs: *rcrs }, true),
    }
}

/// Whether every source below `e` stamps its frames with sector ids: a
/// sector then holds one timestamp, and a time restriction keeps or
/// drops it whole.
fn sector_ids(e: &Expr, catalog: &Catalog) -> bool {
    let mut all = true;
    e.visit(&mut |x| {
        if let Expr::Source(n) = x {
            all &= catalog.schema(n).is_some_and(|s| s.time_semantics == TimeSemantics::SectorId);
        }
    });
    all
}

/// `times`'s covering window with its lower bound moved `back` sectors
/// earlier, as a restriction to push below an operator whose output at
/// `t` reads its input's sectors `t - back ..= t`; `None` when the
/// window is unbounded (nothing to push).
fn widened(times: &TimeSet, back: i64) -> Option<TimeSet> {
    let w = time_set_window(times);
    let lo = w.lo.map(|lo| lo.saturating_sub(back));
    (w != TimeWindow::unbounded()).then_some(TimeSet::Interval { lo, hi: w.hi })
}

/// Pushes a temporal restriction toward the sources. A time restriction
/// keeps or drops whole frames by timestamp, so it crosses an operator:
///
/// * **exact** through value restrictions and transforms, spatial
///   restrictions, compositions (into both inputs), orientation,
///   magnification, point shedding and a frame-scoped stretch, whose
///   output frames keep their input frames' timestamps; and, on a
///   sector-id input, through downsampling and an image-scoped stretch,
///   since a sector then holds one timestamp;
/// * **same set, outer kept**, on a sector-id input, through `focal`,
///   `reproject` and `agg_space`: each emits a zero-filled lattice (or
///   point) for a sector whose frames the pushed restriction removed,
///   which the outer one drops;
/// * **widened, outer kept**, on a sector-id input, through
///   `delay(g, d)` (`[lo−d, hi)`) and `agg_time(g, f, W)`
///   (`[lo−W+1, hi)`): the output of sector `t` reads the input's
///   sectors back to `t−d` or `t−W+1`;
/// * **stop** at `shed(…, "rows", k)` (its frame counter runs across
///   timestamps), at the other buffering operators over
///   measurement-time input (a sector holds many timestamps, and an
///   output sector is stamped apart from its input frames), and at
///   another restriction.
fn push_time(e: Expr, times: &TimeSet, catalog: &Catalog) -> Expr {
    let into_inputs =
        |e: Expr, times: &TimeSet| e.map_inputs(&mut |c| push_time(c, times, catalog));
    let kept = |node: Expr| Expr::RestrictTime { input: Box::new(node), times: times.clone() };
    let sectors = sector_ids(&e, catalog);
    match e {
        Expr::MapValue { .. }
        | Expr::RestrictValue { .. }
        | Expr::RestrictSpace { .. }
        | Expr::Compose { .. }
        | Expr::Ndvi { .. }
        | Expr::Orient { .. }
        | Expr::Magnify { .. }
        | Expr::Shed { policy: ShedPolicy::Points, .. }
        | Expr::Stretch { scope: StretchScope::Frame, .. } => into_inputs(e, times),
        Expr::Downsample { .. } | Expr::Stretch { .. } if sectors => into_inputs(e, times),
        Expr::Focal { .. } | Expr::Reproject { .. } | Expr::AggSpace { .. } if sectors => {
            kept(into_inputs(e, times))
        }
        Expr::Delay { d, .. } if sectors => match widened(times, i64::from(d)) {
            Some(w) => kept(into_inputs(e, &w)),
            None => kept(e),
        },
        Expr::AggTime { window, .. } if sectors => match widened(times, i64::from(window) - 1) {
            Some(w) => kept(into_inputs(e, &w)),
            None => kept(e),
        },
        _ => kept(e),
    }
}

/// Merges directly-nested rectangular spatial restrictions of one CRS.
fn merge_restricts(e: Expr) -> Expr {
    let e = e.map_inputs(&mut merge_restricts);
    if let Expr::RestrictSpace { input, region: Region::Rect(outer), crs } = &e {
        if let Expr::RestrictSpace { input: inner_input, region: Region::Rect(inner), crs: crs2 } =
            &**input
        {
            if crs == crs2 {
                let merged = outer.intersect(inner);
                return Expr::RestrictSpace {
                    input: inner_input.clone(),
                    region: Region::Rect(merged),
                    crs: *crs,
                };
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StreamSchema, VecStream};
    use crate::query::parser::parse_query;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    /// The optimized expression alone: these tests match its shape.
    fn optimize(e: &Expr, cat: &Catalog) -> Expr {
        (*super::optimize(e, cat)).clone()
    }

    fn catalog() -> Catalog {
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 16, 16);
        let mut cat = Catalog::new();
        for name in ["g1", "g2"] {
            let mut schema = StreamSchema::new(name, Crs::LatLon);
            schema.sector_lattice = Some(lattice);
            let name = name.to_string();
            cat.register(schema, move || {
                Box::new(VecStream::<f32>::single_sector(&name, lattice, 0, |c, r| {
                    f64::from(c + r)
                }))
            });
        }
        cat
    }

    fn count_nodes(e: &Expr, pred: impl Fn(&Expr) -> bool) -> usize {
        let mut n = 0;
        e.visit(&mut |x| {
            if pred(x) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn pushes_restriction_through_value_transform() {
        let cat = catalog();
        let e =
            parse_query("restrict_space(scale(g1, 2, 0), bbox(-123, 37, -122, 38), \"latlon\")")
                .unwrap();
        let o = optimize(&e, &cat);
        // The restriction now sits directly on the source.
        match &o {
            Expr::MapValue { input, .. } => {
                assert!(matches!(**input, Expr::RestrictSpace { .. }));
            }
            other => panic!("expected MapValue on top, got {other:?}"),
        }
    }

    #[test]
    fn pushes_restriction_into_both_compose_inputs() {
        let cat = catalog();
        let e = parse_query("restrict_space(add(g1, g2), bbox(-123, 37, -122, 38), \"latlon\")")
            .unwrap();
        let o = optimize(&e, &cat);
        assert_eq!(count_nodes(&o, |x| matches!(x, Expr::RestrictSpace { .. })), 2);
        match &o {
            Expr::Compose { left, right, .. } => {
                assert!(matches!(**left, Expr::RestrictSpace { .. }));
                assert!(matches!(**right, Expr::RestrictSpace { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pushdown_through_reprojection_maps_region_and_keeps_outer() {
        let cat = catalog();
        let e = parse_query(
            "restrict_space(reproject(g1, \"utm:10N\"),
                bbox(400000, 4100000, 500000, 4200000), \"utm:10N\")",
        )
        .unwrap();
        let o = optimize(&e, &cat);
        // Outer restriction kept (conservative inner), inner restriction
        // in lat/lon pushed onto the source.
        match &o {
            Expr::RestrictSpace { input, crs, .. } => {
                assert_eq!(*crs, Crs::utm(10, true));
                match &**input {
                    Expr::Reproject { input, .. } => match &**input {
                        Expr::RestrictSpace { crs, region, .. } => {
                            assert_eq!(*crs, Crs::LatLon);
                            // The mapped region covers the UTM window
                            // (~1° of longitude) plus conservative
                            // padding and interpolation margins.
                            let b = region.bbox();
                            assert!(b.x_min > -126.0 && b.x_max < -118.0, "{b:?}");
                            assert!(b.width() < 6.0, "{b:?} should stay a small window");
                        }
                        other => panic!("expected inner restrict, got {other:?}"),
                    },
                    other => panic!("expected reproject, got {other:?}"),
                }
            }
            other => panic!("expected outer restrict, got {other:?}"),
        }
    }

    #[test]
    fn fuses_the_ndvi_pattern() {
        let cat = catalog();
        for q in ["div(sub(g1, g2), add(g2, g1))", "div(sub(g1, g2), add(g1, g2))"] {
            let e = parse_query(q).unwrap();
            let o = optimize(&e, &cat);
            assert!(matches!(o, Expr::Ndvi { .. }), "{q} -> {o}");
        }
        // A non-matching pattern is left alone.
        let e = parse_query("div(sub(g1, g2), add(g2, g2))").unwrap();
        let o = optimize(&e, &cat);
        assert!(!matches!(o, Expr::Ndvi { .. }));
    }

    #[test]
    fn merges_nested_rect_restrictions() {
        let cat = catalog();
        let e = parse_query(
            "restrict_space(
               restrict_space(g1, bbox(-124, 36, -121, 39), \"latlon\"),
               bbox(-123, 37, -120, 40), \"latlon\")",
        )
        .unwrap();
        let o = optimize(&e, &cat);
        assert_eq!(count_nodes(&o, |x| matches!(x, Expr::RestrictSpace { .. })), 1);
        match &o {
            Expr::RestrictSpace { region, .. } => {
                let b = region.bbox();
                assert_eq!((b.x_min, b.y_min, b.x_max, b.y_max), (-123.0, 37.0, -121.0, 39.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn linear_transforms_fuse() {
        let cat = catalog();
        let e = parse_query("scale(scale(g1, 2, 1), 3, -1)").unwrap();
        let o = optimize(&e, &cat);
        match o {
            Expr::MapValue { func, input } => {
                assert_eq!(func, crate::ops::ValueFunc::Linear { scale: 6.0, offset: 2.0 });
                assert!(matches!(*input, Expr::Source(_)));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn identity_operators_vanish() {
        let cat = catalog();
        for q in [
            "scale(g1, 1, 0)",
            "magnify(g1, 1)",
            "downsample(g1, 1)",
            "orient(orient(g1, \"fliph\"), \"fliph\")",
        ] {
            let e = parse_query(q).unwrap();
            let o = optimize(&e, &cat);
            assert!(matches!(o, Expr::Source(_)), "{q} -> {o}");
        }
        // Non-involutive double rotations stay.
        let e = parse_query("orient(orient(g1, \"rot90\"), \"rot90\")").unwrap();
        let o = optimize(&e, &cat);
        assert!(matches!(o, Expr::Orient { .. }));
    }

    #[test]
    fn temporal_restriction_reaches_sources() {
        let cat = catalog();
        let e = parse_query("restrict_time(add(g1, g2), interval(0, 10))").unwrap();
        let o = optimize(&e, &cat);
        match &o {
            Expr::Compose { left, right, .. } => {
                assert!(matches!(**left, Expr::RestrictTime { .. }));
                assert!(matches!(**right, Expr::RestrictTime { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restriction_stops_at_stretch() {
        let cat = catalog();
        let e = parse_query(
            "restrict_space(stretch(g1, \"linear\"), bbox(-123, 37, -122, 38), \"latlon\")",
        )
        .unwrap();
        let o = optimize(&e, &cat);
        // Restriction stays above the stretch (semantics would change
        // otherwise: the stretch statistics must cover the full frame).
        match &o {
            Expr::RestrictSpace { input, .. } => {
                assert!(matches!(**input, Expr::Stretch { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn optimized_and_unoptimized_agree_on_output() {
        let cat = catalog();
        let planner = crate::query::Planner::new(&cat);
        let queries = [
            "restrict_space(scale(add(g1, g2), 0.5, 0), bbox(-123, 37, -121, 39), \"latlon\")",
            "restrict_space(ndvi(g1, g2), bbox(-123.5, 36.5, -121, 39), \"latlon\")",
            "restrict_time(restrict_space(sub(g1, g2), bbox(-124, 36, -122, 38), \"latlon\"),
                           interval(none, none))",
        ];
        for q in queries {
            let e = parse_query(q).unwrap();
            let o = super::optimize(&e, &cat);
            let mut base = planner.build(&Plan::analyze(e, &cat)).unwrap();
            let mut opt = planner.build(&o).unwrap();
            let mut a = base.drain_points();
            let mut b = opt.drain_points();
            a.sort_by_key(|p| (p.cell.row, p.cell.col));
            b.sort_by_key(|p| (p.cell.row, p.cell.col));
            assert_eq!(a.len(), b.len(), "{q}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.cell, y.cell, "{q}");
                assert!((x.value - y.value).abs() < 1e-6, "{q}");
            }
        }
    }
}
