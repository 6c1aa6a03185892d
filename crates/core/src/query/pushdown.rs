//! Restriction pushdown facts: the effective temporal window and
//! spatial extent each *source* of a plan is observed through.
//!
//! The optimizer pushes restriction operators toward the sources to cut
//! work inside the pipeline; this module derives the same facts without
//! rewriting, as data: for every source leaf, the intersection of all
//! temporal restrictions (`G|T`, Definition 7) and spatial restrictions
//! (`G|R`, Definition 6) on the path from the plan root. Two consumers
//! use it:
//!
//! * the DSMS planner routes each source to the **archive**, the **live
//!   feed**, or a **hybrid splice** of both by comparing the source's
//!   temporal window against the live feed's start ("now"), and hands
//!   the spatial extent to the archive so replay decodes only
//!   intersecting tiles (restriction pushdown into the store);
//! * the static analyzer ([`super::analyze()`]) classifies replay
//!   sources as bounded and flags wholly-past windows that no archive
//!   can serve.

use super::ast::Expr;
use super::plan::Catalog;
use crate::model::TimeSet;
use geostreams_geo::{map_region, Crs, Rect, Region};
use std::collections::HashMap;

/// A half-open window `[lo, hi)` of logical timestamps; `None` bounds
/// are unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeWindow {
    /// Inclusive lower bound (`None` = unbounded past).
    pub lo: Option<i64>,
    /// Exclusive upper bound (`None` = unbounded future).
    pub hi: Option<i64>,
}

impl TimeWindow {
    /// The unrestricted window.
    pub fn unbounded() -> Self {
        TimeWindow { lo: None, hi: None }
    }

    /// Intersection of two windows.
    pub fn intersect(&self, other: &TimeWindow) -> TimeWindow {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        TimeWindow { lo, hi }
    }

    /// True when no timestamp can fall inside the window.
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(lo), Some(hi)) if lo >= hi)
    }

    /// True when the whole window lies strictly before `now` — a live
    /// feed starting at `now` can never deliver anything inside it.
    pub fn wholly_before(&self, now: i64) -> bool {
        !self.is_empty() && self.hi.is_some_and(|hi| hi <= now)
    }

    /// True when the window starts before `now` (the stream epoch is 0,
    /// so an unbounded lower bound starts in the past exactly when
    /// `now > 0`): the window has a portion only an archive can serve.
    pub fn starts_before(&self, now: i64) -> bool {
        !self.is_empty() && self.lo.unwrap_or(0) < now && self.hi.is_none_or(|hi| hi > 0)
    }

    /// Shifts both bounds by `delta` (saturating).
    pub fn shifted(&self, delta: i64) -> TimeWindow {
        TimeWindow {
            lo: self.lo.map(|v| v.saturating_add(delta)),
            hi: self.hi.map(|v| v.saturating_add(delta)),
        }
    }
}

impl std::fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lo = self.lo.map_or("-inf".to_string(), |v| v.to_string());
        let hi = self.hi.map_or("+inf".to_string(), |v| v.to_string());
        write!(f, "[{lo}, {hi})")
    }
}

/// Conservative window of a [`TimeSet`]: the smallest interval
/// containing every selected timestamp (recurring sets are unbounded).
pub fn time_set_window(times: &TimeSet) -> TimeWindow {
    match times {
        TimeSet::Instants(v) => match (v.iter().min(), v.iter().max()) {
            (Some(lo), Some(hi)) => TimeWindow { lo: Some(*lo), hi: Some(hi.saturating_add(1)) },
            // An empty instant set selects nothing.
            _ => TimeWindow { lo: Some(0), hi: Some(0) },
        },
        TimeSet::Interval { lo, hi } => TimeWindow { lo: *lo, hi: *hi },
        TimeSet::Recurring { .. } => TimeWindow::unbounded(),
    }
}

/// The restriction context one source leaf is observed through.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceWindow {
    /// Source name.
    pub name: String,
    /// Intersection of every temporal restriction above the leaf.
    pub window: TimeWindow,
    /// Bounding rectangle (in the source's own CRS) of the intersection
    /// of every spatial restriction above the leaf; `None` when the
    /// leaf is spatially unrestricted (or a constraint could not be
    /// mapped, which degrades to "no pushdown", never to wrong answers).
    pub region: Option<Rect>,
}

/// Spatial constraints are carried down as `(region, crs)` pairs and
/// only mapped into the source CRS at the leaf (the same conservative
/// bounding-box mapping the optimizer's pushdown uses).
#[derive(Clone)]
struct SpaceConstraint {
    region: Region,
    crs: Crs,
}

fn walk(
    expr: &Expr,
    window: TimeWindow,
    space: Vec<SpaceConstraint>,
    catalog: &Catalog,
    out: &mut Vec<SourceWindow>,
) {
    match expr {
        Expr::Source(name) => {
            let mut region: Option<Rect> = None;
            if let Some(schema) = catalog.schema(name) {
                for c in &space {
                    let rect = if c.crs == schema.crs {
                        Some(c.region.bbox())
                    } else {
                        map_region(&c.region, &c.crs, &schema.crs, 8).ok()
                    };
                    // An unmappable constraint cannot prune safely.
                    let Some(rect) = rect else { continue };
                    region = Some(match region {
                        Some(r) => r.intersect(&rect),
                        None => rect,
                    });
                }
            }
            out.push(SourceWindow { name: name.clone(), window, region });
        }
        Expr::RestrictTime { input, times } => {
            walk(input, window.intersect(&time_set_window(times)), space, catalog, out);
        }
        Expr::RestrictSpace { input, region, crs } => {
            let mut space = space;
            space.push(SpaceConstraint { region: region.clone(), crs: *crs });
            walk(input, window, space, catalog, out);
        }
        Expr::AggSpace { input, .. } => {
            // The aggregate region is expressed in the stream CRS at
            // that point of the plan, which this walk does not track;
            // keep the temporal facts only (no spatial pruning through
            // aggregates).
            walk(input, window, space, catalog, out);
        }
        Expr::Delay { input, d } => {
            // `delay(g, d)` re-stamps data from `d` sectors ago with the
            // current timestamp: output window [lo, hi) consumes input
            // from [lo - d, hi).
            let shifted = TimeWindow { lo: window.shifted(-i64::from(*d)).lo, hi: window.hi };
            walk(input, shifted, space, catalog, out);
        }
        Expr::Orient { input, .. } => {
            // Orientation changes move points in world space: spatial
            // constraints from above do not transfer below.
            walk(input, window, Vec::new(), catalog, out);
        }
        Expr::RestrictValue { input, .. }
        | Expr::MapValue { input, .. }
        | Expr::Stretch { input, .. }
        | Expr::Focal { input, .. }
        | Expr::Magnify { input, .. }
        | Expr::Downsample { input, .. }
        | Expr::Reproject { input, .. }
        | Expr::Shed { input, .. }
        | Expr::AggTime { input, .. } => walk(input, window, space, catalog, out),
        Expr::Compose { left, right, .. } => {
            walk(left, window, space.clone(), catalog, out);
            walk(right, window, space, catalog, out);
        }
        Expr::Ndvi { nir, vis } => {
            walk(nir, window, space.clone(), catalog, out);
            walk(vis, window, space, catalog, out);
        }
    }
}

/// Per-leaf restriction windows in plan visit order (a source referenced
/// twice yields two entries).
pub fn source_windows(expr: &Expr, catalog: &Catalog) -> Vec<SourceWindow> {
    let mut out = Vec::new();
    walk(expr, TimeWindow::unbounded(), Vec::new(), catalog, &mut out);
    out
}

/// Per-source windows merged by name: when a source appears under
/// several restriction contexts the merge is the conservative *union*
/// (widest window, union of extents), since the shared feed must satisfy
/// every occurrence.
pub fn merged_source_windows(expr: &Expr, catalog: &Catalog) -> HashMap<String, SourceWindow> {
    let mut merged: HashMap<String, SourceWindow> = HashMap::new();
    for sw in source_windows(expr, catalog) {
        match merged.get_mut(&sw.name) {
            None => {
                merged.insert(sw.name.clone(), sw);
            }
            Some(prev) => {
                prev.window = TimeWindow {
                    lo: match (prev.window.lo, sw.window.lo) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        _ => None,
                    },
                    hi: match (prev.window.hi, sw.window.hi) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    },
                };
                prev.region = match (prev.region, sw.region) {
                    (Some(a), Some(b)) => Some(a.union(&b)),
                    _ => None,
                };
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StreamSchema, VecStream};
    use crate::query::parse_query;
    use geostreams_geo::LatticeGeoref;

    fn catalog() -> Catalog {
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 64, 64);
        let mut cat = Catalog::new();
        for name in ["g1", "g2"] {
            let mut schema = StreamSchema::new(name, Crs::LatLon);
            schema.sector_lattice = Some(lattice);
            let name = name.to_string();
            cat.register(schema, move || {
                Box::new(VecStream::<f32>::single_sector(&name, lattice, 0, |_, _| 0.0))
            });
        }
        cat
    }

    fn windows(q: &str) -> Vec<SourceWindow> {
        source_windows(&parse_query(q).unwrap(), &catalog())
    }

    #[test]
    fn unrestricted_source_is_unbounded() {
        let w = windows("scale(g1, 2, 0)");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].window, TimeWindow::unbounded());
        assert_eq!(w[0].region, None);
    }

    #[test]
    fn nested_time_restrictions_intersect() {
        let w = windows("restrict_time(restrict_time(g1, interval(0, 10)), interval(3, none))");
        assert_eq!(w[0].window, TimeWindow { lo: Some(3), hi: Some(10) });
        assert!(!w[0].window.is_empty());
        assert!(w[0].window.wholly_before(10));
        assert!(w[0].window.starts_before(4));
        assert!(!w[0].window.starts_before(3));
    }

    #[test]
    fn instants_become_a_covering_interval() {
        let w = windows("restrict_time(g1, instants(7, 2, 5))");
        assert_eq!(w[0].window, TimeWindow { lo: Some(2), hi: Some(8) });
    }

    #[test]
    fn spatial_restriction_maps_into_the_source_crs() {
        let w = windows("restrict_space(g1, bbox(-123, 37, -122, 38), \"latlon\")");
        let r = w[0].region.unwrap();
        assert!((r.x_min - -123.0).abs() < 1e-9 && (r.y_max - 38.0).abs() < 1e-9);
    }

    #[test]
    fn compose_applies_the_window_to_both_sides() {
        let w = windows("restrict_time(ndvi(g1, g2), interval(1, 4))");
        assert_eq!(w.len(), 2);
        for sw in &w {
            assert_eq!(sw.window, TimeWindow { lo: Some(1), hi: Some(4) });
        }
    }

    #[test]
    fn delay_widens_the_window_downward() {
        let w = windows("restrict_time(delay(g1, 2), interval(5, 8))");
        assert_eq!(w[0].window, TimeWindow { lo: Some(3), hi: Some(8) });
    }

    #[test]
    fn merged_windows_union_per_name() {
        let expr = parse_query(
            "compose(restrict_time(g1, interval(0, 2)), \"+\", restrict_time(g1, interval(5, 9)))",
        )
        .unwrap();
        let merged = merged_source_windows(&expr, &catalog());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged["g1"].window, TimeWindow { lo: Some(0), hi: Some(9) });
    }

    #[test]
    fn empty_window_detected() {
        let w = windows("restrict_time(g1, interval(9, 3))");
        assert!(w[0].window.is_empty());
        assert!(!w[0].window.wholly_before(100));
        assert!(!w[0].window.starts_before(100));
    }
}
