//! Restriction pushdown facts: the temporal window and spatial extent
//! each *source leaf* of an optimized plan is read through.
//!
//! How a restriction crosses an operator is said in one place: the
//! optimizer's `push_space`/`push_time` (§3.4), which rewrite the plan
//! and keep the outer restriction wherever the push only widens. This
//! module reads the result and names no other operator: a leaf's window
//! and region are the intersection of the `RestrictTime`/`RestrictSpace`
//! chain sitting *directly* on its `Source`, and any other node resets
//! the chain. Regions map into the source CRS with `plan::region_in`,
//! the mapping the restriction operator itself tests with. The
//! restriction stays in the plan, so a consumer that serves the leaf
//! from elsewhere only pre-filters. Two consumers use it:
//!
//! * the DSMS planner routes each source leaf to the **archive**, the
//!   **live feed**, or a **hybrid splice** of both by comparing the
//!   leaf's window against the live feed's start ("now"), and hands the
//!   spatial extent to the archive so replay decodes only intersecting
//!   tiles (restriction pushdown into the store);
//! * the static analyzer ([`super::analyze()`]) classifies replayed
//!   leaves as bounded, flags wholly-past windows that no archive can
//!   serve, and reports a past window held above an operator no
//!   restriction crosses ([`chain_windows`]).

use super::ast::Expr;
use super::plan::{region_in, Catalog};
use crate::model::TimeSet;
use geostreams_geo::{Crs, Rect, Region};

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

    /// True when the window is restricted and reaches before `now`:
    /// the part before `now` exists only in an archive.
    pub fn reaches_before(&self, now: i64) -> bool {
        *self != TimeWindow::unbounded() && (self.wholly_before(now) || self.starts_before(now))
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

/// The restriction chain one source leaf is read through.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceWindow {
    /// Source name.
    pub name: String,
    /// Intersection of the temporal restrictions stacked on the leaf.
    pub window: TimeWindow,
    /// Bounding rectangle (in the source's own CRS) of the intersection
    /// of the spatial restrictions stacked on the leaf; `None` when the
    /// leaf is spatially unrestricted (or a region could not be mapped,
    /// which degrades to "no pushdown", never to wrong answers).
    pub region: Option<Rect>,
}

/// Calls `f` on every node that is not a restriction, left to right,
/// with the window and the regions of the restriction chain sitting
/// directly on it (none when its parent is another operator).
fn chains<'a>(
    expr: &'a Expr,
    window: TimeWindow,
    space: &mut Vec<(&'a Region, Crs)>,
    f: &mut impl FnMut(&'a Expr, TimeWindow, &[(&'a Region, Crs)]),
) {
    match expr {
        Expr::RestrictTime { input, times } => {
            chains(input, window.intersect(&time_set_window(times)), space, f);
        }
        Expr::RestrictSpace { input, region, crs } => {
            space.push((region, *crs));
            chains(input, window, space, f);
            space.pop();
        }
        node => {
            f(node, window, space);
            for input in node.inputs() {
                chains(input, TimeWindow::unbounded(), &mut Vec::new(), f);
            }
        }
    }
}

/// Per-leaf restriction windows in plan visit order (a source read
/// twice yields two entries, each with its own chain).
pub fn source_windows(expr: &Expr, catalog: &Catalog) -> Vec<SourceWindow> {
    let mut out = Vec::new();
    chains(expr, TimeWindow::unbounded(), &mut Vec::new(), &mut |node, window, space| {
        let Expr::Source(name) = node else { return };
        let source_crs = catalog.schema(name).map(|s| s.crs);
        let region = space
            .iter()
            // An unmappable region cannot prune safely.
            .filter_map(|(region, crs)| Some(region_in(region, crs, &source_crs?).ok()?.bbox()))
            .reduce(|a, b| a.intersect(&b));
        out.push(SourceWindow { name: name.clone(), window, region });
    });
    out
}

/// The window of every restriction chain sitting directly on a node
/// (a source leaf, or an operator the optimizer stopped at or widened
/// across), with that node, in plan visit order.
pub fn chain_windows(expr: &Expr) -> Vec<(&Expr, TimeWindow)> {
    let mut out = Vec::new();
    chains(expr, TimeWindow::unbounded(), &mut Vec::new(), &mut |node, window, _| {
        if window != TimeWindow::unbounded() {
            out.push((node, window));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StreamSchema, VecStream};
    use crate::query::{optimize, parse_query};
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

    /// The leaf windows of the optimized plan of `q`.
    fn optimized_windows(q: &str) -> Vec<SourceWindow> {
        let cat = catalog();
        source_windows(&optimize(&parse_query(q).unwrap(), &cat), &cat)
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
    fn any_other_operator_resets_the_chain() {
        let q = "restrict_time(scale(g1, 2, 0), interval(1, 4))";
        assert_eq!(windows(q)[0].window, TimeWindow::unbounded());
        let plan = parse_query(q).unwrap();
        let held = chain_windows(&plan);
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].0.contract().operator, "map_value");
        assert_eq!(held[0].1, TimeWindow { lo: Some(1), hi: Some(4) });
    }

    #[test]
    fn compose_applies_the_window_to_both_sides() {
        let w = optimized_windows("restrict_time(ndvi(g1, g2), interval(1, 4))");
        assert_eq!(w.len(), 2);
        for sw in &w {
            assert_eq!(sw.window, TimeWindow { lo: Some(1), hi: Some(4) });
        }
    }

    #[test]
    fn delay_widens_the_window_downward() {
        let w = optimized_windows("restrict_time(delay(g1, 2), interval(5, 8))");
        assert_eq!(w[0].window, TimeWindow { lo: Some(3), hi: Some(8) });
    }

    /// A source read by two leaves keeps one window per leaf: each leaf
    /// is fed what its own chain asks for, never a union.
    #[test]
    fn windows_stay_per_leaf() {
        let w = windows(
            "compose(restrict_time(g1, interval(0, 2)), \"+\", restrict_time(g1, interval(5, 9)))",
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].window, TimeWindow { lo: Some(0), hi: Some(2) });
        assert_eq!(w[1].window, TimeWindow { lo: Some(5), hi: Some(9) });
        let w = optimized_windows("restrict_time(add(g1, delay(g1, 1)), interval(1, 4))");
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].window, TimeWindow { lo: Some(1), hi: Some(4) });
        assert_eq!(w[1].window, TimeWindow { lo: Some(0), hi: Some(4) });
    }

    #[test]
    fn empty_window_detected() {
        let w = windows("restrict_time(g1, interval(9, 3))");
        assert!(w[0].window.is_empty());
        assert!(!w[0].window.wholly_before(100));
        assert!(!w[0].window.starts_before(100));
        assert!(!w[0].window.reaches_before(100));
    }
}
