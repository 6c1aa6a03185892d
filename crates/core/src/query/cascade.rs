//! Multi-query spatial-restriction indexing (§4).
//!
//! "Multiple queries against a single GeoStream are optimized using a
//! dynamic cascade tree structure \[10\], which acts as a single spatial
//! restriction operator and efficiently streams only the point data of
//! interest to current continuous queries to subsequent operators."
//!
//! [`CascadeTree`] is our re-implementation of that idea: a dynamic
//! region-subscription index over world space. Registered query regions
//! *cascade* down a quadtree; a node fully covered by a region stores the
//! query id at that node (so a point lookup collects it in O(1) on its
//! way down), and partially-overlapping regions sink toward the leaves.
//! A point lookup walks one root-to-leaf path and reports every query
//! whose region contains the point. [`NaiveRegionIndex`] is the baseline
//! the paper's design displaces: test every registered region per point.
//! Experiment E5 compares the two as the number of registered queries
//! grows.

use geostreams_geo::{Coord, Rect};

/// Identifier of a registered continuous query.
pub type QueryId = u32;

/// A point-to-subscribers index over query regions.
pub trait RegionIndex {
    /// Registers a query's (rectangular) region of interest.
    fn insert(&mut self, id: QueryId, region: Rect);

    /// Unregisters a query.
    fn remove(&mut self, id: QueryId);

    /// Appends to `out` the ids of all queries whose region contains `p`.
    fn query_point(&self, p: Coord, out: &mut Vec<QueryId>);

    /// Number of registered queries.
    fn len(&self) -> usize;

    /// True when no query is registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Baseline: a flat list scanned per point.
#[derive(Debug, Default)]
pub struct NaiveRegionIndex {
    regions: Vec<(QueryId, Rect)>,
}

impl NaiveRegionIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RegionIndex for NaiveRegionIndex {
    fn insert(&mut self, id: QueryId, region: Rect) {
        self.regions.push((id, region));
    }

    fn remove(&mut self, id: QueryId) {
        self.regions.retain(|(q, _)| *q != id);
    }

    fn query_point(&self, p: Coord, out: &mut Vec<QueryId>) {
        for (id, r) in &self.regions {
            if r.contains(p) {
                out.push(*id);
            }
        }
    }

    fn len(&self) -> usize {
        self.regions.len()
    }
}

/// One quadtree node of the cascade tree.
#[derive(Debug, Default)]
struct Node {
    /// Queries whose region fully covers this node's box.
    covered: Vec<QueryId>,
    /// Queries overlapping but not covering; only at leaf depth.
    partial: Vec<(QueryId, Rect)>,
    /// Child nodes (NW, NE, SW, SE), allocated on demand.
    children: Option<Box<[Node; 4]>>,
}

/// The dynamic cascade tree.
#[derive(Debug)]
pub struct CascadeTree {
    root: Node,
    bounds: Rect,
    max_depth: u32,
    len: usize,
}

impl CascadeTree {
    /// Creates a tree over the world rectangle `bounds` with the given
    /// maximum depth (8–12 is typical; depth `d` gives `4^d` finest
    /// cells).
    pub fn new(bounds: Rect, max_depth: u32) -> Self {
        CascadeTree { root: Node::default(), bounds, max_depth, len: 0 }
    }

    fn quadrant(b: &Rect, i: usize) -> Rect {
        let cx = (b.x_min + b.x_max) / 2.0;
        let cy = (b.y_min + b.y_max) / 2.0;
        match i {
            0 => Rect { x_min: b.x_min, y_min: cy, x_max: cx, y_max: b.y_max }, // NW
            1 => Rect { x_min: cx, y_min: cy, x_max: b.x_max, y_max: b.y_max }, // NE
            2 => Rect { x_min: b.x_min, y_min: b.y_min, x_max: cx, y_max: cy }, // SW
            _ => Rect { x_min: cx, y_min: b.y_min, x_max: b.x_max, y_max: cy }, // SE
        }
    }

    fn covers(region: &Rect, node_box: &Rect) -> bool {
        region.x_min <= node_box.x_min
            && region.y_min <= node_box.y_min
            && region.x_max >= node_box.x_max
            && region.y_max >= node_box.y_max
    }

    fn insert_rec(node: &mut Node, node_box: Rect, id: QueryId, region: &Rect, depth: u32) {
        if !region.intersects(&node_box) {
            return;
        }
        if Self::covers(region, &node_box) {
            node.covered.push(id);
            return;
        }
        if depth == 0 {
            node.partial.push((id, *region));
            return;
        }
        let children = node.children.get_or_insert_with(|| {
            Box::new([Node::default(), Node::default(), Node::default(), Node::default()])
        });
        for (i, child) in children.iter_mut().enumerate() {
            Self::insert_rec(child, Self::quadrant(&node_box, i), id, region, depth - 1);
        }
    }

    fn remove_rec(node: &mut Node, id: QueryId) {
        node.covered.retain(|q| *q != id);
        node.partial.retain(|(q, _)| *q != id);
        if let Some(children) = &mut node.children {
            for child in children.iter_mut() {
                Self::remove_rec(child, id);
            }
        }
    }

    /// Number of quadtree nodes currently allocated (space diagnostics).
    pub fn node_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            1 + n.children.as_ref().map_or(0, |c| c.iter().map(count).sum())
        }
        count(&self.root)
    }
}

impl RegionIndex for CascadeTree {
    fn insert(&mut self, id: QueryId, region: Rect) {
        let clipped = region.intersect(&self.bounds);
        if clipped.is_empty() {
            return;
        }
        Self::insert_rec(&mut self.root, self.bounds, id, &clipped, self.max_depth);
        self.len += 1;
    }

    fn remove(&mut self, id: QueryId) {
        Self::remove_rec(&mut self.root, id);
        self.len = self.len.saturating_sub(1);
    }

    fn query_point(&self, p: Coord, out: &mut Vec<QueryId>) {
        if !self.bounds.contains(p) {
            return;
        }
        let mut node = &self.root;
        let mut node_box = self.bounds;
        loop {
            out.extend_from_slice(&node.covered);
            for (id, r) in &node.partial {
                if r.contains(p) {
                    out.push(*id);
                }
            }
            let Some(children) = &node.children else { break };
            let cx = (node_box.x_min + node_box.x_max) / 2.0;
            let cy = (node_box.y_min + node_box.y_max) / 2.0;
            let idx = match (p.x >= cx, p.y >= cy) {
                (false, true) => 0,
                (true, true) => 1,
                (false, false) => 2,
                (true, false) => 3,
            };
            node_box = Self::quadrant(&node_box, idx);
            node = &children[idx];
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::new(-180.0, -90.0, 180.0, 90.0)
    }

    fn both() -> (CascadeTree, NaiveRegionIndex) {
        (CascadeTree::new(world(), 8), NaiveRegionIndex::new())
    }

    #[test]
    fn empty_index_reports_nothing() {
        let (tree, naive) = both();
        let mut out = Vec::new();
        tree.query_point(Coord::new(0.0, 0.0), &mut out);
        naive.query_point(Coord::new(0.0, 0.0), &mut out);
        assert!(out.is_empty());
        assert!(tree.is_empty());
    }

    #[test]
    fn single_region_membership() {
        let (mut tree, mut naive) = both();
        let r = Rect::new(-123.0, 37.0, -121.0, 39.0);
        tree.insert(1, r);
        naive.insert(1, r);
        for (p, inside) in [
            (Coord::new(-122.0, 38.0), true),
            (Coord::new(-123.0, 37.0), true), // boundary
            (Coord::new(-120.0, 38.0), false),
            (Coord::new(-122.0, 40.0), false),
        ] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.query_point(p, &mut a);
            naive.query_point(p, &mut b);
            assert_eq!(a.len() == 1, inside, "tree at {p}");
            assert_eq!(b.len() == 1, inside, "naive at {p}");
        }
    }

    #[test]
    fn tree_agrees_with_naive_on_random_workload() {
        let (mut tree, mut naive) = both();
        // Deterministic pseudo-random regions.
        let mut seed = 0x1234_5678u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let mut regions = Vec::new();
        for id in 0..200u32 {
            let x = -180.0 + next() * 170.0;
            let y = -90.0 + next() * 85.0;
            let w = next() * 40.0 + 0.1;
            let h = next() * 30.0 + 0.1;
            let r = Rect::new(x, y, (x + w).min(180.0), (y + h).min(90.0));
            tree.insert(id, r);
            naive.insert(id, r);
            regions.push(r);
        }
        for _ in 0..500 {
            let p = Coord::new(-180.0 + next() * 180.0, -90.0 + next() * 90.0);
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.query_point(p, &mut a);
            naive.query_point(p, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "divergence at {p}");
        }
    }

    #[test]
    fn removal_unsubscribes() {
        let (mut tree, _) = both();
        tree.insert(1, Rect::new(0.0, 0.0, 10.0, 10.0));
        tree.insert(2, Rect::new(5.0, 5.0, 15.0, 15.0));
        tree.remove(1);
        let mut out = Vec::new();
        tree.query_point(Coord::new(7.0, 7.0), &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn covering_region_lands_high_in_the_tree() {
        let mut tree = CascadeTree::new(world(), 8);
        tree.insert(1, world());
        // A region covering everything is stored at the root: one node.
        assert_eq!(tree.node_count(), 1);
        let mut out = Vec::new();
        tree.query_point(Coord::new(12.0, -45.0), &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn out_of_bounds_regions_and_points() {
        let mut tree = CascadeTree::new(Rect::new(0.0, 0.0, 10.0, 10.0), 6);
        tree.insert(1, Rect::new(20.0, 20.0, 30.0, 30.0)); // fully outside
        assert_eq!(tree.len(), 0);
        tree.insert(2, Rect::new(5.0, 5.0, 25.0, 25.0)); // clipped
        let mut out = Vec::new();
        tree.query_point(Coord::new(50.0, 50.0), &mut out);
        assert!(out.is_empty());
        tree.query_point(Coord::new(7.0, 7.0), &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn duplicate_inserts_report_per_registration() {
        let (mut tree, _) = both();
        tree.insert(7, Rect::new(0.0, 0.0, 1.0, 1.0));
        tree.insert(7, Rect::new(0.5, 0.5, 2.0, 2.0));
        let mut out = Vec::new();
        tree.query_point(Coord::new(0.75, 0.75), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![7, 7]);
        tree.remove(7);
        // Removal drops every registration of the id.
        let mut out2 = Vec::new();
        tree.query_point(Coord::new(0.75, 0.75), &mut out2);
        assert!(out2.is_empty());
    }
}
