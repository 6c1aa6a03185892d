//! Catalog and physical planner.
//!
//! The planner turns an [`Expr`] into a runnable operator pipeline — the
//! "Parser → Optimization → Execution" path of Fig. 3. Pipelines are
//! normalized to `f32` pixels ([`BoxedF32Stream`]); the operator library
//! itself stays generic for direct users.

use super::analyze::Plan;
use super::ast::Expr;
use crate::error::{CoreError, Result};
use crate::model::{BoxedF32Stream, GeoStream, StreamSchema};
use crate::obs::{PipelineObs, TracedStream};
use crate::ops::{
    Compose, Delay, Downsample, FocalTransform, Magnify, MapTransform, Orient, Reproject,
    ReprojectConfig, Shed, SpatialAggregate, SpatialRestrict, StretchTransform, TemporalAggregate,
    TemporalRestrict, ValueRestrict,
};
use geostreams_geo::{map_region, Crs, Region};
use std::collections::HashMap;
use std::fmt;

/// Factory producing a fresh instance of a named source stream.
pub type SourceFactory = Box<dyn Fn() -> BoxedF32Stream + Send + Sync>;

/// The stream catalog: named sources with schemas (the §4 "stream
/// generator" registry).
#[derive(Default)]
pub struct Catalog {
    sources: HashMap<String, (StreamSchema, SourceFactory)>,
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog").field("sources", &self.names()).finish()
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source; replaces any previous entry of the same name.
    pub fn register(
        &mut self,
        schema: StreamSchema,
        factory: impl Fn() -> BoxedF32Stream + Send + Sync + 'static,
    ) {
        self.sources.insert(schema.name.clone(), (schema, Box::new(factory)));
    }

    /// Schema of a registered source.
    pub fn schema(&self, name: &str) -> Option<&StreamSchema> {
        self.sources.get(name).map(|(s, _)| s)
    }

    /// Opens a fresh instance of a source stream.
    pub fn open(&self, name: &str) -> Result<BoxedF32Stream> {
        self.sources
            .get(name)
            .map(|(_, f)| f())
            .ok_or_else(|| CoreError::UnknownSource(name.to_string()))
    }

    /// Registered source names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sources.keys().cloned().collect();
        v.sort();
        v
    }

    /// The output CRS of an expression over this catalog.
    pub fn crs_of(&self, expr: &Expr) -> Result<Crs> {
        match expr {
            Expr::Source(name) => self
                .schema(name)
                .map(|s| s.crs)
                .ok_or_else(|| CoreError::UnknownSource(name.clone())),
            Expr::Reproject { to, .. } => Ok(*to),
            // Every other operator keeps its (first) input's CRS; a
            // composition's inputs share one.
            _ => self.crs_of(expr.inputs()[0]),
        }
    }
}

/// `region`, given in `crs` coordinates, as a stream in `stream_crs`
/// tests it: unchanged in the same system, otherwise mapped there as a
/// conservative bounding box (§3.4: "R needs to be mapped to the
/// coordinate system C").
pub(crate) fn region_in(region: &Region, crs: &Crs, stream_crs: &Crs) -> Result<Region> {
    if crs == stream_crs {
        return Ok(region.clone());
    }
    Ok(Region::Rect(map_region(region, crs, stream_crs, 16)?))
}

/// The one operator constructor: builds the operator at `node` over its
/// already-built input streams, which `inputs` yields left to right.
/// The planner's recursion hands it the node's subplans (built lazily,
/// so a parameter check still fails before any source is opened); the
/// morsel driver hands it the stage chain built so far, once per morsel
/// (`exec::morsel`). A source leaf is not an operator: it stands for the
/// stream it is given.
pub(crate) fn build_operator(
    node: &Expr,
    inputs: &mut dyn Iterator<Item = Result<BoxedF32Stream>>,
) -> Result<BoxedF32Stream> {
    let mut input = || {
        inputs.next().unwrap_or_else(|| {
            Err(CoreError::InvalidParameter(format!("{node} is missing an input stream")))
        })
    };
    let nonzero = |v: u32, what: &str| match v {
        0 => Err(CoreError::InvalidParameter(what.into())),
        v => Ok(v),
    };
    Ok(match node {
        Expr::Source(_) => input()?,
        Expr::RestrictSpace { region, crs, .. } => {
            let stream = input()?;
            let region = region_in(region, crs, &stream.schema().crs)?;
            Box::new(SpatialRestrict::new(stream, region))
        }
        Expr::RestrictTime { times, .. } => {
            Box::new(TemporalRestrict::new(input()?, times.clone()))
        }
        Expr::RestrictValue { ranges, .. } => {
            Box::new(ValueRestrict::ranges(input()?, ranges.clone()))
        }
        Expr::MapValue { func, .. } => Box::new(MapTransform::<_, f32>::new(input()?, *func)),
        Expr::Stretch { mode, scope, .. } => {
            Box::new(StretchTransform::new(input()?, *mode, *scope))
        }
        Expr::Focal { func, k, .. } => Box::new(FocalTransform::new(input()?, *func, *k)),
        Expr::Orient { orientation, .. } => Box::new(Orient::new(input()?, *orientation)),
        Expr::Magnify { k, .. } => {
            let k = nonzero(*k, "magnify factor 0")?;
            Box::new(Magnify::new(input()?, k))
        }
        Expr::Downsample { k, .. } => {
            let k = nonzero(*k, "downsample factor 0")?;
            Box::new(Downsample::new(input()?, k))
        }
        Expr::Reproject { to, kernel, .. } => {
            let cfg = ReprojectConfig::new(*to).kernel(*kernel);
            Box::new(Reproject::new(input()?, cfg)?)
        }
        Expr::Compose { op, .. } => Box::new(Compose::new(input()?, input()?, *op)?),
        Expr::Ndvi { .. } => Box::new(crate::ops::macro_ops::ndvi(input()?, input()?)?),
        Expr::Shed { policy, stride, .. } => {
            let stride = nonzero(*stride, "shed stride 0")?;
            Box::new(Shed::new(input()?, *policy, stride))
        }
        Expr::Delay { d, .. } => {
            let d = nonzero(*d, "delay of 0 sectors")?;
            Box::new(Delay::new(input()?, d))
        }
        Expr::AggTime { func, window, .. } => {
            let window = nonzero(*window, "aggregate window 0")?;
            Box::new(TemporalAggregate::new(input()?, *func, window as usize))
        }
        Expr::AggSpace { func, region, .. } => {
            Box::new(SpatialAggregate::new(input()?, *func, region.clone()))
        }
    })
}

/// Physical planner over a catalog.
#[derive(Debug)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// Creates a planner.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog }
    }

    /// Builds a runnable pipeline from an analyzed plan, unless its
    /// [`Plan::verdict`] refuses it: composition over a reoriented
    /// input, for one, would silently drop points.
    pub fn build(&self, plan: &Plan) -> Result<BoxedF32Stream> {
        self.build_part(plan, plan, None)
    }

    /// Builds a pipeline with every operator (sources included) wrapped
    /// in a [`TracedStream`], so the resulting
    /// [`RunReport`](crate::exec::RunReport) carries per-op pull/frame
    /// latency histograms.
    ///
    /// When `obs.recorder` is set, every wrapper additionally opens a
    /// [`Span`](crate::obs::Span) chained under `obs.parent`, giving the
    /// flight recorder a parent-linked tree of operator spans. Source
    /// factories learn their parent via
    /// [`FlightRecorder::build_parent`](crate::obs::FlightRecorder),
    /// which is set to the wrapping span's id just before each
    /// `catalog.open`.
    pub fn build_traced(&self, plan: &Plan, obs: &PipelineObs) -> Result<BoxedF32Stream> {
        self.build_part(plan, plan, Some(obs))
    }

    /// Builds `part`, a subtree of `plan`, on the plan's verdict: the
    /// certificate is the conjunction of its per-stage checks, so a
    /// subtree of a certified plan is certified too.
    pub(crate) fn build_part(
        &self,
        plan: &Plan,
        part: &Expr,
        obs: Option<&PipelineObs>,
    ) -> Result<BoxedF32Stream> {
        plan.verdict()?;
        self.build_inner(part, obs)
    }

    fn build_inner(&self, expr: &Expr, obs: Option<&PipelineObs>) -> Result<BoxedF32Stream> {
        let Some(obs) = obs else {
            return self.build_node(expr, None);
        };
        match &obs.recorder {
            Some(rec) => {
                // Reserve this wrapper's span id *before* recursing so
                // child operators (built inside-out) can chain under it.
                let span_id = rec.alloc_span();
                let child_obs = obs.clone().under(span_id);
                rec.set_build_parent(span_id);
                let stream = self.build_node(expr, Some(&child_obs))?;
                let guard = rec.begin_with_id(span_id, &stream.schema().name, obs.parent);
                Ok(Box::new(TracedStream::with_span(stream, Some(guard))))
            }
            None => {
                let stream = self.build_node(expr, Some(obs))?;
                Ok(Box::new(TracedStream::new(stream)))
            }
        }
    }

    fn build_node(&self, expr: &Expr, obs: Option<&PipelineObs>) -> Result<BoxedF32Stream> {
        match expr {
            Expr::Source(name) => self.catalog.open(name),
            _ => build_operator(
                expr,
                &mut expr.inputs().into_iter().map(|input| self.build_inner(input, obs)),
            ),
        }
    }

    /// The "EXPLAIN" of the prototype: the static analyzer's
    /// [`PlanReport`](super::PlanReport) as a tree, one line per
    /// operator — its blocking class, its bound on points emitted per
    /// sector and its worst-case buffer — root first, each input
    /// indented under its consumer. Operator parameters are in the
    /// plan's own text form (`plan.to_string()`), not repeated here.
    pub fn explain(&self, plan: &Plan) -> String {
        let mut out = String::new();
        for op in plan.report().per_op.iter().rev() {
            let depth = op.path.matches('/').count();
            let name = op.path.rsplit('/').next().unwrap_or(&op.operator);
            out.push_str(&format!(
                "{:indent$}{name}  [{}, ≤{} pts/sector, buf {} B]\n",
                "",
                op.blocking,
                op.points_per_sector,
                op.buffer_bytes,
                indent = 2 * depth.saturating_sub(1)
            ));
        }
        out
    }

    /// Parses, analyzes (optimizing first if asked), and builds a query
    /// in one step.
    pub fn plan_text(&self, text: &str, optimize: bool) -> Result<BoxedF32Stream> {
        let expr = super::parser::parse_query(text)?;
        let plan = match optimize {
            true => super::optimizer::optimize(&expr, self.catalog),
            false => Plan::analyze(expr, self.catalog),
        };
        self.build(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VecStream;
    use geostreams_geo::{LatticeGeoref, Rect};

    fn catalog() -> Catalog {
        let lattice =
            LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 16, 16);
        let mut cat = Catalog::new();
        for (name, bump) in [("g1", 8.0), ("g2", 2.0)] {
            let mut schema = StreamSchema::new(name, Crs::LatLon);
            schema.sector_lattice = Some(lattice);
            schema.value_range = (0.0, 40.0);
            let name = name.to_string();
            cat.register(schema, move || {
                let s: VecStream<f32> = VecStream::single_sector(&name, lattice, 0, move |c, r| {
                    f64::from(c + r) + bump
                })
                .with_value_range(0.0, 40.0);
                Box::new(s)
            });
        }
        cat
    }

    #[test]
    fn catalog_open_and_schema() {
        let cat = catalog();
        assert!(cat.schema("g1").is_some());
        assert!(cat.schema("nope").is_none());
        assert!(cat.open("g1").is_ok());
        assert!(matches!(cat.open("nope"), Err(CoreError::UnknownSource(_))));
        assert_eq!(cat.names(), vec!["g1".to_string(), "g2".to_string()]);
    }

    #[test]
    fn crs_of_tracks_reprojection() {
        let cat = catalog();
        let e = crate::query::parse_query("reproject(g1, \"utm:10N\")").unwrap();
        assert_eq!(cat.crs_of(&e).unwrap(), Crs::utm(10, true));
        let e = crate::query::parse_query("ndvi(g1, g2)").unwrap();
        assert_eq!(cat.crs_of(&e).unwrap(), Crs::LatLon);
    }

    #[test]
    fn plans_and_runs_simple_query() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let mut pipe = planner.plan_text("restrict_value(scale(g1, 2, 0), 20, 30)", false).unwrap();
        let pts = pipe.drain_points();
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| (20.0..=30.0).contains(&p.value)));
    }

    #[test]
    fn plans_and_runs_ndvi_query() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let mut pipe = planner.plan_text("ndvi(g1, g2)", false).unwrap();
        let pts = pipe.drain_points();
        assert_eq!(pts.len(), 256);
        assert!(pts.iter().all(|p| p.value > 0.0 && p.value < 1.0));
    }

    #[test]
    fn cross_crs_region_is_mapped_at_plan_time() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        // Region given in UTM, stream in lat/lon.
        let utm = Crs::utm(10, true);
        let sw = utm.forward(geostreams_geo::Coord::new(-123.0, 37.0)).unwrap();
        let ne = utm.forward(geostreams_geo::Coord::new(-122.0, 38.0)).unwrap();
        let q = format!(
            "restrict_space(g1, bbox({}, {}, {}, {}), \"utm:10N\")",
            sw.x, sw.y, ne.x, ne.y
        );
        let mut pipe = planner.plan_text(&q, false).unwrap();
        let pts = pipe.drain_points();
        assert!(!pts.is_empty());
        assert!(pts.len() < 256, "restriction must filter something");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        assert!(planner.plan_text("magnify(g1, 0)", false).is_err());
        assert!(planner.plan_text("agg_time(g1, \"mean\", 0)", false).is_err());
        assert!(planner.plan_text("unknown_source", false).is_err());
    }

    #[test]
    fn plans_the_analyzer_would_not_certify_are_refused() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        // A flipped input opens its first frame on the bottom row: the
        // composition would drop every row of the other input above it.
        for q in ["add(orient(g1, \"flipv\"), g2)", "downsample(orient(g1, \"rot180\"), 2)"] {
            let plan = Plan::analyze(crate::query::parse_query(q).unwrap(), &cat);
            assert!(!plan.report().certificate.certified, "{q}");
            assert!(matches!(planner.build(&plan), Err(CoreError::PlanRejected(_))), "{q}");
            let obs = PipelineObs::default();
            assert!(matches!(planner.build_traced(&plan, &obs), Err(CoreError::PlanRejected(_))));
        }
        // Reoriented after the composition, the same bands join in full.
        let mut pipe = planner.plan_text("orient(add(g1, g2), \"flipv\")", false).unwrap();
        assert_eq!(pipe.drain_points().len(), 256);
    }

    #[test]
    fn explain_renders_the_plan_tree() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        let e = crate::query::parse_query(
            "restrict_space(reproject(ndvi(g1, g2), \"utm:10N\"), bbox(0, 0, 1, 1), \"utm:10N\")",
        )
        .unwrap();
        let text = planner.explain(&Plan::analyze(e, &cat));
        // One line per analyzed operator, root first.
        assert_eq!(text.lines().count(), 5, "{text}");
        assert!(text.starts_with("restrict_space  [non-blocking, ≤"), "{text}");
        assert!(
            // A 16-slot ring of 16-cell rows (9 rows rounded up), a table
            // entry per output cell, the 16-row schedule and the scratch
            // of one 16-cell output row (44 B a cell).
            text.contains("reproject  [bounded-rows(9), ≤256 pts/sector, buf 6100 B]"),
            "{text}"
        );
        assert!(text.contains("ndvi  [bounded-rows(1)"), "{text}");
        // Indentation shows nesting: source is deeper than the root.
        let root_line = text.lines().next().unwrap();
        let src_line = text.lines().find(|l| l.contains("source[g1]")).unwrap();
        assert!(
            src_line.len() - src_line.trim_start().len()
                > root_line.len() - root_line.trim_start().len()
        );
    }

    #[test]
    fn the_papers_example_query_plans_end_to_end() {
        let cat = catalog();
        let planner = Planner::new(&cat);
        // ((f_val((G1 − G2) ⊘ (G2 + G1))) ∘ f_UTM)|R  — region in UTM.
        let q = "restrict_space(
                   reproject(normalize(div(sub(g1, g2), add(g2, g1)), -1, 1), \"utm:10N\"),
                   bbox(300000, 4000000, 800000, 4500000), \"utm:10N\")";
        for optimize in [false, true] {
            let mut pipe = planner.plan_text(q, optimize).unwrap();
            let pts = pipe.drain_points();
            assert!(!pts.is_empty(), "optimize={optimize}");
            // Values stay in the normalized [0, 1] band.
            assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.value)));
        }
    }
}
