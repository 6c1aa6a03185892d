//! Static plan analysis end-to-end: per-variant blocking classes and
//! buffer bounds, the reproject-without-metadata rejection, the
//! optimizer's never-worsen property, DSMS admission control against a
//! memory budget, and the EXPLAIN surface (protocol + HTTP).

use geostreams::core::exec::run_to_end;
use geostreams::core::model::{GeoStream, Marker, PointRecord, StreamSchema, VecStream};
use geostreams::core::ops::BlockingClass;
use geostreams::core::query::{
    analyze, analyze_with, optimize, optimize_with, parse_query, AnalyzeOptions, Catalog, Expr,
    Plan, PlanReport, Planner, ReplayEstimate, ReplayProvider, Severity,
};
use geostreams::core::CoreError;
use geostreams::dsms::{
    run_supervised, ClientRequest, Dsms, OutputFormat, RuntimeConfig, DEFAULT_MEMORY_BUDGET_BYTES,
};
use geostreams::geo::{Cell, Crs, LatticeGeoref, Rect};
use geostreams::satsim::{goes_like, Scanner};
use std::mem::size_of;
use std::sync::Arc;

const W: u64 = 64;
const H: u64 = 64;
const SECTORS: u64 = 3;

/// The GOES-like instrument of the geostationary source: a 64x32
/// visible band.
fn goes() -> Scanner {
    goes_like(64, 32, 2006)
}

/// A restriction of `source` to the cells `from..=to` of `lattice`, its
/// box drawn halfway between cell centres.
fn restrict_cells(source: &str, lattice: &LatticeGeoref, from: Cell, to: Cell) -> String {
    let (a, b) = (lattice.cell_to_world(from), lattice.cell_to_world(to));
    let (hx, hy) = (lattice.step_x.abs() / 2.0, lattice.step_y.abs() / 2.0);
    format!(
        "restrict_space({source}, bbox({}, {}, {}, {}), \"{}\")",
        a.x.min(b.x) - hx,
        a.y.min(b.y) - hy,
        a.x.max(b.x) + hx,
        a.y.max(b.y) + hy,
        lattice.crs
    )
}

/// A catalog with two 64x64 lat/lon scan-sector sources of three
/// sectors each, one source registered without sector metadata, and the
/// visible band of [`goes`].
fn catalog() -> Catalog {
    let lattice =
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 64, 64);
    let mut cat = Catalog::new();
    for name in ["g1", "g2"] {
        let mut schema = StreamSchema::new(name, Crs::LatLon);
        schema.sector_lattice = Some(lattice);
        let name = name.to_string();
        cat.register(schema, move || {
            Box::new(VecStream::<f32>::sectors(&name, lattice, SECTORS, |s, c, r| {
                (u64::from(c + r) + s) as f64 % 3.0 / 2.0
            }))
        });
    }
    cat.register(StreamSchema::new("nolat", Crs::LatLon), move || {
        Box::new(VecStream::<f32>::single_sector("nolat", lattice, 0, |_, _| 0.0))
    });
    let scanner = goes();
    cat.register(scanner.band_stream(0, SECTORS).schema().clone(), move || {
        Box::new(scanner.band_stream(0, SECTORS))
    });
    cat
}

fn report(q: &str) -> PlanReport {
    analyze(&parse_query(q).unwrap(), &catalog())
}

/// The analysis entry for the plan root (last recorded operator).
fn root_op(r: &PlanReport) -> &geostreams::core::query::OpAnalysis {
    r.per_op.last().unwrap()
}

/// The quickstart example's query; optimized, its restrictions reach
/// both bands with different regions.
const QUICKSTART: &str = "restrict_space(ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4)), \
                          bbox(-105, 28, -85, 42), \"latlon\")";

/// Every subplan of `e`, inputs before their consumer: the order of
/// `PlanReport::per_op` and `RunReport::per_op`.
fn subplans<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    for input in e.inputs() {
        subplans(input, out);
    }
    out.push(e);
}

/// Runs `e` over `cat` and holds each operator to its static bounds:
/// points out ≤ `points_per_sector` × the sectors that operator emitted
/// (its own subplan's run counts them). Returns the paths of the
/// operators whose buffer peak exceeds `buffer_bytes`.
fn buffer_overruns(cat: &Catalog, e: &Expr) -> Vec<String> {
    let planner = Planner::new(cat);
    let plan = Plan::analyze(e.clone(), cat);
    let bounds = &plan.report().per_op;
    let run = run_to_end(&mut planner.build(&plan).unwrap());
    let mut subs = Vec::new();
    subplans(e, &mut subs);
    assert_eq!(bounds.len(), run.per_op.len(), "{e}");
    assert_eq!(bounds.len(), subs.len(), "{e}");
    let mut over = Vec::new();
    for ((bound, seen), sub) in bounds.iter().zip(&run.per_op).zip(subs) {
        let sectors =
            run_to_end(&mut planner.build(&Plan::analyze(sub.clone(), cat)).unwrap()).sectors;
        assert!(
            seen.stats.points_out <= bound.points_per_sector * sectors,
            "{e}: {} emitted {} points in {sectors} sectors, bound {}/sector",
            bound.path,
            seen.stats.points_out,
            bound.points_per_sector
        );
        if seen.stats.buffered_bytes_peak > bound.buffer_bytes {
            over.push(bound.path.clone());
        }
    }
    over
}

#[test]
fn every_variant_gets_a_blocking_class_and_bound() {
    // (query, root operator name, expected class, expected root bytes).
    // Each figure is the layout of what the operator allocates for the
    // 64 × 64 lattice of `g1`, `f32` values.
    let (value, point) = (size_of::<f32>() as u64, size_of::<PointRecord<f32>>() as u64);
    let mark = size_of::<(usize, Marker)>() as u64;
    // `RowWindow`: a power of two of row slots, a flag byte each.
    let ring = |rows: u64, width: u64| rows.next_power_of_two() * (width * value + 1);
    // `RowSchedule`: an `Option<(u32, u32)>` window per output row and a
    // `u32` watermark per output row and one more.
    let schedule = |rows: u64| rows * size_of::<Option<(u32, u32)>>() as u64 + (rows + 1) * 4;
    // `RowKernel` of a box mean: `k` rows padded by `k - 1` cells and one
    // accumulator per column, `f64`s.
    let kernel = |k: u64| (k * (W + k - 1) + W) * 8;
    // `stretch::Scope`: the scope's points and markers, each to a power
    // of two.
    let scope = |points: u64, marks: u64| {
        points.next_power_of_two() * point + marks.next_power_of_two() * mark
    };
    // `BlockRows`: one row of `(f64, u32)` accumulators.
    let blocks = |n: u64| n * 16;
    // `Mapping`: a `[f64; 2]` table entry per output cell.
    let table = |cells: u64| cells * 16;
    // The keyed buffers of `compose`: a `(i64, u32, u32)` key and a value
    // per waiting point.
    let keyed = |n: u64| n * size_of::<((i64, u32, u32), f32)>() as u64;
    // `SectorImage`: a value and a mask byte per cell.
    let image = |cell_bytes: u64| W * H * (cell_bytes + 1);
    // Rows 8..=23 of the 32-row geostationary sector: the first arriving
    // row's frame rules out the rows above it, so the schedule runs as
    // over the whole sector and holds 13 rows at most.
    let goes_lattice = goes().sector_lattice(0, 0);
    let restricted =
        restrict_cells("goes-sim.b1-vis", &goes_lattice, Cell::new(16, 8), Cell::new(47, 23));
    let goes_to_latlon = format!("reproject({restricted}, \"latlon\", \"bilinear\")");
    let g_lattice = catalog().schema("g1").and_then(|s| s.sector_lattice).unwrap();
    let differently_restricted = format!(
        "add({}, {})",
        restrict_cells("g1", &g_lattice, Cell::new(16, 8), Cell::new(47, 39)),
        restrict_cells("g2", &g_lattice, Cell::new(8, 16), Cell::new(39, 55))
    );
    // Columns 16..=47, rows 8..=39: the focal window holds three whole
    // sector rows, and emits every row of the sector.
    let restricted_focal = format!(
        "focal({}, \"mean\", 3)",
        restrict_cells("g1", &g_lattice, Cell::new(16, 8), Cell::new(47, 39))
    );
    let cases: &[(&str, &str, BlockingClass, u64)] = &[
        ("g1", "source", BlockingClass::NonBlocking, 0),
        (
            "restrict_space(g1, bbox(-123, 37, -122, 38), \"latlon\")",
            "restrict_space",
            BlockingClass::NonBlocking,
            0,
        ),
        ("restrict_time(g1, interval(0, 5))", "restrict_time", BlockingClass::NonBlocking, 0),
        ("restrict_value(g1, 0, 1)", "restrict_value", BlockingClass::NonBlocking, 0),
        ("scale(g1, 2, 1)", "map_value", BlockingClass::NonBlocking, 0),
        // One row of points, its `FrameStart` and `FrameEnd`.
        (
            "stretch(g1, \"linear\", \"frame\")",
            "stretch",
            BlockingClass::BoundedRows(1),
            scope(W, 2),
        ),
        // Every row's points and markers, and `SectorEnd`.
        (
            "stretch(g1, \"linear\", \"image\")",
            "stretch",
            BlockingClass::BoundedFrame,
            scope(W * H, 2 * H + 1),
        ),
        // A 5-row ring rounds up to 8 rows, plus 8 flag bytes.
        (
            "focal(g1, \"mean\", 5)",
            "focal",
            BlockingClass::BoundedRows(5),
            ring(5, W) + schedule(H) + kernel(5),
        ),
        (
            &restricted_focal,
            "focal",
            BlockingClass::BoundedRows(3),
            ring(3, W) + schedule(H) + kernel(3),
        ),
        ("orient(g1, \"rot90\")", "orient", BlockingClass::NonBlocking, 0),
        ("magnify(g1, 2)", "magnify", BlockingClass::NonBlocking, 0),
        ("downsample(g1, 4)", "downsample", BlockingClass::BoundedRows(4), blocks(W / 4)),
        // Columns 5..=36 straddle 9 blocks of the sector's 4-grid.
        (
            "downsample(restrict_space(g1, bbox(-123.7, 37, -121.7, 39), \"latlon\"), 4)",
            "downsample",
            BlockingClass::BoundedRows(4),
            blocks(9),
        ),
        // The row schedule holds 9 input rows; the table maps every cell.
        (
            "reproject(g1, \"utm:10N\")",
            "reproject",
            BlockingClass::BoundedRows(9),
            ring(9, W) + table(W * H) + schedule(H),
        ),
        (
            &goes_to_latlon,
            "reproject",
            BlockingClass::BoundedRows(13),
            ring(13, 64) + table(64 * 32) + schedule(32),
        ),
        ("add(g1, g2)", "compose", BlockingClass::BoundedRows(1), keyed(2 * W)),
        ("ndvi(g1, g2)", "ndvi", BlockingClass::BoundedRows(1), keyed(2 * W)),
        // Columns 16..=47 against 8..=39, rows 8..=39 against 16..=55: a
        // row's cells outside the overlap wait for the other side's next
        // row, not for the sector's end.
        (&differently_restricted, "compose", BlockingClass::BoundedRows(1), keyed(2 * 32)),
        ("shed(g1, \"points\", 2)", "shed", BlockingClass::NonBlocking, 0),
        // The line's two `f32` images and the open one.
        ("delay(g1, 2)", "delay", BlockingClass::BoundedFrame, 3 * image(value)),
        // The window's four `f64` images and the open one.
        ("agg_time(g1, \"mean\", 4)", "agg_time", BlockingClass::BoundedFrame, 5 * image(8)),
        (
            "agg_space(g1, \"mean\", bbox(-124, 36, -120, 40))",
            "agg_space",
            BlockingClass::NonBlocking,
            0,
        ),
    ];
    let cat = catalog();
    for (q, op, class, bytes) in cases {
        let r = report(q);
        let root = root_op(&r);
        assert_eq!(&root.operator, op, "{q}");
        assert_eq!(root.blocking, *class, "{q}");
        assert_eq!(root.buffer_bytes, *bytes, "{q}");
        assert!(r.peak_buffer_bytes.is_some(), "{q}");
        assert!(!r.has_errors(), "{q}: {:?}", r.diagnostics);
        // The bounds hold against the run.
        let over = buffer_overruns(&cat, &parse_query(q).unwrap());
        assert!(over.is_empty(), "{q}: buffer peaks over their bound at {over:?}");
    }
    // The restricted focal and re-projection hold what their bounds say.
    for q in [&restricted_focal, &goes_to_latlon] {
        let plan = Plan::analyze(parse_query(q).unwrap(), &cat);
        let run = run_to_end(&mut Planner::new(&cat).build(&plan).unwrap());
        let seen = run.per_op.last().unwrap().stats.buffered_bytes_peak;
        assert_eq!(seen, root_op(plan.report()).buffer_bytes, "{q}");
    }
    // The optimized quickstart plan, over the instrument it was written for.
    let server = Dsms::over_scanner(&goes_like(64, 32, 2006), SECTORS);
    let e = optimize(&parse_query(QUICKSTART).unwrap(), server.catalog());
    let over = buffer_overruns(server.catalog(), &e);
    assert!(over.is_empty(), "{e}: buffer peaks over their bound at {over:?}");
}

#[test]
fn reproject_without_scan_sector_metadata_is_rejected() {
    let r = report("reproject(nolat, \"utm:10N\")");
    assert_eq!(r.blocking, BlockingClass::Unbounded);
    assert_eq!(r.peak_buffer_bytes, None);
    let diag = r
        .diagnostics
        .iter()
        .find(|d| d.code == "reproject-unbounded")
        .expect("flagship diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.section, "§3.2");
    assert!(diag.path.contains("reproject"), "{}", diag.path);
    // The identical plan over a scan-sector source is statically bounded.
    let ok = report("reproject(g1, \"utm:10N\")");
    assert_eq!(ok.blocking, BlockingClass::BoundedRows(9));
    assert!(!ok.has_errors());
}

#[test]
fn nested_reprojection_stays_bounded_over_metadata_sources() {
    // The analyzer derives the output lattice of a re-projection, so a
    // second re-projection above it is still bounded.
    let r = report("reproject(reproject(g1, \"utm:10N\"), \"latlon\")");
    assert!(r.blocking < BlockingClass::Unbounded, "{:?}", r.blocking);
    assert!(!r.has_errors(), "{:?}", r.diagnostics);
}

#[test]
fn compose_checks_crs_and_time_semantics() {
    let cat = catalog();
    // CRS mismatch is an error: one side re-projected, the other not.
    let e = parse_query("add(reproject(g1, \"utm:10N\"), g2)").unwrap();
    let r = analyze(&e, &cat);
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.code == "compose-crs-mismatch" && d.severity == Severity::Error));

    // Measurement-time semantics warns (§3.3: timestamps never match).
    let lattice =
        LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 36.0, -120.0, 40.0), 64, 64);
    let mut cat2 = catalog();
    let mut schema = StreamSchema::new("mt", Crs::LatLon);
    schema.sector_lattice = Some(lattice);
    schema.time_semantics = geostreams::core::model::TimeSemantics::MeasurementTime;
    cat2.register(schema, move || {
        Box::new(VecStream::<f32>::single_sector("mt", lattice, 0, |_, _| 0.0))
    });
    let e = parse_query("add(mt, g1)").unwrap();
    let r = analyze(&e, &cat2);
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.code == "compose-measurement-time" && d.severity == Severity::Warn));
}

#[test]
fn optimizer_never_worsens_blocking_class() {
    let cat = catalog();
    let queries = [
        "restrict_space(reproject(ndvi(g1, g2), \"utm:10N\"), \
         bbox(430000, 4200000, 480000, 4250000), \"utm:10N\")",
        "restrict_value(stretch(add(g1, g2), \"linear\", \"image\"), 0, 1)",
        "scale(scale(delay(g1, 1), 2, 0), 3, 1)",
        "restrict_time(agg_time(focal(g1, \"mean\", 3), \"max\", 2), interval(0, 4))",
        "magnify(downsample(reproject(g1, \"utm:10N\"), 2), 2)",
    ];
    for q in queries {
        let e = parse_query(q).unwrap();
        let before = analyze(&e, &cat).blocking;
        let plan = optimize(&e, &cat);
        let after = analyze(&plan, &cat).blocking;
        assert!(after <= before, "{q}: {before:?} -> {after:?}");
        // The report the plan carries is the analysis of what it runs.
        assert_eq!(*plan.report(), analyze(&plan, &cat), "{q}");
    }
    // So it is under an archive's replay contract: a wholly-past window
    // replays from the archive, one that starts in the past splices. The
    // replay estimate covers the window the optimizer left on the
    // source: widened below `delay` and `agg_time`.
    let archive = Archived { hi: 10 };
    for (q, now, contract, frames) in [
        ("restrict_time(g1, interval(2, 6))", 10, "replay-from-archive", 4),
        ("restrict_time(g1, interval(1, none))", 5, "replay-hybrid", 4),
        (
            "restrict_time(stretch(g1, \"linear\", \"image\"), interval(2, 6))",
            10,
            "replay-from-archive",
            4,
        ),
        (
            "restrict_time(stretch(g1, \"linear\", \"frame\"), interval(1, none))",
            5,
            "replay-hybrid",
            4,
        ),
        ("restrict_time(delay(g1, 2), interval(3, 6))", 10, "replay-from-archive", 5),
        ("restrict_time(delay(g1, 1), interval(2, none))", 5, "replay-hybrid", 4),
        ("restrict_time(agg_time(g1, \"mean\", 3), interval(3, 6))", 10, "replay-from-archive", 5),
        ("restrict_time(agg_time(g1, \"max\", 2), interval(3, none))", 5, "replay-hybrid", 3),
    ] {
        let opts = AnalyzeOptions { now: Some(now), replay: Some(&archive) };
        let plan = optimize_with(&parse_query(q).unwrap(), &cat, &opts);
        assert_eq!(*plan.report(), analyze_with(&plan, &cat, &opts), "{q}");
        assert!(!plan.report().has_errors(), "{q}: {:?}", plan.report().diagnostics);
        assert!(plan.report().certificate.certified, "{q}");
        assert_eq!(plan.report().certificate.stages[0].contract.operator, contract, "{q}");
        assert_eq!(plan.report().per_op[0].replay.map(|r| r.frames), Some(frames), "{q}");
    }
    // Row shedding is the one operator a time restriction cannot cross:
    // a window held above it that reaches before now is reported at
    // the shed, not replayed with a row parity that depends on where
    // the replay starts.
    for (q, now, code, severity) in [
        (
            "restrict_time(shed(g1, \"rows\", 2), interval(2, 6))",
            10,
            "past-interval-unservable",
            Severity::Error,
        ),
        (
            "restrict_time(shed(g1, \"rows\", 2), interval(2, none))",
            5,
            "past-start-no-archive",
            Severity::Warn,
        ),
    ] {
        let opts = AnalyzeOptions { now: Some(now), replay: Some(&archive) };
        let plan = optimize_with(&parse_query(q).unwrap(), &cat, &opts);
        let d = plan.report().diagnostics.iter().find(|d| d.code == code);
        let d = d.unwrap_or_else(|| panic!("{q}: {:?}", plan.report().diagnostics));
        assert_eq!((d.severity, d.path.as_str()), (severity, "/restrict_time/shed"), "{q}");
        assert!(d.message.contains("`shed`"), "{q}: {}", d.message);
        assert_eq!(plan.report().per_op[0].replay, None, "{q}");
    }
}

/// An archive index holding every source's sectors before `hi`.
struct Archived {
    hi: i64,
}

impl ReplayProvider for Archived {
    fn estimate(&self, _source: &str, lo: Option<i64>, hi: Option<i64>) -> Option<ReplayEstimate> {
        let (lo, hi) = (lo.unwrap_or(0), hi.unwrap_or(self.hi).min(self.hi));
        let frames = hi.saturating_sub(lo).max(0) as u64;
        Some(ReplayEstimate { frames, tiles: frames, bytes: 64 * frames })
    }
}

#[test]
fn planner_admission_and_supervised_runs_refuse_with_one_message() {
    let scanner = goes();
    let server = Dsms::over_scanner(&scanner, 1);
    let planner = Planner::new(server.catalog());
    // An orientation below an operator that needs lattice order.
    for q in [
        "add(orient(goes-sim.b4-ir, \"flipv\"), goes-sim.b5-ir)",
        "downsample(orient(goes-sim.b4-ir, \"rot180\"), 2)",
    ] {
        let refusal = |outcome: Option<CoreError>| match outcome {
            Some(CoreError::PlanRejected(msg)) => msg,
            other => panic!("{q}: expected PlanRejected, got {other:?}"),
        };
        let plan = optimize(&parse_query(q).unwrap(), server.catalog());
        let built = refusal(planner.build(&plan).err());
        let registered = refusal(server.register_text(q, OutputFormat::Stats, 0).err());
        let request = ClientRequest { query: q.into(), format: OutputFormat::Stats, sectors: 0 };
        let (slots, _) =
            run_supervised(&scanner, 1, &[request], &RuntimeConfig::default()).unwrap();
        let supervised = refusal(slots.into_iter().next().and_then(Result::err));
        assert!(built.contains("protocol-uncertified"), "{q}: {built}");
        assert_eq!(built, registered, "{q}");
        assert_eq!(built, supervised, "{q}");
    }
}

#[test]
fn restriction_pushdown_shrinks_the_static_bound() {
    let cat = catalog();
    // A downsampler's accumulators span the columns that arrive; a focal
    // window holds whole sector rows, so pushdown below it saves nothing.
    let q = "restrict_space(downsample(g1, 4), bbox(-124, 38, -123, 39), \"latlon\")";
    let e = parse_query(q).unwrap();
    let base = analyze(&e, &cat).peak_buffer_bytes.unwrap();
    let opt = analyze(&optimize(&e, &cat), &cat).peak_buffer_bytes.unwrap();
    assert!(opt < base, "pushdown should shrink the bound: {opt} vs {base}");
}

#[test]
fn dsms_refuses_over_budget_plans_and_admits_within_budget() {
    let server = Dsms::over_scanner(&goes_like(32, 16, 7), 1);
    assert_eq!(server.memory_budget(), DEFAULT_MEMORY_BUDGET_BYTES);
    let q = "stretch(goes-sim.b1-vis, \"linear\", \"image\")";

    // 32x16 f32 image = 2048 bytes > 1000-byte budget: refused, with the
    // diagnostic text carried in the typed error.
    server.set_memory_budget(1000);
    let err = server.register_text(q, OutputFormat::Stats, 1);
    match err {
        Err(CoreError::PlanRejected(msg)) => {
            assert!(msg.contains("budget"), "{msg}");
        }
        other => panic!("expected PlanRejected, got {other:?}"),
    }
    assert_eq!(server.metrics.queries_rejected.get(), 1);

    // Restored budget: the same query is admitted and runs.
    server.set_memory_budget(DEFAULT_MEMORY_BUDGET_BYTES);
    let h = server.register_text(q, OutputFormat::Stats, 1).unwrap();
    assert!(h.optimized.report().peak_buffer_bytes.unwrap() >= 32 * 16 * 4);
    let result = server.run_query(&h).unwrap();
    assert!(result.points > 0);
}

#[test]
fn dsms_rejects_unbounded_reprojection_at_registration() {
    let server = Dsms::over_catalog(catalog());
    let err = server.register_text("reproject(nolat, \"utm:10N\")", OutputFormat::Stats, 0);
    match err {
        Err(CoreError::PlanRejected(msg)) => {
            assert!(msg.contains("reproject-unbounded"), "{msg}");
            assert!(msg.contains("§3.2"), "{msg}");
        }
        other => panic!("expected PlanRejected, got {other:?}"),
    }
    // The same shape over a metadata-carrying source registers fine.
    server.register_text("reproject(g1, \"utm:10N\")", OutputFormat::Stats, 0).unwrap();
}

#[test]
fn explain_reports_without_executing() {
    let server = Dsms::over_catalog(catalog());
    let req = geostreams::dsms::ClientRequest {
        query: "reproject(nolat, \"utm:10N\")".into(),
        format: OutputFormat::Stats,
        sectors: 0,
    };
    let ex = server.explain(&req).unwrap();
    assert!(!ex.admitted);
    assert!(ex.report.has_errors());
    assert_eq!(ex.budget_bytes, DEFAULT_MEMORY_BUDGET_BYTES);

    let req_ok = geostreams::dsms::ClientRequest {
        query: "focal(g1, \"mean\", 3)".into(),
        format: OutputFormat::Stats,
        sectors: 0,
    };
    let ex = server.explain(&req_ok).unwrap();
    assert!(ex.admitted);
    // The optimized text round-trips through the parser.
    parse_query(&ex.optimized).unwrap();
    // Nothing ran: no query was registered, no frames delivered.
    assert!(server.registered().is_empty());
    assert_eq!(server.frames_delivered(), 0);
}

#[test]
fn explain_http_endpoint_returns_json() {
    let server = Arc::new(Dsms::over_scanner(&goes_like(32, 16, 7), 1));
    let resp = server
        .handle_http("GET /explain?q=stretch(goes-sim.b1-vis,+%22linear%22)&format=stats HTTP/1.1");
    let text = String::from_utf8_lossy(&resp).to_string();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("application/json"), "{text}");
    let body_start = text.find("\r\n\r\n").unwrap() + 4;
    let body: serde_json::Value = serde_json::from_str(&text[body_start..]).unwrap();
    assert_eq!(body.get("admitted"), Some(&serde_json::Value::Bool(true)));
    let peak = body
        .get("report")
        .and_then(|r| r.get("peak_buffer_bytes"))
        .expect("report.peak_buffer_bytes present");
    assert!(matches!(peak, serde_json::Value::U64(_) | serde_json::Value::I64(_)), "{peak:?}");

    // A malformed query is a 400, not a crash.
    let resp = server.handle_http("GET /explain?q=magnify(goes-sim.b1-vis) HTTP/1.1");
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"));
}

#[test]
fn overrun_counter_stays_zero_when_bounds_hold() {
    // Run a frame-buffering query and check observed peaks against the
    // static bound: the conservative sum must cover the runtime max.
    let server = Dsms::over_scanner(&goes_like(32, 16, 7), 2);
    let h = server
        .register_text("stretch(goes-sim.b1-vis, \"linear\", \"image\")", OutputFormat::Stats, 2)
        .unwrap();
    let result = server.run_query(&h).unwrap();
    let observed = result.report.unwrap().peak_buffered_bytes();
    assert!(observed > 0, "stretch must buffer");
    assert!(
        !h.optimized.report().buffer_overrun(observed),
        "static bound {:?} must cover observed {observed}",
        h.optimized.report().peak_buffer_bytes
    );
    assert_eq!(server.metrics.plan_buffer_overruns.get(), 0);
    // The counter is exposed on /metrics.
    let text = server.metrics.render_prometheus();
    assert!(text.contains("geostreams_plan_buffer_overrun_total 0"), "{text}");
}

#[test]
fn oneshot_reprojection_stays_within_its_bound() {
    // The one-shot HTTP shapes with a row window, one sector each: a
    // re-projection and a 3 × 3 focal over half-size boxes of infrared
    // bands, rendered to PNG, and a 5 × 5 focal over a quarter-size box
    // of the visible band, answered as JSON. Every box starts below
    // row 0; the bound must cover what the operator holds.
    let scanner = goes_like(256, 128, 1);
    let server = Dsms::over_scanner(&scanner, 1);
    let (vis, ir) = (scanner.instrument.band_lattice(0), scanner.instrument.band_lattice(3));
    let ir_box = |band| restrict_cells(band, &ir, Cell::new(9, 5), Cell::new(40, 20));
    let vis_box = restrict_cells("goes-sim.b1-vis", &vis, Cell::new(40, 50), Cell::new(103, 81));
    for (q, format) in [
        (
            format!("reproject({}, \"latlon\", \"bilinear\")", ir_box("goes-sim.b4-ir")),
            OutputFormat::PngGray,
        ),
        (format!("focal({}, \"mean\", 3)", ir_box("goes-sim.b3-wv")), OutputFormat::PngGray),
        (format!("focal({vis_box}, \"max\", 5)"), OutputFormat::Json),
    ] {
        let h = server.register_text(&q, format, 1).unwrap();
        let result = server.run_query(&h).unwrap();
        let observed = result.report.unwrap().peak_buffered_bytes();
        assert!(observed > 0, "{q}: the window must buffer");
        assert!(
            !h.optimized.report().buffer_overrun(observed),
            "{q}: static bound {:?} must cover observed {observed}",
            h.optimized.report().peak_buffer_bytes
        );
    }
    assert_eq!(server.metrics.plan_buffer_overruns.get(), 0);
}

#[test]
fn buffer_overrun_flags_excess_only_for_bounded_plans() {
    let bounded = report("delay(g1, 1)");
    let bound = bounded.peak_buffer_bytes.unwrap();
    assert!(!bounded.buffer_overrun(bound));
    assert!(bounded.buffer_overrun(bound + 1));
    let unbounded = report("reproject(nolat, \"utm:10N\")");
    assert!(!unbounded.buffer_overrun(u64::MAX));
}

#[test]
fn every_admissible_plan_carries_a_protocol_certificate() {
    // ISSUE 7: admission is gated on a composed ProtocolCertificate.
    // Every variant exercised by this suite must certify, with one
    // stage recorded per operator on the path.
    let queries = [
        "g1",
        "restrict_space(g1, bbox(-123, 37, -122, 38), \"latlon\")",
        "stretch(g1, \"linear\")",
        "stretch(g1, \"linear\", \"image\")",
        "focal(g1, \"mean\", 3)",
        "delay(g1, 1)",
        "compose(g1, \"+\", g2)",
        "agg_time(g1, \"mean\", 2)",
    ];
    for q in queries {
        let r = report(q);
        assert!(!r.has_errors(), "{q} unexpectedly has errors");
        assert!(r.certificate.certified, "{q} must certify: {:?}", r.certificate.violations);
        assert!(r.certificate.violations.is_empty(), "{q}: {:?}", r.certificate.violations);
        assert!(
            r.certificate.stages.len() >= r.per_op.len(),
            "{q}: every operator contributes a certificate stage"
        );
    }
    // Registration against a live DSMS attaches the same certificate
    // to the handle the runtime keeps.
    let server = Dsms::over_catalog(catalog());
    let h = server.register_text("stretch(g1, \"linear\")", OutputFormat::Stats, 1).unwrap();
    assert!(h.optimized.report().certificate.certified);
}

#[test]
fn explain_exposes_the_protocol_certificate() {
    let server = Arc::new(Dsms::over_scanner(&goes_like(32, 16, 7), 1));
    let resp = server
        .handle_http("GET /explain?q=stretch(goes-sim.b1-vis,+%22linear%22)&format=stats HTTP/1.1");
    let text = String::from_utf8_lossy(&resp).to_string();
    let body_start = text.find("\r\n\r\n").unwrap() + 4;
    let body: serde_json::Value = serde_json::from_str(&text[body_start..]).unwrap();
    let cert = body
        .get("report")
        .and_then(|r| r.get("certificate"))
        .expect("report.certificate present in /explain JSON");
    assert_eq!(cert.get("certified"), Some(&serde_json::Value::Bool(true)), "{cert:?}");
    match cert.get("stages").expect("certificate.stages") {
        serde_json::Value::Array(stages) => {
            assert!(stages.len() >= 2, "source + stretch at minimum: {stages:?}");
        }
        other => panic!("certificate.stages should be an array: {other:?}"),
    }
}
