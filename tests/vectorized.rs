//! Differential suite for the chunk protocol. Every stream in the
//! workspace is pulled from identical construction one element at a
//! time (`next_element`, a budget-1 pull) and in runs at several
//! budgets: the flattened output must be byte-identical, `OpStats` must
//! match, and every item must obey the budget rule. Operators with
//! per-point logic of their own also meet the references of
//! `tests/common`.

mod common;

use common::reference;
use geostreams::core::model::{
    drain_chunked, split2, tee2, BoxedF32Stream, ChunkChannel, ChunkInput, ChunkOrMarker, Element,
    GeoStream, StreamRepair, StreamSchema, TimeSemantics, TimeSet, Timestamp, VecStream,
};
use geostreams::core::obs::{FlightRecorder, SpanStream, TracedStream};
use geostreams::core::ops::{
    AggFunc, CastTransform, ChunkProtocolChecker, Compose, Delay, Downsample, FocalFunc,
    FocalTransform, GammaOp, ImageAssembler, Magnify, MapTransform, Orient, Orientation, PngSink,
    Reproject, ReprojectConfig, RgbComposite, Shed, ShedPolicy, SpatialAggregate, SpatialRestrict,
    StretchMode, StretchScope, StretchTransform, TemporalAggregate, TemporalRestrict, ValueFunc,
    ValueRestrict,
};
use geostreams::core::stats::OpStats;
use geostreams::geo::{Cell, Coord, Crs, LatticeGeoref, Polygon, Rect, Region};
use geostreams::raster::png::{self, PngOptions};
use geostreams::raster::resample::Kernel;
use geostreams::raster::{Grid2D, RasterImage, Rgb8};
use geostreams::satsim::airborne::airborne_camera;
use geostreams::satsim::lidar::lidar_profiler;
use geostreams::satsim::{goes_like, ChaosStream, FaultPlan, SyntheticStream};
use geostreams::store::{Archive, ArchiveConfig, SpliceStream};
use std::sync::Arc;

/// Fixture width: the budget `W` is one full row, so chunk boundaries
/// land exactly on frame boundaries in row-by-row streams.
const W: u32 = 16;
const H: u32 = 8;

/// Pull budgets exercised by every case: one element per pull, a run
/// split in two, prime (misaligned with every row width), one row (a
/// divisor of every image-by-image frame), a sector, the default.
const BUDGETS: &[usize] = &[1, 2, 7, W as usize, 256, 1024];

/// Where `make()` breaks the chunk contract or the stream grammar, one
/// breach per budget at most: every item passes a
/// [`ChunkProtocolChecker`] built with the pull budget (a run holds at
/// most `budget` points, a marker rides only on a run it cut short, and
/// the whole grammar, end of stream included), no run is empty, and the
/// flattened output and final `OpStats` equal those of one-element
/// pulls — whose element sequence is returned.
fn contract_breaches<S: GeoStream>(make: impl Fn() -> S) -> (Vec<Element<S::V>>, Vec<String>)
where
    S::V: PartialEq,
{
    let mut one_by_one = make();
    let expected: Vec<_> = std::iter::from_fn(|| one_by_one.next_element()).collect();
    let mut breaches = Vec::new();
    for &budget in BUDGETS {
        let (mut s, mut got, mut breach) = (make(), Vec::new(), None);
        let mut checker = ChunkProtocolChecker::new(budget, s.schema().time_semantics);
        while let Some(item) = s.next_chunk(budget) {
            checker.observe(&item);
            if matches!(item, ChunkOrMarker::Chunk(_)) && item.point_count() == 0 {
                breach.get_or_insert("an empty run".to_string());
            }
            item.into_elements(&mut |el| got.push(el));
        }
        checker.finish();
        if let Some((at, violation)) = checker.first_violation() {
            breach.get_or_insert(format!("element {at}: {violation}"));
        }
        if got != expected || s.op_stats() != one_by_one.op_stats() {
            breach.get_or_insert("elements or OpStats differ from one-element pulls".to_string());
        }
        breaches.extend(breach.map(|b| format!("at budget {budget}: {b}")));
    }
    (expected, breaches)
}

/// The differential oracle: `make()` keeps the chunk contract at every
/// budget. Returns its element sequence.
fn assert_scalar_chunked_identical<S: GeoStream>(
    label: &str,
    make: impl Fn() -> S,
) -> Vec<Element<S::V>>
where
    S::V: PartialEq,
{
    let (expected, breaches) = contract_breaches(make);
    assert!(!expected.is_empty(), "{label}: produced nothing");
    assert!(breaches.is_empty(), "{label} {}", breaches.join("; "));
    expected
}

fn lattice() -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, W as f64, H as f64), W, H)
}

/// A deterministic multi-sector in-memory source.
fn vec_fixture() -> VecStream<f32> {
    VecStream::sectors("vec-fixture", lattice(), 3, |s, x, y| {
        (s as f64) * 100.0 + (y as f64) * 10.0 + (x as f64) * 0.5
    })
}

/// Row-by-row synthetic scanner band (native `next_chunk`).
fn goes_fixture() -> SyntheticStream {
    goes_like(W, H, 7).band_stream(0, 2)
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

#[test]
fn vecstream_default_adapter_matches_scalar() {
    assert_scalar_chunked_identical("VecStream", vec_fixture);
}

#[test]
fn scanner_row_by_row_matches_scalar() {
    assert_scalar_chunked_identical("SyntheticStream/RowByRow", goes_fixture);
}

#[test]
fn scanner_image_by_image_matches_scalar() {
    assert_scalar_chunked_identical("SyntheticStream/ImageByImage", || {
        airborne_camera(Rect::new(-100.0, 30.0, -99.0, 31.0), W, H, 5).band_stream(0, 2)
    });
}

#[test]
fn scanner_point_by_point_matches_scalar() {
    assert_scalar_chunked_identical("SyntheticStream/PointByPoint", || {
        lidar_profiler(Rect::new(0.0, 0.0, 1.0, 1.0), W, H, 9).band_stream(0, 2)
    });
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// The flattened input every reference case reads.
fn vec_fixture_elements() -> Vec<Element<f32>> {
    vec_fixture().drain_elements()
}

#[test]
fn spatial_restrict_rect_matches_scalar() {
    let region = || Region::Rect(Rect::new(2.0, 1.0, 10.0, 6.0));
    let got = assert_scalar_chunked_identical("SpatialRestrict/Rect", || {
        SpatialRestrict::new(vec_fixture(), region())
    });
    assert_eq!(got, reference::restrict_space(&vec_fixture_elements(), &region()));
}

#[test]
fn spatial_restrict_polygon_matches_scalar() {
    let poly = || {
        Region::Polygon(
            Polygon::new(vec![Coord::new(1.0, 0.5), Coord::new(14.0, 1.0), Coord::new(8.0, 7.5)])
                .unwrap(),
        )
    };
    let got = assert_scalar_chunked_identical("SpatialRestrict/Polygon", move || {
        SpatialRestrict::new(vec_fixture(), poly())
    });
    assert_eq!(got, reference::restrict_space(&vec_fixture_elements(), &poly()));
}

#[test]
fn temporal_restrict_matches_scalar() {
    let times = || TimeSet::Interval { lo: Some(1), hi: None };
    let got = assert_scalar_chunked_identical("TemporalRestrict/Interval", || {
        TemporalRestrict::new(vec_fixture(), times())
    });
    assert_eq!(got, reference::restrict_time(&vec_fixture_elements(), &times()));
}

#[test]
fn value_restrict_matches_scalar() {
    let got = assert_scalar_chunked_identical("ValueRestrict", || {
        ValueRestrict::range(vec_fixture(), 50.0, 250.0)
    });
    assert_eq!(got, reference::restrict_value(&vec_fixture_elements(), &[(50.0, 250.0)]));
}

#[test]
fn map_transform_matches_scalar() {
    let func = ValueFunc::Linear { scale: 0.25, offset: -3.0 };
    let got = assert_scalar_chunked_identical("MapTransform/Linear", || {
        MapTransform::<_, f32>::new(vec_fixture(), func)
    });
    assert_eq!(got, reference::map_value(&vec_fixture_elements(), func));
}

#[test]
fn cast_transform_matches_scalar() {
    let got = assert_scalar_chunked_identical("CastTransform/f32→f64", || {
        CastTransform::<_, f64>::new(vec_fixture())
    });
    assert_eq!(got, reference::cast::<f64>(&vec_fixture_elements()));
}

#[test]
fn shed_rows_matches_scalar() {
    let got = assert_scalar_chunked_identical("Shed/Rows", || {
        Shed::new(vec_fixture(), ShedPolicy::Rows, 2)
    });
    assert_eq!(got, reference::shed(&vec_fixture_elements(), ShedPolicy::Rows, 2));
}

#[test]
fn shed_points_matches_scalar() {
    let got = assert_scalar_chunked_identical("Shed/Points", || {
        Shed::new(vec_fixture(), ShedPolicy::Points, 3)
    });
    assert_eq!(got, reference::shed(&vec_fixture_elements(), ShedPolicy::Points, 3));
}

#[test]
fn compose_hash_matches_scalar() {
    assert_scalar_chunked_identical("Compose", || {
        let left = vec_fixture();
        let right =
            VecStream::sectors("rhs", lattice(), 3, |s, x, y| (s as f64) + (x as f64) - (y as f64));
        Compose::new(left, right, GammaOp::Add).unwrap()
    });
}

/// `make()` against the hash join of `tests/common` over `inputs`, at
/// every budget of the oracle and one past the output row: the same
/// elements, the same `f32` bits, the same points in and out and the
/// same unmatched count, with a buffer peak no higher than the hash
/// join's.
fn assert_compose_matches_reference<L, R>(
    label: &str,
    make: impl Fn() -> Compose<L, R>,
    inputs: [Vec<Element<f32>>; 2],
    op: GammaOp,
) where
    L: GeoStream<V = f32>,
    R: GeoStream<V = f32>,
{
    let (want, want_stats, want_dropped) = reference::compose([&inputs[0], &inputs[1]], op);
    let width = want
        .iter()
        .find_map(|el| match el {
            Element::SectorStart(si) => Some(si.lattice.width as usize),
            _ => None,
        })
        .expect("the reference opens a sector");
    let bits = |els: &[Element<f32>]| -> Vec<(Cell, u32)> {
        els.iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some((p.cell, p.value.to_bits())),
                _ => None,
            })
            .collect()
    };
    for budget in [1, 7, 256, 1024, width + 1] {
        let mut op = make();
        let got = drain_chunked(&mut op, budget);
        let stats = op.op_stats();
        let at = format!("{label}, budget {budget}");
        assert_eq!(got, want, "{at}: elements");
        assert_eq!(bits(&got), bits(&want), "{at}: value bits");
        assert_eq!(
            (stats.points_in, stats.points_out, op.unmatched_dropped),
            (want_stats.points_in, want_stats.points_out, want_dropped),
            "{at}: points in, out and unmatched"
        );
        assert!(
            stats.buffered_points_peak <= want_stats.buffered_points_peak,
            "{at}: buffer peak {} over the hash join's {}",
            stats.buffered_points_peak,
            want_stats.buffered_points_peak
        );
    }
}

#[test]
fn compose_matches_the_hash_join_reference() {
    // A GOES-like instrument whose near-infrared band is scanned at the
    // visible band's resolution, so the two compose on one lattice.
    let mut goes = goes_like(32, 16, 11);
    goes.instrument.bands[1].reduction = 1;
    let vis = || goes.band_stream(0, 3);
    let nir = || goes.band_stream(1, 3);
    let lat = goes.sector_lattice(0, 0);
    let cells = |from: Cell, to: Cell| {
        let (a, b) = (lat.cell_to_world(from), lat.cell_to_world(to));
        Region::Rect(Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y)))
    };
    let (box_a, box_b) =
        (cells(Cell::new(3, 2), Cell::new(20, 11)), cells(Cell::new(9, 5), Cell::new(28, 14)));
    fn els<S: GeoStream<V = f32>>(mut s: S) -> Vec<Element<f32>> {
        s.drain_elements()
    }
    macro_rules! case {
        ($label:expr, $op:expr, $left:expr, $right:expr) => {
            assert_compose_matches_reference(
                $label,
                || Compose::new($left, $right, $op).unwrap(),
                [els($left), els($right)],
                $op,
            )
        };
    }
    case!("aligned", GammaOp::NormDiff, nir(), vis());
    case!("one side restricted", GammaOp::Sub, SpatialRestrict::new(nir(), box_a.clone()), vis());
    case!(
        "both differently restricted",
        GammaOp::Add,
        SpatialRestrict::new(nir(), box_a.clone()),
        SpatialRestrict::new(vis(), box_b.clone())
    );
    case!(
        "damaged_then_repaired",
        GammaOp::Sub,
        damaged_then_repaired(),
        MapTransform::<_, f32>::new(damaged_then_repaired(), ValueFunc::Abs)
    );
    case!("magnified twice", GammaOp::Mul, Magnify::new(nir(), 2), Magnify::new(vis(), 2));
    case!("magnified once", GammaOp::Mul, Magnify::new(nir(), 2), vis());
    // goes_like's own near-infrared band is a quarter of the visible
    // band's resolution: the live NDVI shape.
    let quarter = goes_like(32, 16, 11);
    case!(
        "downsampled visible",
        GammaOp::NormDiff,
        quarter.band_stream(1, 3),
        Downsample::new(quarter.band_stream(0, 3), 4)
    );
    case!("measurement time", GammaOp::Add, measurement_time(vis(), 0), measurement_time(vis(), 1));
    case!(
        "measurement time, equal",
        GammaOp::Sup,
        measurement_time(nir(), 0),
        measurement_time(vis(), 0)
    );

    // A self-join with the stream's own past.
    let delayed = || {
        let (live, past) = tee2(vis());
        (live, Delay::new(past, 1))
    };
    let (live, past) = delayed();
    let inputs = [els(live), els(past)];
    let make = || {
        let (live, past) = delayed();
        Compose::new(live, past, GammaOp::Sub).unwrap()
    };
    assert_compose_matches_reference("delay", make, inputs, GammaOp::Sub);

    // One downlink carrying both bands: line-interleaved, then
    // band-sequential.
    let (a, b) = (els(nir()), els(vis()));
    for (label, transport) in
        [("split2 rows", interleave(&a, &b, false)), ("split2 bands", interleave(&a, &b, true))]
    {
        let schema = || nir().schema().clone();
        let make = || {
            let (s0, s1) = split2(transport.clone().into_iter(), schema(), schema());
            Compose::new(s0, s1, GammaOp::Div).unwrap()
        };
        assert_compose_matches_reference(label, make, [a.clone(), b.clone()], GammaOp::Div);
    }

    // The unfused §3.4 NDVI: compositions of compositions.
    let num = reference::compose([&a, &b], GammaOp::Sub).0;
    let den = reference::compose([&b, &a], GammaOp::Add).0;
    let make = || common::ndvi_unfused(nir(), vis());
    assert_compose_matches_reference("nested", make, [num, den], GammaOp::Div);
}

/// `s` with every frame stamped by its measurement time: frame `i`
/// at `2i + offset`.
fn measurement_time(s: SyntheticStream, offset: i64) -> VecStream<f32> {
    let mut schema = s.schema().clone();
    schema.time_semantics = TimeSemantics::MeasurementTime;
    let mut s = s;
    let els = s
        .drain_elements()
        .into_iter()
        .map(|el| match el {
            Element::FrameStart(mut fi) => {
                fi.timestamp = Timestamp::new(fi.frame_id as i64 * 2 + offset);
                Element::FrameStart(fi)
            }
            other => other,
        })
        .collect();
    VecStream::new(schema, els)
}

/// One transport of two bands: frame by frame (line-interleaved) or,
/// with `by_sector`, sector by sector (band-sequential).
fn interleave(a: &[Element<f32>], b: &[Element<f32>], by_sector: bool) -> Vec<(u8, Element<f32>)> {
    let groups = |els: &[Element<f32>]| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let end = if by_sector {
                matches!(el, Element::SectorEnd(_))
            } else {
                matches!(el, Element::FrameEnd(_) | Element::SectorEnd(_))
            };
            out.last_mut().expect("a group is open").push(el.clone());
            if end {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    let mut out = Vec::new();
    for (x, y) in groups(a).into_iter().zip(groups(b)) {
        out.extend(x.into_iter().map(|e| (0u8, e)));
        out.extend(y.into_iter().map(|e| (1u8, e)));
    }
    out
}

// ---------------------------------------------------------------------
// Fault injection and repair
// ---------------------------------------------------------------------

/// A fault plan touching every non-stalling fault class, so the chunked
/// path must reproduce the scalar RNG draw order exactly.
fn nasty_plan() -> FaultPlan {
    FaultPlan::seeded(0xBAD5EED)
        .with_dropped_points(0.05)
        .with_dropped_rows(0.02)
        .with_dropped_sectors(0.1)
        .with_dropped_end_markers(0.05)
        .with_duplicates(0.04)
        .with_reordering(0.03)
        .with_corruption(0.02, 5.0)
}

#[test]
fn chaos_stream_matches_scalar() {
    let run = |chunk_budget: Option<usize>| {
        let mut s = ChaosStream::new(goes_fixture(), nasty_plan(), 42);
        let els = match chunk_budget {
            None => s.drain_elements(),
            Some(b) => drain_chunked(&mut s, b),
        };
        (els, s.fault_stats())
    };
    let (expected, expected_faults) = run(None);
    assert!(!expected.is_empty());
    for &budget in BUDGETS {
        let (got, faults) = run(Some(budget));
        assert_eq!(got, expected, "ChaosStream elements diverge at budget {budget}");
        assert_eq!(faults, expected_faults, "FaultStats diverge at budget {budget}");
    }
}

#[test]
fn chaos_stream_death_matches_scalar() {
    // Death mid-stream: the chunked path must deliver exactly the
    // pre-death prefix and report identical FaultStats.
    let run = |chunk_budget: Option<usize>| {
        let plan = FaultPlan::seeded(77).with_duplicates(0.05).with_death_after(150);
        let mut s = ChaosStream::new(goes_fixture(), plan, 9);
        let els = match chunk_budget {
            None => s.drain_elements(),
            Some(b) => drain_chunked(&mut s, b),
        };
        (els, s.fault_stats())
    };
    let (expected, expected_faults) = run(None);
    assert!(!expected.is_empty());
    for &budget in BUDGETS {
        let (got, faults) = run(Some(budget));
        assert_eq!(got, expected, "death-case elements diverge at budget {budget}");
        assert_eq!(faults, expected_faults, "death-case FaultStats diverge at budget {budget}");
    }
}

#[test]
fn stream_repair_over_damage_matches_scalar() {
    let run = |chunk_budget: Option<usize>| {
        let chaos = ChaosStream::new(goes_fixture(), nasty_plan(), 1234);
        let mut repair = StreamRepair::new(chaos);
        let probe = repair.probe();
        let els = match chunk_budget {
            None => repair.drain_elements(),
            Some(b) => drain_chunked(&mut repair, b),
        };
        (els, probe.stats())
    };
    let (expected, expected_stats) = run(None);
    assert!(!expected.is_empty());
    for &budget in BUDGETS {
        let (got, stats) = run(Some(budget));
        assert_eq!(got, expected, "repair elements diverge at budget {budget}");
        assert_eq!(stats, expected_stats, "RepairStats diverge at budget {budget}");
    }
}

// ---------------------------------------------------------------------
// The chunk-staging input cursor, and every consumer that reads through it
// ---------------------------------------------------------------------

/// Serves `inner` in runs of at most `budget` points whatever the
/// consumer asks for, so the cursor (which always asks for the default
/// budget) is exercised across every run split.
struct Rebudget<S> {
    inner: S,
    budget: usize,
}

impl<S: GeoStream> GeoStream for Rebudget<S> {
    type V = S::V;

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn next_element(&mut self) -> Option<Element<S::V>> {
        self.inner.next_element()
    }

    fn next_chunk(&mut self, _budget: usize) -> Option<ChunkOrMarker<S::V>> {
        self.inner.next_chunk(self.budget)
    }
}

/// `ChunkInput` over `make()` must serve exactly `make().drain_elements()`.
fn assert_cursor_is_the_scalar_sequence<S: GeoStream, F: Fn() -> S>(label: &str, make: F)
where
    S::V: std::fmt::Debug + PartialEq,
{
    let expected = make().drain_elements();
    assert!(!expected.is_empty(), "{label}: scalar oracle produced nothing");
    for &budget in BUDGETS {
        let mut input = ChunkInput::new(Rebudget { inner: make(), budget });
        let got: Vec<_> = std::iter::from_fn(|| input.pull()).collect();
        assert_eq!(got, expected, "{label}: cursor diverges at budget {budget}");
        assert!(input.pull().is_none(), "{label}: the cursor stays ended");
    }
}

#[test]
fn chunk_input_serves_the_scalar_sequence_of_every_source() {
    assert_cursor_is_the_scalar_sequence("scanner/RowByRow", goes_fixture);
    assert_cursor_is_the_scalar_sequence("scanner/ImageByImage", || {
        airborne_camera(Rect::new(-100.0, 30.0, -99.0, 31.0), W, H, 5).band_stream(0, 2)
    });
    assert_cursor_is_the_scalar_sequence("scanner/PointByPoint", || {
        lidar_profiler(Rect::new(0.0, 0.0, 1.0, 1.0), W, H, 9).band_stream(0, 2)
    });
    assert_cursor_is_the_scalar_sequence("chaos", || {
        ChaosStream::new(goes_fixture(), nasty_plan(), 42)
    });
    assert_cursor_is_the_scalar_sequence("repair-over-chaos", damaged_then_repaired);

    // Archive replay of three persisted sectors, whole and over a
    // region, and of image-by-image frames.
    let archives = Archives::new("vectorized-replay");
    let (archive, band) = (&archives.rows, archives.rows_band);
    assert_cursor_is_the_scalar_sequence("archive-replay", || {
        archive.replay(band, None, None, None).unwrap()
    });
    assert_cursor_is_the_scalar_sequence("ArchiveReplay/region", || {
        archive.replay(band, None, None, Some(&archives.region)).unwrap()
    });
    let points = |region| archive.replay(band, None, None, region).unwrap().drain_points().len();
    assert!(points(Some(&archives.region)) < points(None), "the region clips the replay");
    assert_cursor_is_the_scalar_sequence("ArchiveReplay/frames", || {
        archives.frames.replay(archives.frames_band, None, None, None).unwrap()
    });
}

/// Two archives in temporary directories, removed on drop: three
/// row-by-row `goes_like` sectors and two image-by-image
/// `airborne_camera` frames of 16 × 8 points.
struct Archives {
    rows: Archive,
    rows_band: u16,
    /// A rectangle inside the rows' lattice, clipping columns and rows.
    region: Rect,
    frames: Archive,
    frames_band: u16,
    /// Declared last: fields drop in order, so both archives are closed
    /// before their directories go.
    _dirs: TmpDirs,
}

/// Directories removed on drop.
struct TmpDirs([std::path::PathBuf; 2]);

impl Archives {
    fn new(tag: &str) -> Archives {
        let dirs =
            [common::tmp_dir(&format!("{tag}-rows")), common::tmp_dir(&format!("{tag}-frames"))];
        let (rows, rows_band) = archive_of(&dirs[0], goes_like(W, H, 7).band_stream(0, 3));
        let (frames, frames_band) = archive_of(
            &dirs[1],
            airborne_camera(Rect::new(-100.0, 30.0, -99.0, 31.0), W, H, 5).band_stream(0, 2),
        );
        let b = goes_like(W, H, 7).sector_lattice(0, 0).world_bbox();
        let (dx, dy) = ((b.x_max - b.x_min) / 4.0, (b.y_max - b.y_min) / 4.0);
        let region = Rect::new(b.x_min + dx, b.y_min + dy, b.x_max - dx, b.y_max - dy);
        Archives { rows, rows_band, region, frames, frames_band, _dirs: TmpDirs(dirs) }
    }
}

impl Drop for TmpDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// An archive in `dir` holding what `live` yields, and its band.
fn archive_of<S: GeoStream<V = f32>>(dir: &std::path::Path, mut live: S) -> (Archive, u16) {
    let archive = Archive::create(ArchiveConfig::new(dir)).unwrap();
    let band = live.schema().band;
    archive.bind_band(live.schema()).unwrap();
    while let Some(item) = live.next_chunk(64) {
        archive.ingest_chunk(band, &item).unwrap();
    }
    archive.flush().unwrap();
    (archive, band)
}

/// What every operator below is fed: a damaged downlink after repair
/// (partial frames, synthesized markers, missing sectors).
fn damaged_then_repaired() -> StreamRepair<ChaosStream<SyntheticStream>> {
    StreamRepair::new(ChaosStream::new(goes_like(W, H, 7).band_stream(0, 4), nasty_plan(), 1234))
}

#[test]
fn buffering_operators_match_scalar_over_repaired_damage() {
    // `OpStats` equality covers `buffered_bytes_peak`: what an operator
    // reports as its own buffer excludes the input cursor's staged run.
    let src = damaged_then_repaired;
    assert_scalar_chunked_identical("Delay", || Delay::new(src(), 1));
    for func in [FocalFunc::Mean, FocalFunc::Median, FocalFunc::Sobel] {
        assert_scalar_chunked_identical("Focal", || FocalTransform::new(src(), func, 3));
    }
    for o in [Orientation::Rot90, Orientation::FlipH, Orientation::Transpose] {
        assert_scalar_chunked_identical("Orient", || Orient::new(src(), o));
    }
    for use_sector_metadata in [true, false] {
        assert_scalar_chunked_identical("Reproject", || {
            let cfg = ReprojectConfig { use_sector_metadata, ..ReprojectConfig::new(Crs::LatLon) };
            Reproject::new(src(), cfg).unwrap()
        });
    }
    for scope in [StretchScope::Frame, StretchScope::Image] {
        assert_scalar_chunked_identical("Stretch/Linear", || {
            StretchTransform::new(src(), StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 }, scope)
        });
        assert_scalar_chunked_identical("Stretch/HistEq", || {
            StretchTransform::new(src(), StretchMode::HistEq { bins: 16 }, scope)
        });
    }
    assert_scalar_chunked_identical("TemporalAggregate", || {
        TemporalAggregate::new(src(), AggFunc::Mean, 2)
    });
    assert_scalar_chunked_identical("SpatialAggregate", || {
        let region = Region::Rect(goes_like(W, H, 7).sector_lattice(0, 0).world_bbox());
        SpatialAggregate::new(src(), AggFunc::Max, region)
    });
    assert_scalar_chunked_identical("Magnify", || Magnify::new(src(), 2));
    assert_scalar_chunked_identical("Downsample", || Downsample::new(src(), 2));
    assert_scalar_chunked_identical("Compose", || {
        let right = MapTransform::<_, f32>::new(
            damaged_then_repaired(),
            ValueFunc::Linear { scale: 0.5, offset: 1.0 },
        );
        Compose::new(src(), right, GammaOp::Sub).unwrap()
    });
    assert_scalar_chunked_identical("Shed/Points over Focal", || {
        Shed::new(FocalTransform::new(src(), FocalFunc::Max, 3), ShedPolicy::Points, 2)
    });
}

/// `Reproject` over `make()` against the per-element reference of
/// `tests/common`, at every budget of the oracle and one past the output
/// row: the same elements, the same `f32` bits, and the same `OpStats`
/// but for the bytes, which are the operator's structures' to say.
fn assert_reproject_matches_reference<S: GeoStream<V = f32>>(
    label: &str,
    make: impl Fn() -> S,
    cfg: &ReprojectConfig,
) {
    let from = make().schema().crs;
    let (want, want_stats) = reference::reproject(&make().drain_elements(), from, cfg);
    assert!(want.iter().any(Element::is_point), "{label}: the reference emits no point");
    let lattices: Vec<LatticeGeoref> = want
        .iter()
        .filter_map(|el| match el {
            Element::SectorStart(si) => Some(si.lattice),
            _ => None,
        })
        .collect();
    let (width, cells) = (lattices[0].width as usize, lattices[0].len());
    assert!(lattices.iter().all(|l| l.len() == cells), "{label}: one output size");
    let bits = |els: &[Element<f32>]| -> Vec<(Cell, u32)> {
        els.iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some((p.cell, p.value.to_bits())),
                _ => None,
            })
            .collect()
    };
    let unbuffered = |s: &OpStats| OpStats {
        buffered_points_peak: 0,
        buffered_bytes: 0,
        buffered_bytes_peak: 0,
        ..s.clone()
    };
    for budget in [1, 7, 256, 1024, width + 1] {
        let mut op = Reproject::new(make(), cfg.clone()).unwrap();
        let got = drain_chunked(&mut op, budget);
        let stats = op.op_stats();
        let at = format!(
            "{label}, {:?}, metadata {}, budget {budget}",
            cfg.kernel, cfg.use_sector_metadata
        );
        assert_eq!(got, want, "{at}: elements");
        assert_eq!(bits(&got), bits(&want), "{at}: value bits");
        assert_eq!(unbuffered(&stats), unbuffered(&want_stats), "{at}: OpStats");
        // The operator's watermark also passes rows that lattice order
        // rules out, so it may evict earlier than the reference.
        assert!(
            stats.buffered_points_peak <= want_stats.buffered_points_peak,
            "{at}: peak {} points over the reference's {}",
            stats.buffered_points_peak,
            want_stats.buffered_points_peak
        );
    }
}

/// Three sectors of a 48 × 24 `goes_like` band restricted to a box whose
/// first row is not row 0.
fn restricted_goes_like() -> SpatialRestrict<SyntheticStream> {
    let goes = goes_like(48, 24, 11);
    let lat = goes.sector_lattice(0, 0);
    let (a, b) = (lat.cell_to_world(Cell::new(6, 5)), lat.cell_to_world(Cell::new(40, 18)));
    let boxed = Region::Rect(Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y)));
    SpatialRestrict::new(goes.band_stream(0, 3), boxed)
}

/// Three sectors of a 48 × 24 `goes_like` band keeping the points on
/// the 4-cell subgrid: rows off it come as empty frames, several in a
/// row.
fn shed_points() -> Shed<SyntheticStream> {
    Shed::new(goes_like(48, 24, 11).band_stream(0, 3), ShedPolicy::Points, 4)
}

/// One lat/lon sector on each of `lattices` in turn (sector ids 0, 1,
/// …): a state cached across a change of lattice shows in the second.
fn lattice_sequence(lattices: &[LatticeGeoref]) -> VecStream<f32> {
    let elements = lattices
        .iter()
        .zip(0u64..)
        .flat_map(|(&lattice, id)| {
            VecStream::<f32>::single_sector("moving", lattice, id, move |c, r| {
                f64::from(c * 3 + r) + id as f64
            })
            .drain_elements()
        })
        .collect();
    VecStream::new(StreamSchema::new("moving", Crs::LatLon), elements)
}

/// A 20 × 14 lat/lon lattice over Northern California, `dx` degrees east.
fn shifted(dx: f64) -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0 + dx, 36.0, -121.0 + dx, 39.0), 20, 14)
}

#[test]
fn reproject_matches_the_per_element_reference() {
    let restricted = restricted_goes_like;
    // Sectors on lattices A, B, A: a mapping reused across a change of
    // lattice would give sector B the output lattice of A.
    let moving = || lattice_sequence(&[shifted(0.0), shifted(0.5), shifted(0.0)]);
    for kernel in [Kernel::Nearest, Kernel::Bilinear, Kernel::Bicubic] {
        for use_sector_metadata in [true, false] {
            let latlon = ReprojectConfig {
                use_sector_metadata,
                ..ReprojectConfig::new(Crs::LatLon).kernel(kernel)
            };
            let utm = ReprojectConfig { to: Crs::utm(10, true), ..latlon.clone() };
            assert_reproject_matches_reference("restricted goes_like", restricted, &latlon);
            assert_reproject_matches_reference(
                "damaged_then_repaired",
                damaged_then_repaired,
                &latlon,
            );
            assert_reproject_matches_reference("moving lattice", moving, &utm);
            assert_reproject_matches_reference("shed points", shed_points, &latlon);
        }
    }
}

/// `FocalTransform` over `make()` against the per-element reference of
/// `tests/common`, at every budget of the oracle and one past the row:
/// the same elements, the same `f32` bits, the same `OpStats` but for
/// the buffer counters, and a buffer peak no higher than the
/// reference's.
fn assert_focal_matches_reference<S: GeoStream<V = f32>>(
    label: &str,
    make: impl Fn() -> S,
    func: FocalFunc,
    k: u32,
) {
    let input = make().drain_elements();
    let (want, want_stats) = reference::focal(&input, func, k);
    assert!(want.iter().any(Element::is_point), "{label}: the reference emits no point");
    let width = input
        .iter()
        .find_map(|el| match el {
            Element::SectorStart(si) => Some(si.lattice.width as usize),
            _ => None,
        })
        .unwrap();
    let bits = |els: &[Element<f32>]| -> Vec<u32> {
        els.iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some(p.value.to_bits()),
                _ => None,
            })
            .collect()
    };
    let unbuffered = |s: &OpStats| OpStats {
        buffered_points: 0,
        buffered_points_peak: 0,
        buffered_bytes: 0,
        buffered_bytes_peak: 0,
        ..s.clone()
    };
    for budget in [1, 7, 256, 1024, width + 1] {
        let mut op = FocalTransform::new(make(), func, k);
        let got = drain_chunked(&mut op, budget);
        let stats = op.op_stats();
        let at = format!("{label}, {func:?} k={k}, budget {budget}");
        assert_eq!(got, want, "{at}: elements");
        assert_eq!(bits(&got), bits(&want), "{at}: value bits");
        assert_eq!(unbuffered(&stats), unbuffered(&want_stats), "{at}: OpStats");
        assert_eq!(stats.buffered_points, 0, "{at}: released");
        assert!(
            stats.buffered_points_peak <= want_stats.buffered_points_peak,
            "{at}: peak {} points over the reference's {}",
            stats.buffered_points_peak,
            want_stats.buffered_points_peak
        );
    }
}

#[test]
fn focal_matches_the_per_element_reference() {
    let goes = || goes_like(48, 24, 11).band_stream(0, 3);
    // Magnified frames carry two rows whose points come in 2 × 2 blocks.
    let magnified = || Magnify::new(goes_like(24, 12, 5).band_stream(0, 2), 2);
    // Sectors on lattices A, B, A of different heights: a band schedule
    // kept across the change would emit sector B's rows by A's.
    let small = LatticeGeoref::north_up(Crs::LatLon, Rect::new(-123.0, 37.0, -121.0, 38.0), 13, 9);
    let moving = || lattice_sequence(&[shifted(0.0), small, shifted(0.0)]);
    // Values that cancel: a neighbourhood summed in another order than
    // `dr` outer, `dc` inner gives other bits.
    let cancelling = || {
        VecStream::<f32>::sectors("cancelling", shifted(0.0), 2, |s, c, r| {
            [1e20, -1e20, f64::from(c + r) + 0.25][(c as usize + 2 * r as usize + s as usize) % 3]
        })
    };
    for func in [
        FocalFunc::Mean,
        FocalFunc::Min,
        FocalFunc::Max,
        FocalFunc::Median,
        FocalFunc::Sobel,
        FocalFunc::Laplacian,
    ] {
        for k in [3, 5, 7] {
            assert_focal_matches_reference("goes_like", goes, func, k);
            assert_focal_matches_reference("restricted goes_like", restricted_goes_like, func, k);
            assert_focal_matches_reference("damaged_then_repaired", damaged_then_repaired, func, k);
            assert_focal_matches_reference("magnified", magnified, func, k);
            assert_focal_matches_reference("lattices A, B, A", moving, func, k);
            assert_focal_matches_reference("shed points", shed_points, func, k);
            assert_focal_matches_reference("cancelling values", cancelling, func, k);
        }
    }
}

/// `build(make())` against the per-element `reference` of
/// `tests/common` at every budget of the oracle and one past the input
/// row: the same elements, the same `f32` bits and the same `OpStats`,
/// buffered points included; the bytes are the operator's structures'
/// to say.
fn assert_matches_reference<S: GeoStream<V = f32>, O: GeoStream<V = f32>>(
    label: &str,
    make: impl Fn() -> S,
    build: impl Fn(S) -> O,
    reference: impl Fn(&[Element<f32>]) -> (Vec<Element<f32>>, OpStats),
) {
    let input = make().drain_elements();
    let (want, want_stats) = reference(&input);
    assert!(want.iter().any(Element::is_point), "{label}: the reference emits no point");
    let width = input
        .iter()
        .find_map(|el| match el {
            Element::SectorStart(si) => Some(si.lattice.width as usize),
            _ => None,
        })
        .unwrap();
    let bits = |els: &[Element<f32>]| -> Vec<u32> {
        els.iter()
            .filter_map(|el| match el {
                Element::Point(p) => Some(p.value.to_bits()),
                _ => None,
            })
            .collect()
    };
    for budget in [1, 7, 256, 1024, width + 1] {
        let mut op = build(make());
        let got = drain_chunked(&mut op, budget);
        let at = format!("{label}, budget {budget}");
        assert_eq!(got, want, "{at}: elements");
        assert_eq!(bits(&got), bits(&want), "{at}: value bits");
        let no_bytes = |s: OpStats| OpStats { buffered_bytes: 0, buffered_bytes_peak: 0, ..s };
        assert_eq!(no_bytes(op.op_stats()), want_stats, "{at}: OpStats");
    }
}

/// `agg_time`, `delay`, `stretch`, `magnify` and `downsample` over
/// `make()` against their per-element references.
fn assert_sector_and_scope_operators<S: GeoStream<V = f32>>(label: &str, make: impl Fn() -> S) {
    for func in [AggFunc::Mean, AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count] {
        for window in [1, 2, 3] {
            assert_matches_reference(
                &format!("{label}, agg_time {func:?} w={window}"),
                &make,
                |s| TemporalAggregate::new(s, func, window),
                |els| reference::agg_time(els, func, window),
            );
        }
    }
    for d in [1, 2] {
        assert_matches_reference(
            &format!("{label}, delay {d}"),
            &make,
            |s| Delay::new(s, d),
            |els| reference::delay(els, d as usize),
        );
    }
    let value_range = make().schema().value_range;
    for mode in [
        StretchMode::Linear { out_lo: 0.0, out_hi: 255.0 },
        StretchMode::HistEq { bins: 16 },
        StretchMode::Gaussian { n_sigma: 2.0 },
    ] {
        for scope in [StretchScope::Frame, StretchScope::Image] {
            assert_matches_reference(
                &format!("{label}, stretch {mode:?} {scope:?}"),
                &make,
                |s| StretchTransform::new(s, mode, scope),
                |els| reference::stretch(els, mode, scope, value_range),
            );
        }
    }
    assert_resolution_operators(label, make);
}

/// `magnify` and `downsample` over `make()` against their per-element
/// references.
fn assert_resolution_operators<S: GeoStream<V = f32>>(label: &str, make: impl Fn() -> S) {
    for k in [1, 2, 3] {
        assert_matches_reference(
            &format!("{label}, magnify {k}"),
            &make,
            |s| Magnify::new(s, k),
            |els| reference::magnify(els, k),
        );
    }
    for k in [2, 3, 4] {
        assert_matches_reference(
            &format!("{label}, downsample {k}"),
            &make,
            |s| Downsample::new(s, k),
            |els| reference::downsample(els, k),
        );
    }
}

#[test]
fn sector_and_scope_operators_match_the_per_element_reference() {
    let goes = || goes_like(48, 24, 11).band_stream(0, 3);
    let moving = || lattice_sequence(&[shifted(0.0), shifted(0.5), shifted(0.0)]);
    assert_sector_and_scope_operators("goes_like", goes);
    assert_sector_and_scope_operators("restricted goes_like", restricted_goes_like);
    assert_sector_and_scope_operators("damaged_then_repaired", damaged_then_repaired);
    assert_sector_and_scope_operators("shed points", shed_points);
    assert_sector_and_scope_operators("lattices A, B, A", moving);
    // Values that cancel: a window summed in another order than oldest
    // first gives other bits.
    let cancelling = || {
        VecStream::<f32>::sectors("cancelling", shifted(0.0), 5, |s, c, r| {
            [1e20, -1e20, f64::from(c + r) + 0.25][s as usize % 3]
        })
    };
    assert_sector_and_scope_operators("cancelling sectors", cancelling);
    // Magnification and downsampling accept input out of lattice order.
    for o in [Orientation::Rot90, Orientation::Rot180, Orientation::FlipV, Orientation::Transpose] {
        assert_resolution_operators(&format!("orient {o:?}"), || Orient::new(goes(), o));
    }
}

/// The reference image assembler, one scalar pull per element: what
/// `ImageAssembler` must produce however its input is chunked.
fn reference_images<S: GeoStream<V = f32>>(mut s: S) -> Vec<RasterImage<f32>> {
    let (mut out, mut cur) = (Vec::new(), None);
    while let Some(el) = s.next_element() {
        match el {
            Element::SectorStart(si) => {
                cur = Some((Grid2D::new(si.lattice.width, si.lattice.height), si, 0u64));
            }
            Element::Point(p) => {
                if let Some((grid, _, filled)) = &mut cur {
                    if p.cell.col < grid.width() && p.cell.row < grid.height() {
                        grid.set(p.cell.col, p.cell.row, p.value);
                        *filled += 1;
                    }
                }
            }
            Element::SectorEnd(_) => {
                if let Some((grid, si, filled)) = cur.take() {
                    if filled > 0 {
                        out.push(RasterImage::new(grid, si.lattice, si.timestamp.value(), si.band));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn image_sinks_match_the_scalar_reference_assembler() {
    // Whole, partial (damaged) and empty (restricted away) sectors.
    let nothing = || ValueRestrict::range(goes_fixture(), 5.0, 6.0);
    let third_sector_only =
        || TemporalRestrict::new(vec_fixture(), TimeSet::Interval { lo: Some(2), hi: None });
    assert!(reference_images(nothing()).is_empty());
    assert_eq!(reference_images(third_sector_only()).len(), 1);
    assert!(reference_images(damaged_then_repaired()).len() >= 2);
    for &budget in BUDGETS {
        let chunked = |inner| Rebudget { inner, budget };
        let images = ImageAssembler::new(chunked(damaged_then_repaired())).collect_images();
        assert_eq!(images, reference_images(damaged_then_repaired()), "budget {budget}");
        assert!(ImageAssembler::new(Rebudget { inner: nothing(), budget }).next_image().is_none());
        let mut some = ImageAssembler::new(Rebudget { inner: third_sector_only(), budget });
        assert_eq!(some.collect_images(), reference_images(third_sector_only()));

        // PNG bytes: the sinks over chunked input against the reference
        // images rendered and encoded here.
        let range = damaged_then_repaired().schema().value_range;
        let mut sink = PngSink::new(chunked(damaged_then_repaired()), None, PngOptions::default());
        let frames: Vec<_> = std::iter::from_fn(|| sink.next_frame()).collect();
        let expected = reference_images(damaged_then_repaired());
        assert_eq!(frames.len(), expected.len());
        for (got, want) in frames.iter().zip(&expected) {
            let gray: Grid2D<u8> = want.grid.map(|v| reference_byte(v, range));
            assert_eq!(got.png, png::encode_gray(&gray, PngOptions::default()), "budget {budget}");
            assert_eq!((got.timestamp, got.band), (want.timestamp, want.band));
        }

        let band = || Rebudget { inner: goes_fixture(), budget };
        let mut rgb = RgbComposite::new(band(), band(), band(), PngOptions::default());
        for want in reference_images(goes_fixture()) {
            let pixels: Grid2D<Rgb8> = want.grid.map(|v| {
                let b = reference_byte(v, goes_fixture().schema().value_range);
                Rgb8::new(b, b, b)
            });
            let got = rgb.next_frame().expect("one composite per sector");
            assert_eq!(got.png, png::encode_rgb(&pixels, PngOptions::default()), "budget {budget}");
        }
        assert!(rgb.next_frame().is_none());
    }
}

/// The display scaling of the PNG sinks.
fn reference_byte(v: f32, (lo, hi): (f64, f64)) -> u8 {
    let span = if hi > lo { hi - lo } else { 1.0 };
    (((f64::from(v) - lo) / span).clamp(0.0, 1.0) * 255.0).round() as u8
}

// ---------------------------------------------------------------------
// Observability decorator and stacked pipelines
// ---------------------------------------------------------------------

#[test]
fn traced_stream_is_transparent_in_chunked_mode() {
    // The decorator must not alter the element sequence, scalar or
    // chunked, and must count every element in its latency histogram.
    let got = assert_scalar_chunked_identical("TracedStream", || TracedStream::new(vec_fixture()));
    assert_eq!(got, vec_fixture().drain_elements(), "TracedStream altered the stream");
}

#[test]
fn stacked_pipeline_matches_scalar() {
    // A realistic multi-operator stack: repair over chaos over a
    // scanner, restricted, transformed, shed — every layer chunked.
    let region = || Region::Rect(Rect::new(-0.1, -0.1, 0.12, 0.12));
    let func = ValueFunc::Normalize { lo: 0.0, hi: 400.0 };
    let repaired = || StreamRepair::new(ChaosStream::new(goes_fixture(), nasty_plan(), 7));
    let got = assert_scalar_chunked_identical("stacked-pipeline", || {
        let restricted = SpatialRestrict::new(repaired(), region());
        Shed::new(MapTransform::<_, f32>::new(restricted, func), ShedPolicy::Rows, 2)
    });
    let restricted = reference::restrict_space(&repaired().drain_elements(), &region());
    let want = reference::shed(&reference::map_value(&restricted, func), ShedPolicy::Rows, 2);
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// The chunk contract (DESIGN.md §12) of every stream in the workspace
// ---------------------------------------------------------------------

type Case<'a> = (&'static str, Box<dyn Fn() -> BoxedF32Stream + 'a>);

fn case<'a, S: GeoStream<V = f32> + Send + 'static>(
    label: &'static str,
    make: impl Fn() -> S + 'a,
) -> Case<'a> {
    (label, Box::new(move || Box::new(make())))
}

/// A `ChunkChannel` handing out the items `s` yields at the default
/// budget: runs longer than the smaller budgets it is pulled at.
fn channel_of<S: GeoStream<V = f32>>(mut s: S) -> ChunkChannel<f32> {
    let schema = s.schema().clone();
    let mut items = std::iter::from_fn(|| s.next_chunk(1024)).collect::<Vec<_>>().into_iter();
    ChunkChannel::new(schema, move || items.next())
}

#[test]
fn every_stream_obeys_the_chunk_contract_at_every_budget() {
    // Image-by-image frames of 16 × 8 points, a multiple of the budgets
    // 1, 2 and 16: a producer packing a queue meets a frame end right at
    // the budget edge.
    let camera =
        || airborne_camera(Rect::new(-100.0, 30.0, -99.0, 31.0), W, H, 5).band_stream(0, 2);
    let src = damaged_then_repaired;
    let archives = Archives::new("vectorized-contract");
    let (archive, band) = (&archives.rows, archives.rows_band);
    let recorder = Arc::new(FlightRecorder::new(1, 64));
    let lat = goes_like(W, H, 7).sector_lattice(0, 0);
    let tagged = |tag: u8| vec_fixture().drain_elements().into_iter().map(move |e| (tag, e));
    let schema = || vec_fixture().schema().clone();
    let right = || VecStream::sectors("rhs", lattice(), 3, |s, x, y| (s as f64) + (x * y) as f64);
    // `contract_breaches` also holds each stream to the whole grammar.
    // No stream here breaks it by design: `ChaosStream` runs a plan
    // without faults, and its damage reaches this table only through
    // `StreamRepair`.
    let cases = [
        case("VecStream", vec_fixture),
        case("SyntheticStream", camera),
        case("ChunkChannel/rows", || channel_of(vec_fixture())),
        case("ChunkChannel/frames", || channel_of(camera())),
        case("ArchiveReplay", || archive.replay(band, None, None, None).unwrap()),
        case("ArchiveReplay/region", || {
            archive.replay(band, None, None, Some(&archives.region)).unwrap()
        }),
        case("ArchiveReplay/frames", || {
            archives.frames.replay(archives.frames_band, None, None, None).unwrap()
        }),
        case("SpliceStream", || {
            let replay = archive.replay(band, Some(0), Some(2), None).unwrap();
            SpliceStream::new(replay, Box::new(goes_like(W, H, 7).band_stream(0, 3)), Some(1), None)
        }),
        case("Box", || -> BoxedF32Stream { Box::new(vec_fixture()) }),
        case("&mut", || Box::leak(Box::new(vec_fixture()))),
        case("ChaosStream", || ChaosStream::new(camera(), FaultPlan::seeded(3), 1)),
        case("StreamRepair", || StreamRepair::new(ChaosStream::new(camera(), nasty_plan(), 1))),
        case("split2", || split2(tagged(0).chain(tagged(1)), schema(), schema()).1),
        case("tee2", || tee2(vec_fixture()).1),
        case("SpatialRestrict", || SpatialRestrict::new(src(), Region::Rect(lat.world_bbox()))),
        case("TemporalRestrict", || TemporalRestrict::new(src(), TimeSet::Instants(vec![1]))),
        case("ValueRestrict", || ValueRestrict::range(src(), 50.0, 250.0)),
        case("MapTransform", || MapTransform::<_, f32>::new(src(), ValueFunc::Abs)),
        case("CastTransform", || CastTransform::<_, f32>::new(src())),
        case("Shed", || Shed::new(src(), ShedPolicy::Points, 2)),
        case("Compose", || Compose::new(vec_fixture(), right(), GammaOp::Add).unwrap()),
        case("Delay", || Delay::new(src(), 1)),
        case("FocalTransform", || FocalTransform::new(src(), FocalFunc::Mean, 3)),
        case("Orient", || Orient::new(src(), Orientation::Rot90)),
        case("Reproject", || Reproject::new(src(), ReprojectConfig::new(Crs::LatLon)).unwrap()),
        case("StretchTransform", || {
            StretchTransform::new(src(), StretchMode::HistEq { bins: 16 }, StretchScope::Frame)
        }),
        case("TemporalAggregate", || TemporalAggregate::new(src(), AggFunc::Mean, 2)),
        case("SpatialAggregate", || {
            SpatialAggregate::new(src(), AggFunc::Max, Region::Rect(lat.world_bbox()))
        }),
        case("Magnify", || Magnify::new(camera(), 2)),
        case("Downsample", || Downsample::new(camera(), 2)),
        case("TracedStream", || TracedStream::new(src())),
        case("SpanStream", || SpanStream::new(src(), recorder.begin("contract", 0))),
    ];
    let breaches: Vec<String> = cases
        .iter()
        .flat_map(|(label, make)| {
            contract_breaches(make).1.into_iter().map(move |b| format!("{label} {b}"))
        })
        .collect();
    drop(cases);
    drop(archives);
    assert!(breaches.is_empty(), "chunk contract breaches:\n{}", breaches.join("\n"));
}

// ---------------------------------------------------------------------
// Runtime protocol validation (ISSUE 7)
// ---------------------------------------------------------------------

/// Drives every chunk of a pipeline through the protocol checker at
/// every pull budget and requires a clean run.
fn assert_protocol_clean<S, F>(label: &str, make: F)
where
    S: GeoStream<V = f32>,
    F: Fn() -> S,
{
    for &budget in BUDGETS {
        let mut s = make();
        let mut checker = ChunkProtocolChecker::new(budget, s.schema().time_semantics);
        while let Some(item) = s.next_chunk(budget) {
            checker.observe(&item);
        }
        assert_eq!(
            checker.violations(),
            0,
            "{label} violated the chunk protocol at budget {budget}: {:?}",
            checker.first_violation()
        );
    }
}

#[test]
fn chunked_pipelines_are_protocol_clean() {
    // Sources, the repair layer over a damaged downlink, and the full
    // stacked pipeline must all satisfy the §12 bracketing/chunking
    // protocol as observed by the runtime validator.
    assert_protocol_clean("vec-fixture", vec_fixture);
    assert_protocol_clean("goes-scanner", goes_fixture);
    assert_protocol_clean("repair-over-chaos", || {
        StreamRepair::new(ChaosStream::new(goes_fixture(), nasty_plan(), 1234))
    });
    assert_protocol_clean("stacked-pipeline", || {
        let chaos = ChaosStream::new(goes_fixture(), nasty_plan(), 7);
        let repaired = StreamRepair::new(chaos);
        let restricted =
            SpatialRestrict::new(repaired, Region::Rect(Rect::new(-0.1, -0.1, 0.12, 0.12)));
        let transformed =
            MapTransform::<_, f32>::new(restricted, ValueFunc::Normalize { lo: 0.0, hi: 400.0 });
        Shed::new(transformed, ShedPolicy::Rows, 2)
    });
}

#[test]
fn validator_catches_unrepaired_damage() {
    // Sanity check that the checker can actually fail: a downlink that
    // loses every end marker, pulled WITHOUT the repair layer, must
    // register bracketing violations.
    let plan = FaultPlan::seeded(5).with_dropped_end_markers(1.0);
    let mut s = ChaosStream::new(goes_fixture(), plan, 3);
    let mut checker = ChunkProtocolChecker::new(64, s.schema().time_semantics);
    while let Some(item) = s.next_chunk(64) {
        checker.observe(&item);
    }
    assert!(checker.violations() > 0, "dropping all end markers must trip the validator");
}

/// Each sector's points as a sorted set of (column, row, value bits),
/// pulled at `budget` under a protocol checker that must stay quiet.
fn sector_point_sets<S: GeoStream<V = f32>>(mut s: S, budget: usize) -> Vec<Vec<(u32, u32, u32)>> {
    let mut checker = ChunkProtocolChecker::new(budget, s.schema().time_semantics);
    let mut sectors: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    while let Some(item) = s.next_chunk(budget) {
        checker.observe(&item);
        item.into_elements(&mut |el| match el {
            Element::SectorStart(_) => sectors.push(Vec::new()),
            Element::Point(p) => match sectors.last_mut() {
                Some(points) => points.push((p.cell.col, p.cell.row, p.value.to_bits())),
                None => panic!("a point before any SectorStart"),
            },
            _ => {}
        });
    }
    assert_eq!(checker.violations(), 0, "{:?}", checker.first_violation());
    for points in &mut sectors {
        points.sort_unstable();
    }
    sectors
}

#[test]
fn magnify_needs_no_lattice_order() {
    use geostreams::core::query::{parse_query, Catalog, Plan, Planner};
    // Magnification writes each point's k×k block wherever the point
    // arrives: over any orientation it yields, sector by sector, the
    // points of the orientation over the magnified stream.
    let all = [
        Orientation::Rot90,
        Orientation::Rot180,
        Orientation::Rot270,
        Orientation::FlipH,
        Orientation::FlipV,
        Orientation::Transpose,
    ];
    for o in all {
        for k in [2, 3] {
            for budget in [1, 7, 256] {
                let below =
                    sector_point_sets(Magnify::new(Orient::new(goes_fixture(), o), k), budget);
                let above =
                    sector_point_sets(Orient::new(Magnify::new(goes_fixture(), k), o), budget);
                assert_eq!(below.len(), 2, "{o:?} x{k} at {budget}");
                assert_eq!(below, above, "{o:?} x{k} at {budget}");
            }
        }
    }
    // So the contract asks for bracketing only: both orders are
    // admitted. Magnification keeps its input's order, so an
    // order-needing operator above it is still refused.
    let mut catalog = Catalog::new();
    catalog.register(goes_fixture().schema().clone(), || Box::new(goes_fixture()));
    let g = goes_fixture().schema().name.clone();
    let planner = Planner::new(&catalog);
    for o in all {
        let o = o.name();
        for q in [
            format!("magnify(orient({g}, \"{o}\"), 3)"),
            format!("orient(magnify({g}, 3), \"{o}\")"),
        ] {
            let plan = Plan::analyze(parse_query(&q).unwrap(), &catalog);
            assert!(plan.report().certificate.certified, "{q}: {:?}", plan.report().diagnostics);
            assert_eq!(
                planner.build(&plan).unwrap().drain_points().len(),
                2 * 9 * (W * H) as usize,
                "{q}"
            );
        }
        let q = format!("add(magnify(orient({g}, \"{o}\"), 2), magnify({g}, 2))");
        let plan = Plan::analyze(parse_query(&q).unwrap(), &catalog);
        assert!(plan.verdict().is_err(), "{q}");
    }
}
