//! Direct tests of the paper's evaluation claims, one per claim.
//! EXPERIMENTS.md reports the quantitative versions; these tests pin the
//! qualitative *shape* so regressions fail CI.

use geostreams::core::exec::run_to_end;
use geostreams::core::model::{
    split2, Element, GeoStream, StreamSchema, TimeSemantics, Timestamp, VecStream,
};
use geostreams::core::ops::{
    AggFunc, Compose, Downsample, GammaOp, Magnify, Reproject, ReprojectConfig, SpatialRestrict,
    StretchMode, StretchScope, StretchTransform, TemporalAggregate,
};
use geostreams::core::stats::OpReport;
use geostreams::geo::{Crs, LatticeGeoref, Rect, Region};
use geostreams::satsim::goes_like;

fn lattice(w: u32, h: u32) -> LatticeGeoref {
    LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 16.0, 16.0), w, h)
}

fn ramp(w: u32, h: u32, sectors: u64) -> VecStream<f32> {
    VecStream::sectors("ramp", lattice(w, h), sectors, |s, c, r| {
        f64::from(c) + f64::from(r) + s as f64
    })
    .with_value_range(0.0, 300.0)
}

fn peak_of<S: GeoStream>(mut op: S) -> (u64, u64) {
    let report = run_to_end(&mut op);
    let mut ops: Vec<OpReport> = Vec::new();
    op.collect_stats(&mut ops);
    let peak = ops.iter().map(|o| o.stats.buffered_points_peak).max().unwrap_or(0);
    (peak, report.points_delivered)
}

/// §3.1: "all restriction operators are non-blocking and have constant
/// cost per point, independent of the size of the input stream" — zero
/// buffering at any stream size.
#[test]
fn claim_restrictions_never_buffer() {
    for (w, h) in [(16u32, 16u32), (64, 64), (128, 128)] {
        let region = Region::Rect(Rect::new(2.0, 2.0, 9.0, 9.0));
        let (peak, out) = peak_of(SpatialRestrict::new(ramp(w, h, 2), region));
        assert_eq!(peak, 0, "{w}x{h}");
        assert!(out > 0);
    }
}

/// §3.2: "the cost of a stretch transform operator is determined by the
/// size of the largest frame" — image-scoped stretch buffers exactly the
/// image; the buffer grows linearly with frame area.
#[test]
fn claim_stretch_buffers_the_image() {
    let mut peaks = Vec::new();
    for n in [16u32, 32, 64] {
        let op = StretchTransform::new(
            ramp(n, n, 1),
            StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
            StretchScope::Image,
        );
        let (peak, _) = peak_of(op);
        assert_eq!(peak, u64::from(n) * u64::from(n), "image buffer is the whole image");
        peaks.push(peak);
    }
    assert_eq!(peaks[1], peaks[0] * 4);
    assert_eq!(peaks[2], peaks[0] * 16);
}

/// §3.2: magnification needs no neighbors; downsampling buffers rows,
/// never the frame.
#[test]
fn claim_resolution_change_buffering() {
    let (peak_mag, out_mag) = peak_of(Magnify::new(ramp(32, 32, 1), 3));
    assert_eq!(peak_mag, 0);
    assert_eq!(out_mag, 32 * 32 * 9);

    let (peak_short, _) = peak_of(Downsample::new(ramp(64, 16, 1), 4));
    let (peak_tall, _) = peak_of(Downsample::new(ramp(64, 128, 1), 4));
    assert_eq!(peak_short, peak_tall, "downsample buffer independent of frame height");
    assert!(peak_tall < 64 * 16, "far below even the short frame");
}

/// §3.2: re-projection with sector metadata buffers a narrow band;
/// without it, the whole sector ("could potentially block forever").
#[test]
fn claim_reprojection_metadata_bounds_buffering() {
    let scanner = goes_like(96, 48, 4);
    let streaming = {
        let op =
            Reproject::new(scanner.band_stream(0, 1), ReprojectConfig::new(Crs::LatLon)).unwrap();
        peak_of(op).0
    };
    let blocking = {
        let op =
            Reproject::new(scanner.band_stream(0, 1), ReprojectConfig::new(Crs::LatLon).blocking())
                .unwrap();
        peak_of(op).0
    };
    assert_eq!(blocking, 96 * 48, "blocking variant holds the whole sector");
    assert!(
        streaming * 2 < blocking,
        "metadata-assisted ({streaming}) well below blocking ({blocking})"
    );
}

/// §3.3: composition buffering is ~one image for image-by-image
/// transmission vs ~one row for row-by-row.
#[test]
fn claim_composition_buffer_depends_on_organization() {
    let w = 48u32;
    let h = 48u32;
    let image = u64::from(w) * u64::from(h);
    let schema = StreamSchema::new("x", Crs::LatLon);

    let elements = |seed: u64| {
        let mut s = VecStream::<f32>::single_sector("x", lattice(w, h), 0, move |c, r| {
            f64::from(c * r) + seed as f64
        });
        s.drain_elements()
    };

    // Band-sequential (image-by-image downlink).
    let a = elements(1);
    let b = elements(2);
    let transport: Vec<(u8, Element<f32>)> =
        a.into_iter().map(|e| (0u8, e)).chain(b.into_iter().map(|e| (1u8, e))).collect();
    let (s0, s1) = split2(transport.into_iter(), schema.renamed("a"), schema.renamed("b"));
    let op = Compose::new(s0, s1, GammaOp::Add).unwrap();
    let (peak_image, out) = peak_of(op);
    assert_eq!(out, image);
    assert!(peak_image >= image - w as u64, "≈ whole image: {peak_image}");

    // Line-interleaved (row-by-row downlink).
    let a = elements(1);
    let b = elements(2);
    let mut transport = Vec::new();
    let rows = |els: Vec<Element<f32>>| {
        let mut out: Vec<Vec<Element<f32>>> = vec![Vec::new()];
        for el in els {
            let boundary = matches!(el, Element::FrameEnd(_));
            out.last_mut().unwrap().push(el);
            if boundary {
                out.push(Vec::new());
            }
        }
        out.retain(|g| !g.is_empty());
        out
    };
    for (x, y) in rows(a).into_iter().zip(rows(b)) {
        transport.extend(x.into_iter().map(|e| (0u8, e)));
        transport.extend(y.into_iter().map(|e| (1u8, e)));
    }
    let (s0, s1) = split2(transport.into_iter(), schema.renamed("a"), schema.renamed("b"));
    let op = Compose::new(s0, s1, GammaOp::Add).unwrap();
    let (peak_row, out) = peak_of(op);
    assert_eq!(out, image);
    assert!(peak_row <= 2 * u64::from(w), "row-by-row composition buffers ~a row: {peak_row}");
    assert!(peak_row * 8 < peak_image, "row ≪ image");
}

/// §3.3: "If incoming points are timestamped based on when the points
/// were measured, a stream composition operator would never produce new
/// image data."
#[test]
fn claim_measurement_timestamps_never_join() {
    let mk = |offset: i64| {
        let mut schema = StreamSchema::new("m", Crs::LatLon);
        schema.time_semantics = TimeSemantics::MeasurementTime;
        let els: Vec<Element<f32>> = {
            let mut s = VecStream::<f32>::single_sector("m", lattice(8, 8), 0, |c, _| f64::from(c));
            s.drain_elements()
                .into_iter()
                .map(|el| match el {
                    Element::FrameStart(mut fi) => {
                        fi.timestamp = Timestamp::new(fi.frame_id as i64 * 2 + offset);
                        Element::FrameStart(fi)
                    }
                    other => other,
                })
                .collect()
        };
        VecStream::new(schema, els)
    };
    let mut op = Compose::new(mk(0), mk(1), GammaOp::Add).unwrap();
    assert!(op.drain_points().is_empty());
    // Sector-id stamping (the practical fix the paper describes) joins.
    let mut op = Compose::new(
        VecStream::<f32>::single_sector("a", lattice(8, 8), 0, |c, _| f64::from(c)),
        VecStream::<f32>::single_sector("b", lattice(8, 8), 0, |c, _| f64::from(c)),
        GammaOp::Add,
    )
    .unwrap();
    assert_eq!(op.drain_points().len(), 64);
}

/// §6/[27]: the temporal aggregate's buffer is exactly W images.
#[test]
fn claim_temporal_aggregate_buffer_is_window() {
    for window in [2usize, 4, 8] {
        let op = TemporalAggregate::new(ramp(16, 16, 12), AggFunc::Mean, window);
        let (peak, _) = peak_of(op);
        assert_eq!(peak, (window as u64) * 256);
    }
}

/// The closure property (§3): any operator output feeds any operator.
#[test]
fn claim_algebra_is_closed() {
    // A deliberately deep chain mixing all operator classes.
    let s = ramp(32, 32, 2);
    let s = SpatialRestrict::new(s, Region::Rect(Rect::new(1.0, 1.0, 15.0, 15.0)));
    let s = Magnify::new(s, 2);
    let s = Downsample::new(s, 2);
    let s = StretchTransform::new(
        s,
        StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
        StretchScope::Image,
    );
    let t = ramp(32, 32, 2);
    let t = SpatialRestrict::new(t, Region::Rect(Rect::new(1.0, 1.0, 15.0, 15.0)));
    let t = Magnify::new(t, 2);
    let t = Downsample::new(t, 2);
    let t = StretchTransform::new(
        t,
        StretchMode::Linear { out_lo: 0.0, out_hi: 1.0 },
        StretchScope::Image,
    );
    let mut s = Compose::new(s, t, GammaOp::Sub).unwrap();
    let pts = s.drain_points();
    assert!(!pts.is_empty());
    // Identical inputs: every difference is exactly zero.
    assert!(pts.iter().all(|p| p.value == 0.0));
}
