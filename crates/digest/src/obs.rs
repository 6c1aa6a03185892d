//! `obs`: the traced chunked path delivers what the untraced one does.
//!
//! The same planner-built point-wise pipeline over the same
//! materialized ramp is drained untraced (plain `build`, default obs)
//! and traced (`build_traced` with a flight recorder chaining one span
//! per operator under a root `deliver` span, opened and closed around
//! the run the way the DSMS's evaluator does).
//! Both sides must deliver identical points and pixel hashes; the
//! digest is that count, that hash and the number of spans the flight
//! recorder captured. What tracing costs is geobench's
//! `trace.overhead_pct`.

use crate::{fnv1a, FNV_OFFSET};
use geostreams_core::exec::run_chunked;
use geostreams_core::model::{ChunkOrMarker, GeoStream, VecStream, DEFAULT_CHUNK_BUDGET};
use geostreams_core::obs::{FlightRecorder, PipelineObs, SpanOutcome};
use geostreams_core::query::{parse_query, Catalog, Plan, Planner};
use geostreams_geo::{Crs, LatticeGeoref, Rect};
use std::sync::Arc;

/// Drains `stream` through the chunked driver: points delivered and
/// the FNV of every delivered pixel.
fn drain<S: GeoStream<V = f32>>(mut stream: S, obs: &PipelineObs) -> (u64, u64) {
    let mut fnv = FNV_OFFSET;
    let report = run_chunked(&mut stream, obs, DEFAULT_CHUNK_BUDGET, |item| {
        if let ChunkOrMarker::Chunk(c) = item {
            for p in &c.points {
                fnv = fnv1a(&p.value.to_bits().to_le_bytes(), fnv);
            }
        }
    });
    (report.points_delivered, fnv)
}

/// The digest line for a `w` x `h` ramp of `sectors` sectors.
pub fn digest(w: u32, h: u32, sectors: u64) -> String {
    // A lat/lon lattice keeps the source free of projection math.
    let lattice = LatticeGeoref::north_up(Crs::LatLon, Rect::new(-124.0, 32.0, -114.0, 42.0), w, h);
    let mut ramp: VecStream<f32> = VecStream::sectors("ramp", lattice, sectors, |q, c, r| {
        f64::from(c) * 0.001 + f64::from(r) * 0.01 + q as f64 * 0.1
    })
    .with_value_range(0.0, 10.0);
    let schema = ramp.schema().clone();
    let elements = ramp.drain_elements();
    let mut catalog = Catalog::new();
    let replayed = schema.clone();
    catalog.register(schema, move || Box::new(VecStream::new(replayed.clone(), elements.clone())));
    let planner = Planner::new(&catalog);
    let plan = Plan::analyze(parse_query("scale(ramp, 2, 0)").expect("query parses"), &catalog);

    let untraced = planner.build(&plan).expect("query plans");
    let rec = Arc::new(FlightRecorder::for_query(1));
    let deliver_id = rec.alloc_span();
    let obs = PipelineObs::default().with_recorder(Arc::clone(&rec)).under(deliver_id);
    let traced = planner.build_traced(&plan, &obs).expect("query plans");

    let (points, fnv) = drain(untraced, &PipelineObs::default());
    let mut deliver = rec.begin_with_id(deliver_id, "deliver", 0);
    let delivered = drain(traced, &obs);
    deliver.add_points(delivered.0);
    deliver.finish(SpanOutcome::Ok);
    assert_eq!(delivered, (points, fnv), "tracing changed what was delivered");
    format!(
        "{{\"bench\":\"obs\",\"points\":{points},\"fnv\":\"{fnv:016x}\",\"spans\":{}}}",
        rec.len()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_operator_and_the_delivery_close_a_span() {
        // scale(ramp) plans as two wrapped operators plus the delivery
        // span; all of them must have closed into the ring.
        let line = super::digest(32, 32, 2);
        assert!(line.contains("\"points\":2048,"), "{line}");
        assert!(line.ends_with("\"spans\":3}"), "{line}");
        assert_eq!(line, super::digest(32, 32, 2));
    }
}
