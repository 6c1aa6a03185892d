//! Stream trace record/replay.
//!
//! Experiments must be repeatable against byte-identical inputs even
//! across machines; a [`Trace`] captures a stream's schema and element
//! sequence to JSON and replays it as a [`VecStream`].

use geostreams_core::model::{Element, GeoStream, StreamSchema, VecStream};
use serde::{Deserialize, Serialize};

/// A recorded stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Schema of the recorded stream.
    pub schema: StreamSchema,
    /// All recorded elements in order.
    pub elements: Vec<Element<f32>>,
}

impl Trace {
    /// Records a stream to completion.
    pub fn record<S: GeoStream<V = f32>>(stream: &mut S) -> Trace {
        Trace { schema: stream.schema().clone(), elements: stream.drain_elements() }
    }

    /// Serializes to JSON bytes.
    pub fn to_json(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("trace serializes")
    }

    /// Deserializes from JSON bytes.
    pub fn from_json(bytes: &[u8]) -> Result<Trace, String> {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }

    /// Replays the trace as a stream.
    pub fn replay(&self) -> VecStream<f32> {
        VecStream::new(self.schema.clone(), self.elements.clone())
    }

    /// Number of point elements recorded.
    pub fn point_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_point()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::EarthModel;
    use crate::goes::goes_like;

    #[test]
    fn record_replay_round_trip() {
        let sc = goes_like(16, 8, 5);
        let mut original = sc.band_stream(0, 2);
        let trace = Trace::record(&mut original);
        assert_eq!(trace.point_count(), 2 * 16 * 8);

        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back, trace);

        // Replay yields the identical element sequence.
        let mut replayed = back.replay();
        let mut fresh = sc.band_stream(0, 2);
        loop {
            let a = replayed.next_element();
            let b = fresh.next_element();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        let _ = EarthModel::new(0); // keep the import honest
    }

    #[test]
    fn corrupted_json_is_rejected() {
        assert!(Trace::from_json(b"{not json").is_err());
    }
}
