//! Fixture for `element-packing`: a stream packing a per-element state
//! machine or an element queue versus one writing whole runs. Not
//! compiled — lexed by the engine tests under operator, store and
//! simulator paths.

/// Bad: the output of a per-element step packed one element at a time.
impl<S: GeoStream> GeoStream for Buffering<S> {
    type V = S::V;

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        pack_elements(budget, || self.step())
    }
}

/// Bad: a helper packing a queue of elements.
fn bad_drain_queue(queue: &mut VecDeque<Element<f32>>) -> Option<ChunkOrMarker<f32>> {
    model::pack_elements(64, || queue.pop_front())
}

/// Bad: a source's queue of elements (fault injection, repair, replay)
/// packed into runs at the pull.
pub fn pack_queue<V: Pixel>(
    queue: &mut VecDeque<Element<V>>,
    budget: usize,
) -> Option<ChunkOrMarker<V>> {
    pack_elements(budget, || queue.pop_front())
}

/// Good: input runs in, output runs out through the run queue.
impl<S: GeoStream> GeoStream for RunNative<S> {
    type V = S::V;

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        while !self.queue.ready(budget) {
            let Some(item) = self.input.next_chunk(DEFAULT_CHUNK_BUDGET) else { break };
            self.ingest_item(item);
        }
        self.queue.pop(budget)
    }
}

/// Good: naming the function is not calling it.
use crate::model::pack_elements;

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_packs_one_by_one() {
        let _ = pack_elements(1, || None::<Element<f32>>);
    }
}
