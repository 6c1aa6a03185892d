//! Fixture for `scalar-pull`: element-at-a-time pulls of an input
//! stream versus the shapes that are the scalar protocol itself. Not
//! compiled — lexed by the engine tests.

/// Bad: a sink draining its input one element per virtual call.
pub fn bad_sink<S: GeoStream>(stream: &mut S) -> u64 {
    let mut n = 0;
    while let Some(_el) = stream.next_element() {
        n += 1;
    }
    n
}

/// Bad: an operator with only a scalar arm — the default `next_chunk`
/// adapter would run it in production.
impl<S: GeoStream> GeoStream for ScalarOnly<S> {
    type V = S::V;

    fn next_element(&mut self) -> Option<Element<S::V>> {
        let el = self.input.next_element()?;
        Some(self.transform(el))
    }
}

/// Bad: a helper of a chunked operator pulling scalar behind its back.
impl<S: GeoStream> Buffering<S> {
    fn bad_fill(&mut self) {
        if let Some(el) = self.input.next_element() {
            self.queue.push_back(el);
        }
    }
}

/// Good: the scalar arm of an operator that also has a chunk arm.
impl<S: GeoStream> GeoStream for Paired<S> {
    type V = S::V;

    fn next_element(&mut self) -> Option<Element<S::V>> {
        self.input.next_element().map(|el| self.transform(el))
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        self.input.next_chunk(budget).map(|item| self.transform_chunk(item))
    }
}

/// Good: a source serving markers through its own scalar state machine.
impl GeoStream for Source {
    type V = f32;

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let el = self.next_element()?;
        self.pack(el, budget)
    }
}

/// Good: the consumer reads through the chunk-staging cursor.
pub fn good_cursor<S: GeoStream>(stream: S) -> u64 {
    let mut input = ChunkInput::new(stream);
    let mut n = 0;
    while let Some(_el) = input.pull() {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_drains_scalar() {
        let mut s = source();
        while s.next_element().is_some() {}
    }
}
