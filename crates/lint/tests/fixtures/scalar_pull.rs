//! Fixture for `scalar-pull`: element-at-a-time pulls in library code
//! versus reading through chunks. Not compiled — lexed by the engine
//! tests.

/// Bad: a sink draining its input one element per virtual call.
pub fn bad_sink<S: GeoStream>(stream: &mut S) -> u64 {
    let mut n = 0;
    while let Some(_el) = stream.next_element() {
        n += 1;
    }
    n
}

/// Bad: a helper of a chunked operator pulling one element behind its back.
impl<S: GeoStream> Buffering<S> {
    fn bad_fill(&mut self) {
        if let Some(el) = self.input.next_element() {
            self.queue.push_back(el);
        }
    }
}

/// Bad: a stream pulling itself one element at a time recurses through
/// `next_chunk(1)`.
impl GeoStream for Source {
    type V = f32;

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        let el = self.next_element()?;
        self.pack(el, budget)
    }
}

/// Good: the consumer reads through the chunk-staging cursor, and its
/// per-element step is packed into runs.
impl<S: GeoStream> GeoStream for Cursor<S> {
    type V = S::V;

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<S::V>> {
        pack_elements(budget, || self.input.pull())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_drains_one_by_one() {
        let mut s = source();
        while s.next_element().is_some() {}
    }
}
