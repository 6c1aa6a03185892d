//! Sampled pull-timing: the clock discipline behind geolint's
//! `instant-in-chunk-loop` rule.
//!
//! Taking an `Instant` pair around every chunk pull costs two clock
//! reads per item and — worse, under the morsel driver — lets worker
//! and driver clock reads double-count the same wall interval. The
//! [`SampledClock`] reads the clock on every [`PULL_SAMPLE_EVERY`]th
//! pull only, charges the intervening pulls at the last measured
//! per-element cost, and keeps the histogram element-denominated
//! (`pull_latency.count == elements`). The drivers time root pulls
//! with it and [`TracedStream`](crate::obs::TracedStream) times each
//! operator's.

use std::time::Instant;

use super::hist::Histogram;

/// Sample every Nth pull (power of two, so the phase check is a mask).
pub const PULL_SAMPLE_EVERY: u64 = 16;

/// A sampling pull timer. One per driver (or per worker): the state is
/// deliberately not shared, so concurrent workers each measure their
/// own pulls and no interval is counted twice.
#[derive(Debug, Default)]
pub struct SampledClock {
    seq: u64,
    /// Elements pulled since the last sampled measurement.
    unsampled_elements: u64,
    /// Per-element cost of the last sampled pull (charged to unsampled
    /// pulls and to the end-of-stream flush).
    last_unit_ns: u64,
}

impl SampledClock {
    /// A fresh clock; its first pull is always sampled.
    pub fn new() -> Self {
        SampledClock::default()
    }

    /// Starts timing one pull: returns `Some(start)` on sampled pulls,
    /// `None` on the rest (no clock read at all).
    pub fn begin(&mut self) -> Option<Instant> {
        let sampled = self.seq & (PULL_SAMPLE_EVERY - 1) == 0;
        self.seq = self.seq.wrapping_add(1);
        if sampled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes one pull of `n` elements. Sampled pulls measure and
    /// record the accumulated unsampled backlog at the fresh unit cost;
    /// unsampled pulls just grow the backlog.
    pub fn end(&mut self, started: Option<Instant>, n: u64, hist: &Histogram) {
        match started {
            Some(t0) => {
                let dt = t0.elapsed().as_nanos() as u64;
                let unit = dt / n.max(1);
                self.last_unit_ns = unit;
                hist.record_n(unit, n + self.unsampled_elements);
                self.unsampled_elements = 0;
            }
            None => self.unsampled_elements += n,
        }
    }

    /// Flushes the unsampled backlog at the last measured unit cost
    /// (call once at end of stream so `count` equals elements).
    pub fn flush(&mut self, hist: &Histogram) {
        if self.unsampled_elements > 0 {
            hist.record_n(self.last_unit_ns, self.unsampled_elements);
            self.unsampled_elements = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_count_stays_element_denominated() {
        let hist = Histogram::new();
        let mut clock = SampledClock::new();
        let mut elements = 0u64;
        for i in 0..100u64 {
            let n = (i % 7) + 1;
            let t0 = clock.begin();
            elements += n;
            clock.end(t0, n, &hist);
        }
        clock.flush(&hist);
        assert_eq!(hist.snapshot().count, elements);
    }

    #[test]
    fn only_every_sixteenth_pull_reads_the_clock() {
        let mut clock = SampledClock::new();
        let mut sampled = 0;
        for _ in 0..64 {
            if clock.begin().is_some() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 64 / PULL_SAMPLE_EVERY as usize);
    }

    #[test]
    fn flush_without_backlog_is_a_no_op() {
        let hist = Histogram::new();
        let mut clock = SampledClock::new();
        let t0 = clock.begin();
        clock.end(t0, 4, &hist);
        clock.flush(&hist);
        assert_eq!(hist.snapshot().count, 4);
    }
}
