//! Per-operator runtime statistics.
//!
//! The paper's evaluation of its operators is a space/time-complexity
//! analysis: restrictions are "non-blocking and have constant cost per
//! point" (§3.1), stretch transforms buffer "the largest frame that can
//! occur in G" (§3.2, the ≈280 MB GOES figure), and a composition "has to
//! buffer a complete image whereas for a row-by-row organization, it only
//! has to buffer a single row" (§3.3). [`OpStats`] makes those quantities
//! observable so the experiment suite can verify each claim.

use serde::{Deserialize, Serialize};

/// Counters maintained by every stream operator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Points consumed from the input stream(s).
    pub points_in: u64,
    /// Points emitted downstream.
    pub points_out: u64,
    /// Frames consumed.
    pub frames_in: u64,
    /// Frames emitted.
    pub frames_out: u64,
    /// Current number of buffered points (values held for future output).
    pub buffered_points: u64,
    /// High-water mark of [`buffered_points`](Self::buffered_points).
    pub buffered_points_peak: u64,
    /// Bytes the operator's structures have allocated: each buffering
    /// structure counts its own (capacity × element size), and the
    /// analyzer's bound asks the same structure.
    pub buffered_bytes: u64,
    /// High-water mark of [`buffered_bytes`](Self::buffered_bytes).
    pub buffered_bytes_peak: u64,
    /// Number of times the operator consumed an input element without
    /// being able to emit anything — the "blocking" behavior §3.2 warns
    /// about for spatial transforms.
    pub stalls: u64,
}

impl OpStats {
    /// Sets what the operator's structures hold now, as they report it:
    /// `points` buffered points in `bytes` allocated bytes; raises the
    /// peaks.
    #[inline]
    pub fn hold(&mut self, points: u64, bytes: u64) {
        (self.buffered_points, self.buffered_bytes) = (points, bytes);
        self.buffered_points_peak = self.buffered_points_peak.max(points);
        self.buffered_bytes_peak = self.buffered_bytes_peak.max(bytes);
    }

    /// Merges another operator's counters into this one (used when a
    /// macro operator aggregates its internal pipeline).
    pub fn merge(&mut self, other: &OpStats) {
        self.points_in += other.points_in;
        self.points_out += other.points_out;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.buffered_points_peak = self.buffered_points_peak.max(other.buffered_points_peak);
        self.buffered_bytes_peak = self.buffered_bytes_peak.max(other.buffered_bytes_peak);
        self.stalls += other.stalls;
    }

    /// Selectivity: fraction of input points that survived.
    pub fn selectivity(&self) -> f64 {
        if self.points_in == 0 {
            1.0
        } else {
            self.points_out as f64 / self.points_in as f64
        }
    }
}

/// The bytes `n` values of `T` occupy: what a buffer of capacity `n`
/// has allocated.
#[inline]
pub(crate) fn bytes_of<T>(n: usize) -> u64 {
    (n * std::mem::size_of::<T>()) as u64
}

/// A named snapshot of one operator's stats within a pipeline report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// Operator name (e.g. `restrict_space`, `reproject[geos->latlon]`).
    pub name: String,
    /// Counter snapshot.
    pub stats: OpStats,
    /// Per-element pull-latency histogram (nanoseconds), present when
    /// the operator ran wrapped in an
    /// [`obs::TracedStream`](crate::obs::TracedStream).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pull_latency: Option<crate::obs::HistogramSnapshot>,
    /// Per-frame latency histogram (nanoseconds, FrameStart→FrameEnd),
    /// present when traced.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub frame_latency: Option<crate::obs::HistogramSnapshot>,
}

impl OpReport {
    /// A report with counters only (no latency observations).
    pub fn new(name: impl Into<String>, stats: OpStats) -> Self {
        OpReport { name: name.into(), stats, pull_latency: None, frame_latency: None }
    }

    /// Median per-element pull latency in nanoseconds (0 if untraced).
    pub fn pull_p50_ns(&self) -> u64 {
        self.pull_latency.as_ref().map_or(0, |h| h.p50())
    }

    /// 95th-percentile pull latency in nanoseconds (0 if untraced).
    pub fn pull_p95_ns(&self) -> u64 {
        self.pull_latency.as_ref().map_or(0, |h| h.p95())
    }

    /// 99th-percentile pull latency in nanoseconds (0 if untraced).
    pub fn pull_p99_ns(&self) -> u64 {
        self.pull_latency.as_ref().map_or(0, |h| h.p99())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_sets_the_figures_and_raises_the_peaks() {
        let mut s = OpStats::default();
        s.hold(10, 40);
        s.hold(15, 60);
        s.hold(3, 100);
        assert_eq!((s.buffered_points, s.buffered_bytes), (3, 100));
        assert_eq!((s.buffered_points_peak, s.buffered_bytes_peak), (15, 100));
    }

    #[test]
    fn selectivity_defaults_to_one() {
        let s = OpStats::default();
        assert_eq!(s.selectivity(), 1.0);
        let s = OpStats { points_in: 100, points_out: 25, ..Default::default() };
        assert_eq!(s.selectivity(), 0.25);
    }

    #[test]
    fn merge_takes_peak_maxima() {
        let mut a = OpStats { buffered_points_peak: 5, points_in: 1, ..Default::default() };
        let b = OpStats { buffered_points_peak: 9, points_in: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.buffered_points_peak, 9);
        assert_eq!(a.points_in, 3);
    }
}
