//! Declared blocking classes: the paper's §3 per-operator cost claims
//! as a first-class, ordered type.
//!
//! [`crate::query::analyze()`] derives each operator's class statically
//! from an expression tree, with the buffer bound its structures report,
//! so plans can be admitted or refused *before* the pipeline pulls its
//! first point (Aurora-style admission control).
//!
//! The variants are totally ordered from cheapest to most expensive:
//! `NonBlocking < BoundedRows(k) < BoundedFrame < Unbounded`. The
//! optimizer relies on this order to check that rewrites never worsen a
//! plan's blocking behavior.

use serde::{Deserialize, Serialize};

/// How much stream history an operator must buffer before it can emit.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum BlockingClass {
    /// O(1) per point, zero buffering (§3.1 restrictions, point-wise
    /// value transforms, orientation, magnification, shedding).
    #[default]
    NonBlocking,
    /// Buffers a bounded number of lattice rows (k× downsampling
    /// buffers k rows, a k×k focal operator k rows, a metadata-assisted
    /// re-projection a narrow row band — §3.2).
    BoundedRows(u32),
    /// Buffers on the order of a whole frame/image (frame-scoped
    /// stretches — "for GOES up to 20 840 × 10 820 points ≈ 280 MB",
    /// §3.2 — plus delay lines and sliding-window aggregates).
    BoundedFrame,
    /// No static bound exists: the operator may block arbitrarily
    /// (re-projection without scan-sector metadata, §3.2).
    Unbounded,
}

impl BlockingClass {
    /// The worse (more expensive) of two classes.
    #[must_use]
    pub fn worse(self, other: BlockingClass) -> BlockingClass {
        self.max(other)
    }

    /// True when a finite static buffer bound exists.
    pub fn is_bounded(self) -> bool {
        self != BlockingClass::Unbounded
    }
}

impl std::fmt::Display for BlockingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingClass::NonBlocking => write!(f, "non-blocking"),
            BlockingClass::BoundedRows(k) => write!(f, "bounded-rows({k})"),
            BlockingClass::BoundedFrame => write!(f, "bounded-frame"),
            BlockingClass::Unbounded => write!(f, "unbounded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_totally_ordered() {
        assert!(BlockingClass::NonBlocking < BlockingClass::BoundedRows(1));
        assert!(BlockingClass::BoundedRows(1) < BlockingClass::BoundedRows(8));
        assert!(BlockingClass::BoundedRows(u32::MAX) < BlockingClass::BoundedFrame);
        assert!(BlockingClass::BoundedFrame < BlockingClass::Unbounded);
        assert_eq!(
            BlockingClass::BoundedFrame.worse(BlockingClass::BoundedRows(3)),
            BlockingClass::BoundedFrame
        );
        assert!(BlockingClass::BoundedFrame.is_bounded());
        assert!(!BlockingClass::Unbounded.is_bounded());
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(BlockingClass::NonBlocking.to_string(), "non-blocking");
        assert_eq!(BlockingClass::BoundedRows(4).to_string(), "bounded-rows(4)");
        assert_eq!(BlockingClass::BoundedFrame.to_string(), "bounded-frame");
        assert_eq!(BlockingClass::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn serializes_round_trip() {
        let c = BlockingClass::BoundedRows(5);
        let json = serde_json::to_string(&c).unwrap();
        let back: BlockingClass = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
