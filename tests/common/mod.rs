//! Shared by the integration suites: a deterministic PRNG and scratch
//! directories.
//!
//! The build environment has no crates.io access, so the former
//! proptest suites run as fixed-case loops over this SplitMix64
//! generator: same properties, reproducible inputs, zero dependencies.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// An absent directory under the system's temporary directory, unique
/// to this process and call; the caller removes it when done.
pub fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gs-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `lo..hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn chance(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Reference semantics of the operators whose per-point logic used to
/// live in a scalar arm of its own (the restrictions, the point-wise
/// value maps, load shedding), written over the flattened input element
/// sequence. The chunked operators are compared against these at every
/// pull budget.
pub mod reference {
    use geostreams::core::model::{Element, FrameInfo, TimeSet};
    use geostreams::core::ops::{ShedPolicy, ValueFunc};
    use geostreams::geo::Region;
    use geostreams::raster::Pixel;

    type Els = Vec<Element<f32>>;

    /// A frame whose `FrameStart` is withheld until its first surviving
    /// point; a frame nothing survives in is swallowed whole.
    #[derive(Default)]
    struct LazyFrame {
        pending: Option<FrameInfo>,
        open: bool,
    }

    impl LazyFrame {
        fn begin(&mut self, fi: Option<FrameInfo>) {
            self.pending = fi;
            self.open = false;
        }

        fn point(&mut self, out: &mut Els, el: Element<f32>) {
            if let Some(fi) = self.pending.take() {
                out.push(Element::FrameStart(fi));
                self.open = true;
            }
            out.push(el);
        }

        fn end(&mut self, out: &mut Els, el: Element<f32>) {
            if std::mem::take(&mut self.open) {
                out.push(el);
            }
            self.pending = None;
        }
    }

    /// `restrict_space`: a point survives when its cell is in the
    /// region's lattice footprint and, for a non-rectangular region, its
    /// cell centre is in the region.
    pub fn restrict_space(els: &[Element<f32>], region: &Region) -> Els {
        let (mut out, mut frame, mut lattice) = (Vec::new(), LazyFrame::default(), None);
        for el in els.iter().cloned() {
            match el {
                Element::SectorStart(ref si) => {
                    lattice = Some((si.lattice, si.lattice.footprint_of_region(region)));
                    out.push(el);
                }
                Element::FrameStart(mut fi) => {
                    let cells = lattice.and_then(|(_, fp)| fp?.intersect(&fi.cells));
                    frame.begin(cells.map(|c| {
                        fi.cells = c;
                        fi
                    }));
                }
                Element::Point(p) => {
                    let Some((lat, Some(fp))) = lattice else { continue };
                    let live = frame.pending.is_some() || frame.open;
                    let exact =
                        region.is_rectangular() || region.contains(lat.cell_to_world(p.cell));
                    if live && fp.contains(p.cell) && exact {
                        frame.point(&mut out, el);
                    }
                }
                Element::FrameEnd(_) => frame.end(&mut out, el),
                Element::SectorEnd(_) => out.push(el),
            }
        }
        out
    }

    /// `restrict_time`: whole frames pass or go by their timestamp.
    pub fn restrict_time(els: &[Element<f32>], times: &TimeSet) -> Els {
        let mut passing = false;
        let keep = |el: &&Element<f32>| match el {
            Element::FrameStart(fi) => {
                passing = times.contains(fi.timestamp);
                passing
            }
            Element::Point(_) => passing,
            Element::FrameEnd(_) => std::mem::take(&mut passing),
            _ => true,
        };
        els.iter().filter(keep).cloned().collect()
    }

    /// `restrict_value`: a point survives when its value is in one of
    /// the inclusive ranges.
    pub fn restrict_value(els: &[Element<f32>], ranges: &[(f64, f64)]) -> Els {
        let (mut out, mut frame) = (Vec::new(), LazyFrame::default());
        for el in els.iter().cloned() {
            match el {
                Element::FrameStart(fi) => frame.begin(Some(fi)),
                Element::Point(p) => {
                    let v = f64::from(p.value);
                    if ranges.iter().any(|&(lo, hi)| v >= lo && v <= hi) {
                        frame.point(&mut out, el);
                    }
                }
                Element::FrameEnd(_) => frame.end(&mut out, el),
                _ => out.push(el),
            }
        }
        out
    }

    /// `map_value`: `func` applied to every point value in `f64`.
    pub fn map_value(els: &[Element<f32>], func: ValueFunc) -> Els {
        els.iter()
            .cloned()
            .map(|el| el.map_value(|v| f32::from_f64(func.apply(v.to_f64()))))
            .collect()
    }

    /// `cast`: every point value converted through `f64`.
    pub fn cast<W: Pixel>(els: &[Element<f32>]) -> Vec<Element<W>> {
        els.iter().cloned().map(|el| el.map_value(|v| W::from_f64(v.to_f64()))).collect()
    }

    /// `shed`: every `stride`-th frame (`Rows`), or the points on the
    /// `stride` subgrid (`Points`).
    pub fn shed(els: &[Element<f32>], policy: ShedPolicy, stride: u32) -> Els {
        let (mut frames, mut keeping) = (0u64, true);
        let keep = |el: &&Element<f32>| match (el, policy) {
            (Element::FrameStart(_), ShedPolicy::Rows) => {
                keeping = frames.is_multiple_of(u64::from(stride));
                frames += 1;
                keeping
            }
            (Element::Point(_) | Element::FrameEnd(_), ShedPolicy::Rows) => keeping,
            (Element::Point(p), ShedPolicy::Points) => {
                p.cell.col % stride == 0 && p.cell.row % stride == 0
            }
            _ => true,
        };
        els.iter().filter(keep).cloned().collect()
    }
}
