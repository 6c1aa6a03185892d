//! Seeded 2-D value noise with fractional Brownian motion.
//!
//! A tiny, dependency-free procedural noise generator: lattice hashes of
//! the integer cell corners, smoothly interpolated, summed over octaves.
//! Deterministic in `(seed, x, y)` so every experiment is reproducible.

/// Hashes an integer lattice point with a seed into `[0, 1)`.
#[inline]
fn lattice_hash(seed: u64, ix: i64, iy: i64) -> f64 {
    // SplitMix64-style avalanche over the packed coordinates.
    let mut z = seed
        ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (iy as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Quintic smoothstep (C² continuous, Perlin's fade curve).
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// Single-octave value noise at `(x, y)`, output in `[0, 1)`.
pub fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let tx = fade(x - x0);
    let ty = fade(y - y0);
    let (ix, iy) = (x0 as i64, y0 as i64);
    let v00 = lattice_hash(seed, ix, iy);
    let v10 = lattice_hash(seed, ix + 1, iy);
    let v01 = lattice_hash(seed, ix, iy + 1);
    let v11 = lattice_hash(seed, ix + 1, iy + 1);
    let top = v00 + (v10 - v00) * tx;
    let bot = v01 + (v11 - v01) * tx;
    top + (bot - top) * ty
}

/// Fractional Brownian motion: `octaves` octaves of value noise with
/// per-octave frequency doubling and amplitude halving. Output ≈ `[0, 1]`.
pub fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
    let mut total = 0.0;
    let mut amplitude = 0.5;
    let mut fx = x;
    let mut fy = y;
    let mut norm = 0.0;
    for octave in 0..octaves.max(1) {
        total += amplitude * value_noise(seed.wrapping_add(u64::from(octave) * 0x51F3), fx, fy);
        norm += amplitude;
        amplitude *= 0.5;
        fx *= 2.0;
        fy *= 2.0;
    }
    total / norm
}

/// `(x.floor(), x.floor() as i64)` without the libm call: truncate,
/// then step down where truncation rounded up (`copysign` keeps
/// `floor(-0.0) = -0.0`). Exact wherever the cast is (`|x| < 2^52`
/// leaves room for the `- 1`); anything else, NaN included, takes
/// `floor` itself.
#[inline]
fn floor_split(x: f64) -> (f64, i64) {
    if x.abs() < 4.5e15 {
        let i = x as i64;
        let f = i as f64;
        if f > x {
            (f - 1.0, i - 1)
        } else {
            (f.copysign(x), i)
        }
    } else {
        let f = x.floor();
        (f, f as i64)
    }
}

/// The four corner hashes of one noise cell of one octave.
#[derive(Debug, Clone, Copy)]
struct CellCorners {
    /// The octave's seed.
    seed: u64,
    ix: i64,
    iy: i64,
    v00: f64,
    v10: f64,
    v01: f64,
    v11: f64,
}

impl CellCorners {
    fn at(seed: u64, ix: i64, iy: i64) -> Self {
        CellCorners {
            seed,
            ix,
            iy,
            v00: lattice_hash(seed, ix, iy),
            v10: lattice_hash(seed, ix + 1, iy),
            v01: lattice_hash(seed, ix, iy + 1),
            v11: lattice_hash(seed, ix + 1, iy + 1),
        }
    }
}

/// [`fbm`] for a caller that samples along a path: the corner hashes of
/// the noise cell the previous sample fell in are kept per octave and
/// reused while the next one stays in it — some twenty consecutive
/// pixels of a scan line at every octave the Earth model uses. Memory
/// is one cell per octave whatever the size of the image, and
/// [`sample`](Self::sample) returns [`fbm`]'s value bit for bit.
#[derive(Debug, Clone)]
pub struct FbmCursor {
    /// One memoised cell per octave.
    cells: Vec<CellCorners>,
}

impl FbmCursor {
    /// A cursor over `fbm(seed, ·, ·, octaves)`.
    pub fn new(seed: u64, octaves: u32) -> Self {
        let cells = (0..octaves.max(1))
            .map(|o| CellCorners::at(seed.wrapping_add(u64::from(o) * 0x51F3), 0, 0))
            .collect();
        FbmCursor { cells }
    }

    /// `fbm(seed, x, y, octaves)`.
    pub fn sample(&mut self, x: f64, y: f64) -> f64 {
        let mut total = 0.0;
        let mut amplitude = 0.5;
        let mut fx = x;
        let mut fy = y;
        let mut norm = 0.0;
        for cell in &mut self.cells {
            let (x0, ix) = floor_split(fx);
            let (y0, iy) = floor_split(fy);
            if (cell.ix, cell.iy) != (ix, iy) {
                *cell = CellCorners::at(cell.seed, ix, iy);
            }
            let tx = fade(fx - x0);
            let ty = fade(fy - y0);
            let top = cell.v00 + (cell.v10 - cell.v00) * tx;
            let bot = cell.v01 + (cell.v11 - cell.v01) * tx;
            total += amplitude * (top + (bot - top) * ty);
            norm += amplitude;
            amplitude *= 0.5;
            fx *= 2.0;
            fy *= 2.0;
        }
        total / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed_and_position() {
        assert_eq!(value_noise(42, 1.5, 2.5), value_noise(42, 1.5, 2.5));
        assert_ne!(value_noise(42, 1.5, 2.5), value_noise(43, 1.5, 2.5));
        assert_ne!(value_noise(42, 1.5, 2.5), value_noise(42, 1.6, 2.5));
    }

    #[test]
    fn output_in_unit_interval() {
        for i in 0..200 {
            let x = (i as f64) * 0.37 - 30.0;
            let y = (i as f64) * 0.73 + 11.0;
            let v = value_noise(7, x, y);
            assert!((0.0..=1.0).contains(&v), "{v} at ({x},{y})");
            let f = fbm(7, x, y, 4);
            assert!((0.0..=1.0).contains(&f), "fbm {f} at ({x},{y})");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // Tiny steps produce tiny value changes.
        let a = value_noise(1, 10.0, 10.0);
        let b = value_noise(1, 10.0 + 1e-6, 10.0);
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn noise_matches_lattice_at_integers() {
        // At integer coordinates, noise equals the corner hash.
        let v = value_noise(5, 3.0, 4.0);
        assert_eq!(v, lattice_hash(5, 3, 4));
    }

    #[test]
    fn one_octave_fbm_is_plain_value_noise() {
        for i in 0..50 {
            let x = i as f64 * 0.31;
            let y = i as f64 * 0.17;
            assert_eq!(fbm(9, x, y, 1), value_noise(9, x, y));
        }
    }

    #[test]
    fn fbm_has_more_detail_than_single_octave() {
        // Energy of small-step increments grows with octave count
        // (higher octaves contribute amplitude × frequency ≈ constant
        // per octave). Use a large sample for statistical stability.
        let var = |oct: u32| {
            let mut acc = 0.0;
            for i in 0..4000 {
                let x = i as f64 * 0.11;
                let y = (i % 37) as f64 * 0.29;
                let d = fbm(9, x + 0.03, y, oct) - fbm(9, x, y, oct);
                acc += d * d;
            }
            acc
        };
        assert!(var(6) > 1.1 * var(1), "var6={} var1={}", var(6), var(1));
    }

    #[test]
    fn negative_coordinates_work() {
        let v = value_noise(3, -10.25, -0.5);
        assert!((0.0..=1.0).contains(&v));
    }

    /// A small deterministic generator for the walks below.
    fn next_unit(state: &mut u64) -> f64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn floor_split_is_floor() {
        let mut cases =
            vec![0.0, -0.0, 0.5, -0.5, 1.0, -1.0, -1.0000000000000002, 2.9999999999999996];
        cases.extend([4.4e15, -4.4e15, 4.6e15, -4.6e15, 1e300, -1e300, f64::INFINITY, f64::NAN]);
        let mut rng = 9u64;
        cases.extend((0..2000).map(|_| (next_unit(&mut rng) - 0.5) * 1e4));
        for x in cases {
            let (f, i) = floor_split(x);
            assert_eq!(f.to_bits(), x.floor().to_bits(), "{x}");
            assert_eq!(i, x.floor() as i64, "{x}");
        }
    }

    #[test]
    fn cursor_equals_fbm_bit_for_bit() {
        for (seed, octaves) in [(7u64, 1u32), (42, 3), (20_060_330, 5), (1, 0)] {
            let mut cursor = FbmCursor::new(seed, octaves);
            let mut rng = seed ^ 0xABCD;
            // A random walk across both signs, with steps from a
            // fraction of a noise cell (memo hits) to several cells.
            let (mut x, mut y) = (-3.7, 2.2);
            for step in 0..20_000 {
                let scale = if step % 97 == 0 { 5.0 } else { 0.04 };
                x += (next_unit(&mut rng) - 0.5) * scale;
                y += (next_unit(&mut rng) - 0.5) * scale;
                assert_eq!(
                    cursor.sample(x, y).to_bits(),
                    fbm(seed, x, y, octaves).to_bits(),
                    "seed {seed} octaves {octaves} at ({x}, {y})"
                );
            }
            // A scan line that lands exactly on cell boundaries of
            // every octave, crossing zero.
            for i in -64..=64 {
                let x = f64::from(i) * 0.125;
                for y in [-1.0, -0.0, 0.0, 0.5] {
                    assert_eq!(cursor.sample(x, y).to_bits(), fbm(seed, x, y, octaves).to_bits());
                }
            }
        }
    }
}
