//! Seeded input generators. `--seed` decides the input tensor, the weight
//! seed, the drift-regime walk and the fleet seeds; the same seed gives the
//! same bytes on every run and every commit.

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64: small, fast, and good enough to decorrelate sub-streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `tag` of `seed`; different tags give
    /// independent streams of the same run.
    pub fn new(seed: u64, tag: &str) -> Rng {
        Rng(fnv1a(seed ^ 0x9E37_79B9_7F4A_7C15, tag.as_bytes()))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The weight seed of a run.
pub fn weight_seed(seed: u64) -> u64 {
    Rng::new(seed, "weights").next_u64()
}

/// `n` input activations in `[-1, 1)`.
pub fn input_values(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, "input");
    (0..n).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect()
}

/// The drift regimes of `replan_churn` sit on a grid of quantizer buckets:
/// CPU GEMM × GPU GEMM × GPU pointwise slowdowns. 48 regimes, more than
/// the 32 plans the program's cache holds.
pub const REGIME_GRID: [usize; 3] = [4, 4, 3];

/// Number of regimes on [`REGIME_GRID`].
pub const REGIMES: usize = REGIME_GRID[0] * REGIME_GRID[1] * REGIME_GRID[2];

/// Grid coordinates of regime `index`.
pub fn regime_coords(index: usize) -> [usize; 3] {
    [
        index / (REGIME_GRID[1] * REGIME_GRID[2]),
        index / REGIME_GRID[2] % REGIME_GRID[1],
        index % REGIME_GRID[2],
    ]
}

/// The regime visited by each of `ops` frames. Frozen walk: a frame keeps
/// its regime with probability 0.05, drifts one bucket along one axis with
/// probability 0.15 and jumps to a uniformly drawn regime otherwise. Under
/// a 32-entry LRU over 48 regimes that is ≈ 70% hits and ≈ 30% incremental
/// replans, the replans split between one-bucket moves (few layers
/// re-enumerated) and jumps (many).
pub fn regime_walk(seed: u64, ops: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, "regime-walk");
    let mut at = regime_coords(rng.below(REGIMES));
    (0..ops)
        .map(|_| {
            let u = rng.unit();
            if u >= 0.20 {
                at = regime_coords(rng.below(REGIMES));
            } else if u >= 0.05 {
                let axis = rng.below(3);
                let up = rng.below(2) == 1;
                at[axis] = if up {
                    (at[axis] + 1).min(REGIME_GRID[axis] - 1)
                } else {
                    at[axis].saturating_sub(1)
                };
            }
            ((at[0] * REGIME_GRID[1] + at[1]) * REGIME_GRID[2] + at[2]) as u8
        })
        .collect()
}

/// The fleet seed of op `op`: every op simulates a different fleet.
pub fn fleet_seed(seed: u64, op: usize) -> u64 {
    seed.wrapping_add(op as u64)
}
