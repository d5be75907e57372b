//! Log-scale drift-factor quantization with hysteresis.
//!
//! Plan caching keys plans by "how wrong the cost model currently is" —
//! a set of multiplicative correction factors (one per device or per
//! device × work-class). Raw EWMA factors are continuous and jitter
//! every frame, so keying on them verbatim would make every frame a
//! cache miss. [`DriftKeyQuantizer`] maps each factor into a log-scale
//! bucket (`round(ln f / width)`) and adds **hysteresis**: once a key
//! settles in bucket `b`, it stays there until the factor leaves the
//! widened band `[(b − ½ − h)·width, (b + ½ + h)·width]` in ln-space.
//! Calm oscillation inside one band therefore produces one stable
//! bucket (no cache thrash), while a genuine drift regime change moves
//! the bucket exactly once.
//!
//! Bucket 0 (factors near 1.0 — the model is right) is dropped from the
//! canonical key so the calm state is the empty key regardless of how
//! many devices exist. The quantizer is stateful per tracked slot;
//! callers own one instance per planning session / fleet instance.

use std::collections::BTreeMap;

/// Stateful log-bucket quantizer over `u64`-identified factor slots.
#[derive(Clone, Debug)]
pub struct DriftKeyQuantizer {
    /// Bucket width in ln-space (0.25 ≈ buckets every ~28% of drift).
    width: f64,
    /// Extra band half-width, as a fraction of `width`, a settled
    /// bucket holds beyond its nominal edges.
    hysteresis: f64,
    /// Current bucket per observed slot, calm ones included, so
    /// hysteresis survives a return to calm.
    buckets: BTreeMap<u64, i32>,
}

impl Default for DriftKeyQuantizer {
    fn default() -> Self {
        DriftKeyQuantizer::new(0.25, 0.25)
    }
}

impl DriftKeyQuantizer {
    /// A quantizer with the given ln-space bucket `width` and
    /// `hysteresis` fraction (both must be positive; hysteresis below
    /// 0.5 keeps adjacent hold bands from swallowing each other's
    /// cores).
    pub fn new(width: f64, hysteresis: f64) -> DriftKeyQuantizer {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(
            (0.0..0.5).contains(&hysteresis),
            "hysteresis must be in [0, 0.5)"
        );
        DriftKeyQuantizer {
            width,
            hysteresis,
            buckets: BTreeMap::new(),
        }
    }

    /// Quantizes one slot's factor, applying hysteresis against the
    /// slot's previous bucket, and records the result. Returns the
    /// bucket.
    pub(crate) fn update(&mut self, slot: u64, factor: f64) -> i32 {
        let ln = factor.max(1e-12).ln();
        let target = (ln / self.width).round() as i32;
        let bucket = match self.buckets.get(&slot) {
            Some(&b) => {
                let lo = (b as f64 - 0.5 - self.hysteresis) * self.width;
                let hi = (b as f64 + 0.5 + self.hysteresis) * self.width;
                if ln >= lo && ln <= hi {
                    b
                } else {
                    target
                }
            }
            None => target,
        };
        self.buckets.insert(slot, bucket);
        bucket
    }

    /// Quantizes a whole factor snapshot and writes the canonical drift
    /// key into `key` (replacing its contents, keeping its buffer):
    /// `(slot, bucket)` pairs sorted by slot, with bucket-0 (calm) slots
    /// omitted. Slots absent from `factors` keep their hysteresis state
    /// but do not appear in the key.
    pub fn snapshot_key(
        &mut self,
        factors: impl IntoIterator<Item = (u64, f64)>,
        key: &mut Vec<(u64, i32)>,
    ) {
        key.clear();
        key.extend(
            factors
                .into_iter()
                .map(|(slot, f)| (slot, self.update(slot, f)))
                .filter(|&(_, b)| b != 0),
        );
        key.sort_unstable();
        key.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_factors_map_to_the_empty_key() {
        let mut q = DriftKeyQuantizer::default();
        let mut key = vec![(9, 9)];
        q.snapshot_key([(0, 1.0), (1, 1.02), (2, 0.97)], &mut key);
        assert!(key.is_empty(), "calm snapshot keyed {key:?}");
    }

    #[test]
    fn large_drift_lands_in_a_log_bucket() {
        let mut q = DriftKeyQuantizer::new(0.25, 0.25);
        // ln 2 ≈ 0.693 → bucket round(0.693 / 0.25) = 3.
        assert_eq!(q.update(7, 2.0), 3);
        // A lost device (1e6) sits deep in the positive buckets.
        assert!(q.update(8, 1e6) > 10);
        // Speedups go negative.
        assert!(q.update(9, 0.5) < 0);
    }

    #[test]
    fn hysteresis_holds_the_bucket_at_a_nominal_edge() {
        let mut q = DriftKeyQuantizer::new(0.25, 0.25);
        // Settle in bucket 1 (ln f = 0.25).
        assert_eq!(q.update(0, (0.25f64).exp()), 1);
        // Nominal bucket-1/2 edge is ln f = 0.375; with h = 0.25 the
        // hold band extends to 0.4375, so 0.40 stays in bucket 1 ...
        assert_eq!(q.update(0, (0.40f64).exp()), 1);
        // ... while a fresh quantizer would have flipped to bucket 2.
        let mut fresh = DriftKeyQuantizer::new(0.25, 0.25);
        assert_eq!(fresh.update(0, (0.40f64).exp()), 2);
        // Leaving the hold band re-targets from scratch.
        assert_eq!(q.update(0, (0.50f64).exp()), 2);
    }

    #[test]
    fn snapshot_key_is_sorted() {
        let mut q = DriftKeyQuantizer::default();
        let mut key = Vec::new();
        q.snapshot_key([(9, 3.0), (2, 2.0), (5, 1.0)], &mut key);
        assert_eq!(key.len(), 2);
        assert!(key.windows(2).all(|w| w[0].0 < w[1].0), "unsorted {key:?}");
    }

    #[test]
    fn invalid_params_are_rejected() {
        for (w, h) in [(0.0, 0.25), (-1.0, 0.25), (0.25, 0.5), (0.25, -0.1)] {
            assert!(
                std::panic::catch_unwind(|| DriftKeyQuantizer::new(w, h)).is_err(),
                "accepted width {w}, hysteresis {h}"
            );
        }
    }
}
