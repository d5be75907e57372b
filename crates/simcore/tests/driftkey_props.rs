//! Flap-freedom properties of the drift-key quantizer.
//!
//! The plan cache's hit rate rests on one behavioral contract: EWMA
//! correction factors that oscillate *within* one hysteresis band must
//! map to one stable cache key (no thrash), and a factor that crosses a
//! band boundary must move the key **exactly once** — not once per
//! oscillation around the edge. These properties pin that contract
//! over randomized bucket positions, oscillation sequences, and
//! quantizer parameters.

use simcore::DriftKeyQuantizer;
use testkit::{prop_assert, props, Rng};

const WIDTH: f64 = 0.25;
const HYST: f64 = 0.25;

/// A factor whose ln sits at `offset` bucket-widths from bucket
/// `bucket`'s center.
fn factor_at(bucket: i32, offset: f64) -> f64 {
    ((bucket as f64 + offset) * WIDTH).exp()
}

/// `q`'s drift key for `factors`, in a fresh buffer.
fn key_of(q: &mut DriftKeyQuantizer, factors: &[(u64, f64)]) -> Vec<(u64, i32)> {
    let mut key = Vec::new();
    q.snapshot_key(factors.iter().copied(), &mut key);
    key
}

props! {
    #![cases(128)]

    /// Oscillation inside one hold band produces one key for the whole
    /// sequence: the first snapshot settles the bucket, every later
    /// snapshot reuses it.
    fn oscillation_within_a_band_is_one_key(
        bucket in -8i32..9,
        seed in 0u64..1_000_000,
        steps in 4usize..40
    ) {
        let mut q = DriftKeyQuantizer::new(WIDTH, HYST);
        let mut rng = Rng::seed_from_u64(seed);
        // Settle strictly inside the bucket core (|offset| < 0.5).
        let first = key_of(&mut q, &[(3, factor_at(bucket, 0.49 * (2.0 * rng.unit_f64() - 1.0)))]);
        for _ in 0..steps {
            // Wander anywhere inside the widened hold band
            // [-0.5 - h, 0.5 + h], including past the nominal edges.
            let offset = (0.5 + HYST) * 0.999 * (2.0 * rng.unit_f64() - 1.0);
            let key = key_of(&mut q, &[(3, factor_at(bucket, offset))]);
            prop_assert!(key == first,
                "bucket {} flapped at offset {}: {:?} vs {:?}", bucket, offset, key, first);
        }
    }

    /// Crossing out of the hold band moves the key exactly once; the
    /// new regime is then as stable as the old one was, even when the
    /// factor hovers just past the boundary it crossed.
    fn boundary_crossing_moves_the_key_exactly_once(
        bucket in -6i32..7,
        seed in 0u64..1_000_000,
        steps in 4usize..32
    ) {
        let mut q = DriftKeyQuantizer::new(WIDTH, HYST);
        let old = key_of(&mut q, &[(3, factor_at(bucket, 0.0))]);
        // Jump two buckets up: outside the hold band for `bucket`, so
        // the quantizer must re-target.
        let new = key_of(&mut q, &[(3, factor_at(bucket + 2, 0.0))]);
        prop_assert!(new != old, "crossing two buckets did not move the key");
        let mut rng = Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut changes = 0usize;
        let mut prev = new.clone();
        for _ in 0..steps {
            // Hover inside the NEW bucket's hold band — including the
            // side facing the old bucket, where a hysteresis-free
            // quantizer would flap back.
            let offset = (0.5 + HYST) * 0.999 * (2.0 * rng.unit_f64() - 1.0);
            let key = key_of(&mut q, &[(3, factor_at(bucket + 2, offset))]);
            if key != prev {
                changes += 1;
                prev = key;
            }
        }
        prop_assert!(changes == 0,
            "key changed {changes} more times after the single crossing");
    }

    /// A hysteresis-free quantizer DOES flap at a nominal edge — the
    /// witness that the property above is testing hysteresis and not
    /// just bucket coarseness.
    fn zero_hysteresis_flaps_at_the_edge(bucket in -6i32..7) {
        let mut q = DriftKeyQuantizer::new(WIDTH, 0.0);
        // Alternate just below / just above the bucket's upper edge.
        let below = key_of(&mut q, &[(3, factor_at(bucket, 0.49))]);
        let above = key_of(&mut q, &[(3, factor_at(bucket, 0.51))]);
        prop_assert!(below != above, "edge oscillation did not flap without hysteresis");
    }

    /// Multi-slot snapshots: each slot's hysteresis is independent; a
    /// regime change on one slot never perturbs another slot's bucket.
    fn slots_are_independent(
        bucket_a in -6i32..7,
        bucket_b in -6i32..7,
        seed in 0u64..1_000_000
    ) {
        let mut q = DriftKeyQuantizer::new(WIDTH, HYST);
        let mut rng = Rng::seed_from_u64(seed);
        let fa = factor_at(bucket_a, 0.3 * (2.0 * rng.unit_f64() - 1.0));
        let first = key_of(&mut q, &[(1, fa), (2, factor_at(bucket_b, 0.0))]);
        // Slot 2 jumps three buckets; slot 1 keeps oscillating calmly.
        let second = key_of(&mut q, &[
            (1, factor_at(bucket_a, 0.4 * (2.0 * rng.unit_f64() - 1.0))),
            (2, factor_at(bucket_b + 3, 0.0)),
        ]);
        let a_first: Vec<_> = first.iter().filter(|e| e.0 == 1).collect();
        let a_second: Vec<_> = second.iter().filter(|e| e.0 == 1).collect();
        prop_assert!(a_first == a_second, "slot 2's regime change moved slot 1's bucket");
    }
}
