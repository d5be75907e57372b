//! Numeric assertion helpers shared by the equivalence suites.
//!
//! The μLayer invariants come in two strengths: *bit-exact* (channel
//! split/merge under one dtype) and *within an error envelope* (QUInt8
//! or F16 vs the F32 reference). Exact comparisons use `bit_equal` on
//! tensors; envelope comparisons use the absolute-tolerance and ULP
//! helpers here, which produce per-tensor error reports instead of a
//! bare boolean so a failing suite says *where* and *how far off*.

/// Distance in units-in-the-last-place between two finite `f32`s.
///
/// Implemented via the standard monotone mapping from IEEE-754 bit
/// patterns to a signed number line, so the distance is well defined
/// across zero. NaNs are infinitely far from everything.
pub(crate) fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn monotone(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i64
    }
    monotone(a).abs_diff(monotone(b))
}

/// Summary of the element-wise difference between two slices.
#[derive(Clone, Debug)]
pub(crate) struct ErrorReport {
    /// Largest absolute difference.
    pub max_abs: f32,
    /// Index of the largest absolute difference.
    pub max_idx: usize,
    /// Mean absolute difference.
    pub mean_abs: f64,
    /// Largest ULP distance.
    pub max_ulp: u64,
    /// Number of elements compared.
    pub count: usize,
}

impl ErrorReport {
    /// Compares two equal-length slices element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ — that is a shape bug, not a
    /// numeric one, and should fail loudly.
    pub(crate) fn compare(a: &[f32], b: &[f32]) -> ErrorReport {
        assert_eq!(
            a.len(),
            b.len(),
            "ErrorReport::compare: length mismatch ({} vs {})",
            a.len(),
            b.len()
        );
        let mut report = ErrorReport {
            max_abs: 0.0,
            max_idx: 0,
            mean_abs: 0.0,
            max_ulp: 0,
            count: a.len(),
        };
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = (x - y).abs();
            if d > report.max_abs || d.is_nan() {
                report.max_abs = d;
                report.max_idx = i;
            }
            report.mean_abs += d as f64;
            report.max_ulp = report.max_ulp.max(ulp_diff(x, y));
        }
        if report.count > 0 {
            report.mean_abs /= report.count as f64;
        }
        report
    }
}

impl std::fmt::Display for ErrorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max |Δ| = {:.6e} at [{}], mean |Δ| = {:.6e}, max ULP = {}, n = {}",
            self.max_abs, self.max_idx, self.mean_abs, self.max_ulp, self.count
        )
    }
}

/// Asserts every element of `a` is within `tol` (absolute) of `b`.
///
/// # Panics
///
/// Panics with the full [`ErrorReport`] when the tolerance is exceeded
/// (or lengths differ).
#[track_caller]
#[cfg(test)]
pub(crate) fn assert_slice_close(a: &[f32], b: &[f32], tol: f32) {
    let report = ErrorReport::compare(a, b);
    assert!(
        report.max_abs <= tol && !report.max_abs.is_nan(),
        "slices differ beyond tol = {tol:e}: {report}"
    );
}

/// Asserts `a` and `b` are within `max_ulp` units-in-the-last-place.
///
/// # Panics
///
/// Panics when the ULP distance exceeds `max_ulp`.
#[track_caller]
#[cfg(test)]
pub(crate) fn assert_ulp_close(a: f32, b: f32, max_ulp: u64) {
    let d = ulp_diff(a, b);
    assert!(
        d <= max_ulp,
        "{a:?} vs {b:?}: {d} ULP apart (allowed {max_ulp})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_adjacent_floats_are_one_apart() {
        let x = 1.0f32;
        let next = f32::from_bits(x.to_bits() + 1);
        assert_eq!(ulp_diff(x, next), 1);
        assert_eq!(ulp_diff(x, x), 0);
    }

    #[test]
    fn ulp_spans_zero() {
        let pos = f32::from_bits(1); // smallest positive subnormal
        let neg = -pos;
        assert_eq!(ulp_diff(pos, neg), 2);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
    }

    #[test]
    fn ulp_nan_is_max() {
        assert_eq!(ulp_diff(f32::NAN, 1.0), u64::MAX);
    }

    #[test]
    fn report_finds_worst_element() {
        let a = [0.0f32, 1.0, 2.0, 3.0];
        let b = [0.0f32, 1.5, 2.0, 3.1];
        let r = ErrorReport::compare(&a, &b);
        assert_eq!(r.max_idx, 1);
        assert!((r.max_abs - 0.5).abs() < 1e-6);
        assert!((r.mean_abs - 0.15).abs() < 1e-6);
    }

    #[test]
    fn close_slices_pass() {
        assert_slice_close(&[1.0, 2.0], &[1.0 + 1e-7, 2.0 - 1e-7], 1e-6);
        assert_ulp_close(1.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "slices differ")]
    fn distant_slices_fail() {
        assert_slice_close(&[1.0], &[2.0], 0.5);
    }

    #[test]
    fn empty_slices_compare_clean() {
        let r = ErrorReport::compare(&[], &[]);
        assert_eq!(r.count, 0);
        assert_eq!(r.max_abs, 0.0);
    }
}
