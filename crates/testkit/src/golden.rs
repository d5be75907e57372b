//! Golden-vector load/store/check for kernel regression tests.
//!
//! A golden file pins the exact output of a kernel on a fixed input so
//! refactors cannot silently change numerics. Values are stored as
//! `f32` bit patterns (hex) with a human-readable decimal alongside, so
//! `Exact` comparisons are bit-for-bit reproducible while diffs stay
//! reviewable.
//!
//! Workflow:
//!
//! 1. Write the test calling [`check_f32`] with a path under the
//!    crate's `tests/golden/`.
//! 2. Run once with `TESTKIT_BLESS=1` to create (or re-create) the
//!    file, then commit it.
//! 3. From then on the test compares against the committed bits; a
//!    mismatch prints a full error report and the blessing command.

use std::fmt::Write as _;
use std::path::Path;

use crate::assert::ErrorReport;

/// How strictly [`check_f32`] compares against the stored vector.
#[derive(Clone, Copy, Debug)]
pub enum GoldenMode {
    /// Bit-for-bit equality — right for integer-math (QUInt8) outputs.
    Exact,
    /// Absolute tolerance — right for float outputs that may legally
    /// differ across optimization levels.
    AbsTol(f32),
}

/// Checks `actual` against the golden vector at `path`.
///
/// With `TESTKIT_BLESS` set in the environment, rewrites the file from
/// `actual` instead and passes. `path` should be absolute; build it
/// with `concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/…")` so it
/// works from any working directory.
///
/// # Panics
///
/// Panics when the file is missing (with the blessing instructions),
/// malformed, or when the comparison fails.
#[track_caller]
pub fn check_f32(path: &str, actual: &[f32], mode: GoldenMode) {
    if std::env::var_os("TESTKIT_BLESS").is_some() {
        store_f32(path, actual);
        eprintln!("testkit: blessed {} ({} values)", path, actual.len());
        return;
    }
    let expected = match load_f32(path) {
        Some(v) => v,
        None => {
            panic!("golden file missing: {path}\n  generate it with: TESTKIT_BLESS=1 cargo test -q")
        }
    };
    assert_eq!(
        expected.len(),
        actual.len(),
        "golden {path}: length mismatch (expected {}, got {}); \
         re-bless with TESTKIT_BLESS=1 if the shape change is intended",
        expected.len(),
        actual.len()
    );
    let ok = match mode {
        GoldenMode::Exact => expected
            .iter()
            .zip(actual)
            .all(|(e, a)| e.to_bits() == a.to_bits()),
        GoldenMode::AbsTol(tol) => expected
            .iter()
            .zip(actual)
            .all(|(e, a)| (e - a).abs() <= tol),
    };
    if !ok {
        let report = ErrorReport::compare(&expected, actual);
        panic!(
            "golden mismatch: {path} ({mode:?})\n  {report}\n  \
             if the numeric change is intended, re-bless with TESTKIT_BLESS=1 and commit"
        );
    }
}

/// Reads a golden vector; `None` when the file does not exist.
///
/// # Panics
///
/// Panics on a malformed file.
pub(crate) fn load_f32(path: &str) -> Option<Vec<f32>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let token = line.split_whitespace().next().unwrap_or("");
        let bits = u32::from_str_radix(token, 16).unwrap_or_else(|_| {
            panic!(
                "golden {path}:{}: bad f32 bit pattern {token:?}",
                lineno + 1
            )
        });
        out.push(f32::from_bits(bits));
    }
    Some(out)
}

/// Writes a golden vector (creating parent directories as needed).
///
/// # Panics
///
/// Panics on IO errors — golden paths live inside the repo, so any
/// failure is a test-environment bug worth surfacing.
pub(crate) fn store_f32(path: &str, values: &[f32]) {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# testkit golden v1 — {} f32 values as IEEE-754 bit patterns (hex), decimal alongside",
        values.len()
    );
    for v in values {
        let _ = writeln!(text, "{:08x} # {v:?}", v.to_bits());
    }
    if let Some(parent) = Path::new(path).parent() {
        std::fs::create_dir_all(parent).expect("create golden dir");
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write golden {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("testkit-golden-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).display().to_string()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let path = tmp_path("roundtrip.txt");
        let values = [0.0f32, -0.0, 1.5, -3.25e-8, f32::MAX, 1.0 / 3.0];
        store_f32(&path, &values);
        let back = load_f32(&path).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        check_f32(&path, &values, GoldenMode::Exact);
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load_f32(&tmp_path("does-not-exist.txt")).is_none());
    }

    #[test]
    #[should_panic(expected = "golden mismatch")]
    fn mismatch_panics_with_report() {
        let path = tmp_path("mismatch.txt");
        store_f32(&path, &[1.0, 2.0]);
        check_f32(&path, &[1.0, 2.5], GoldenMode::Exact);
    }

    #[test]
    fn tolerance_mode_allows_slack() {
        let path = tmp_path("tol.txt");
        store_f32(&path, &[1.0, 2.0]);
        check_f32(&path, &[1.0 + 1e-4, 2.0 - 1e-4], GoldenMode::AbsTol(1e-3));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let path = tmp_path("comments.txt");
        std::fs::write(&path, "# header\n\n3f800000 # 1.0\n\n40000000 # 2.0\n").unwrap();
        assert_eq!(load_f32(&path).unwrap(), vec![1.0, 2.0]);
    }
}
