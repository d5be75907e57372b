//! Per-thread kernel-path dispatch.
//!
//! Every layer has one route through the library: blocked GEMMs for
//! convolutions and FC layers, the direct kernels for depthwise and 1×1
//! convolutions. The one choice left is which register tiles those
//! kernels run: the thread's **tier cap** ([`set_kernel_path`]), one
//! [`SimdTier`] that every kernel decision reads (`active_tier() >= X`).
//! The scalar tiles run at [`SimdTier::None`]; each SIMD tier runs its
//! own tiles ([`crate::simd`]). All of them are bit-identical, so the cap
//! changes speed, never results.
//!
//! The cap is **thread-local**, defaulted from `UKERNELS_KERNEL_PATH`:
//! the `uexec` worker pools configure each worker once at spawn, and
//! `ci.sh` runs the kernel test targets once per tier the host has.
//!
//! A cap never exceeds the host's widest tier ([`crate::simd_tier`]): a
//! request above it runs the host's tier (callers that want to surface
//! that — e.g. `repro measure` — compare the request with
//! [`PathChoice::resolve`] and warn), and each SIMD body checks the
//! host's features again before it runs.

use std::cell::Cell;

use crate::simd::{simd_tier, SimdTier};

/// Every kernel-path name, the `--kernel-path` / `UKERNELS_KERNEL_PATH`
/// values: `auto`, then each [`SimdTier`]'s narrowest first (`scalar`
/// for [`SimdTier::None`]).
pub const KERNEL_PATHS: &[&str] = &["auto", "scalar", "avx2", "avx512", "avx512fp16"];

/// A *requested* kernel path, before runtime feature detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathChoice {
    /// The host's widest SIMD tier.
    #[default]
    Auto,
    /// At most this tier: the host's widest when it lacks this one.
    Cap(SimdTier),
}

impl PathChoice {
    /// Parses one of [`KERNEL_PATHS`]; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        std::iter::once(PathChoice::Auto)
            .chain(SimdTier::ALL.map(PathChoice::Cap))
            .find(|c| c.as_str() == s)
    }

    /// Stable lowercase name (inverse of [`PathChoice::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            PathChoice::Auto => KERNEL_PATHS[0],
            PathChoice::Cap(tier) => tier.as_str(),
        }
    }

    /// Reads `UKERNELS_KERNEL_PATH`; `Auto` when unset or invalid.
    pub fn from_env() -> Self {
        std::env::var("UKERNELS_KERNEL_PATH")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    /// The tier a thread capped by this choice runs: min(requested,
    /// host).
    pub fn resolve(self) -> SimdTier {
        match self {
            PathChoice::Auto => simd_tier(),
            PathChoice::Cap(tier) => tier.min(simd_tier()),
        }
    }
}

thread_local! {
    static CAP: Cell<SimdTier> = Cell::new(PathChoice::from_env().resolve());
}

/// Caps this thread's kernels at `tier` (at most the host's); returns
/// the previous cap.
pub fn set_kernel_path(tier: SimdTier) -> SimdTier {
    CAP.with(|c| c.replace(tier.min(simd_tier())))
}

/// The SIMD tier this thread's kernels run (default: the resolved
/// `UKERNELS_KERNEL_PATH`, else the host's widest).
pub(crate) fn active_tier() -> SimdTier {
    CAP.with(|c| c.get())
}

/// Every fast path this host can run, as `op/dtype/path` keys; `path`
/// is the kernel path ([`KERNEL_PATHS`]) whose cap first runs that body,
/// or, for the `utensor` converters no cap governs, their own name.
///
/// The equivalence harness (`tests/equivalence.rs`) runs each key under
/// its own cap and fails if any key returned here has no differential
/// test cell, so a new fast path cannot land without pinning itself to
/// the golden scalar reference.
pub fn registered_fast_paths() -> Vec<&'static str> {
    let mut paths = vec!["convert/quint8/table"];
    for tier in SimdTier::ALL.into_iter().filter(|&t| t <= simd_tier()) {
        paths.extend(match tier {
            SimdTier::None => &[
                "gemm/f32/scalar",
                "gemm/f16/scalar",
                "gemm/quint8/scalar",
                "depthwise/f32/scalar",
                "depthwise/f16/scalar",
                "depthwise/quint8/scalar",
                "pointwise/f32/scalar",
                "pointwise/f16/scalar",
                "pointwise/quint8/scalar",
                "pool/quint8/scalar",
            ][..],
            // Every tier above shares the f32 tile and the F16 row
            // epilogue; below the FP16 tier the F16 GEMM runs the scalar
            // tile.
            SimdTier::Avx2 => &[
                "gemm/f32/avx2",
                "gemm/quint8/avx2",
                "depthwise/f16/avx2",
                "depthwise/quint8/avx2",
                "pointwise/f32/avx2",
                "pointwise/quint8/avx2",
            ],
            SimdTier::Avx512 => &[
                "gemm/quint8/avx512",
                "depthwise/quint8/avx512",
                "pointwise/quint8/avx512",
                "pool/quint8/avx512",
            ],
            SimdTier::Avx512Fp16 => &[
                "gemm/f16/avx512fp16",
                "depthwise/f16/avx512fp16",
                "pointwise/f16/avx512fp16",
            ],
        });
    }
    if utensor::requantize_simd_available() {
        paths.push("requantize/quint8/simd");
    }
    if utensor::convert_simd_available() {
        paths.push("convert/to-quint8/simd");
        paths.push("convert/f16/simd");
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for &name in KERNEL_PATHS {
            let choice = PathChoice::parse(name).expect("a listed name parses");
            assert_eq!(choice.as_str(), name);
        }
        assert_eq!(PathChoice::parse("simd"), None);
        let names = SimdTier::ALL.map(SimdTier::as_str);
        assert_eq!(names, ["scalar", "avx2", "avx512", "avx512fp16"]);
    }

    /// `scalar` resolves to no SIMD tier on every host, and a thread
    /// capped there runs the scalar tiles.
    #[test]
    fn forced_scalar_always_resolves_scalar() {
        let scalar = PathChoice::parse("scalar").expect("scalar parses");
        assert_eq!(scalar.resolve(), SimdTier::None);
        let prev = set_kernel_path(scalar.resolve());
        assert_eq!(active_tier(), SimdTier::None);
        set_kernel_path(prev);
    }

    /// No request runs a tier the host lacks: every choice resolves to
    /// at most the host's tier, `auto` to exactly it, and a cap above
    /// the host runs the host's tier.
    #[test]
    fn simd_resolution_follows_detection() {
        for &name in KERNEL_PATHS {
            let choice = PathChoice::parse(name).expect("a listed name parses");
            assert!(choice.resolve() <= simd_tier(), "{name}");
            let prev = set_kernel_path(choice.resolve());
            assert_eq!(active_tier(), choice.resolve(), "{name}");
            set_kernel_path(prev);
        }
        assert_eq!(PathChoice::Auto.resolve(), simd_tier());
        let prev = set_kernel_path(SimdTier::Avx512Fp16);
        assert_eq!(active_tier(), simd_tier());
        set_kernel_path(prev);
    }

    #[test]
    fn flags_are_thread_local() {
        let prev = set_kernel_path(SimdTier::None);
        std::thread::spawn(|| {
            // Fresh threads re-read the environment default.
            assert_eq!(active_tier(), PathChoice::from_env().resolve());
        })
        .join()
        .unwrap();
        assert_eq!(active_tier(), SimdTier::None);
        set_kernel_path(prev);
    }

    #[test]
    fn scalar_gemm_paths_always_registered() {
        let paths = registered_fast_paths();
        for key in [
            "gemm/f32/scalar",
            "gemm/quint8/scalar",
            "depthwise/quint8/scalar",
            "pointwise/f16/scalar",
        ] {
            assert!(paths.contains(&key), "missing {key}");
        }
    }
}
