//! Per-thread kernel-path dispatch.
//!
//! Every layer has one route through the library: blocked GEMMs for
//! convolutions and FC layers, the direct kernels for depthwise and 1×1
//! convolutions. The one choice left is which register tiles those
//! kernels run ([`set_kernel_path`]): the portable scalar tiles, or the
//! SIMD tiles of the host's widest tier ([`crate::simd`]). Both are
//! bit-identical, so the choice changes speed, never results.
//!
//! The choice is **thread-local**, defaulted from `UKERNELS_KERNEL_PATH`:
//! the `uexec` worker pools configure each worker once at spawn, and
//! `ci.sh` forces every thread of a test run onto the scalar tiles in
//! its first kernel-path pass.
//!
//! The resolved path ([`active_kernel_path`]) never yields
//! [`KernelPath::Simd`] on a host without the required CPU features:
//! forcing `Simd` there silently degrades to `Scalar` (callers that want
//! to surface the degradation — e.g. `repro measure` — compare the
//! resolved path against the request and warn).

use std::cell::Cell;

use crate::simd::{self, SimdTier};

/// The resolved inner-kernel implementation a thread is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar register tiles (the PR 5 blocked kernels).
    Scalar,
    /// The register tiles of the widest SIMD tier the host has
    /// ([`crate::simd_tier`]: AVX512-FP16, else AVX-512, else AVX2).
    Simd,
}

impl KernelPath {
    /// Stable lowercase name, used in reports and measurement documents.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Simd => "simd",
        }
    }
}

/// A *requested* kernel path, before runtime feature detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathChoice {
    /// The host's widest SIMD tier when it has one, scalar otherwise.
    #[default]
    Auto,
    /// Always the scalar tiles, even on SIMD-capable hosts.
    Scalar,
    /// Request the widest SIMD tier; degrades to scalar when the host
    /// has none.
    Simd,
}

impl PathChoice {
    /// Parses `"auto"` / `"scalar"` / `"simd"` (the `--kernel-path`
    /// flag values). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(PathChoice::Auto),
            "scalar" => Some(PathChoice::Scalar),
            "simd" => Some(PathChoice::Simd),
            _ => None,
        }
    }

    /// Stable lowercase name (inverse of [`PathChoice::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            PathChoice::Auto => "auto",
            PathChoice::Scalar => "scalar",
            PathChoice::Simd => "simd",
        }
    }

    /// Reads `UKERNELS_KERNEL_PATH` (`auto` | `scalar` | `simd`);
    /// `Auto` when unset or invalid. This is how `ci.sh` forces the
    /// whole test suite through the scalar tiles in its first pass.
    pub fn from_env() -> Self {
        std::env::var("UKERNELS_KERNEL_PATH")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or_default()
    }

    /// Resolves this choice against runtime CPU detection — the path a
    /// worker thread configured with this choice will actually run.
    pub fn resolve(self) -> KernelPath {
        match self {
            PathChoice::Scalar => KernelPath::Scalar,
            PathChoice::Auto | PathChoice::Simd => {
                if simd::simd_available() {
                    KernelPath::Simd
                } else {
                    KernelPath::Scalar
                }
            }
        }
    }
}

thread_local! {
    static PATH: Cell<PathChoice> = Cell::new(PathChoice::from_env());
}

/// Sets this thread's kernel-path choice; returns the previous one.
pub fn set_kernel_path(choice: PathChoice) -> PathChoice {
    PATH.with(|c| c.replace(choice))
}

/// This thread's requested kernel path (default: `UKERNELS_KERNEL_PATH`
/// env, else `Auto`).
pub fn kernel_path_choice() -> PathChoice {
    PATH.with(|c| c.get())
}

/// Resolves this thread's choice against runtime CPU detection.
pub fn active_kernel_path() -> KernelPath {
    kernel_path_choice().resolve()
}

/// The SIMD tier this thread's kernels run: the host's widest on the
/// SIMD path, [`SimdTier::None`] on the scalar one.
pub(crate) fn active_tier() -> SimdTier {
    match active_kernel_path() {
        KernelPath::Simd => simd::simd_tier(),
        KernelPath::Scalar => SimdTier::None,
    }
}

/// Every fast path registered on this host, as `op/dtype/impl` keys.
///
/// The equivalence harness (`tests/equivalence.rs`) fails if any key
/// returned here has no differential test cell, so a new fast path
/// cannot land without pinning itself to the golden scalar reference.
pub fn registered_fast_paths() -> Vec<&'static str> {
    let mut paths = vec![
        "gemm/f32/blocked-scalar",
        "gemm/f16/blocked-scalar",
        "gemm/quint8/blocked-scalar",
        "depthwise/f32/direct",
        "depthwise/f16/direct",
        "depthwise/quint8/plane",
        "pointwise/f32/direct",
        "pointwise/f16/direct",
        "pointwise/quint8/direct",
        "pool/quint8/rowwise",
        "convert/quint8/table",
    ];
    // The GEMM keys name the tiles a GEMM on this host actually runs;
    // every tier shares the AVX2 f32 tile, and below the FP16 tier the
    // F16 GEMM runs the scalar tile.
    paths.extend(match simd::simd_tier() {
        SimdTier::Avx512Fp16 => &[
            "gemm/f32/blocked-simd",
            "gemm/f16/avx512fp16",
            "gemm/quint8/avx512-vnni",
            "depthwise/f16/avx512fp16",
        ][..],
        SimdTier::Avx512 => &["gemm/f32/blocked-simd", "gemm/quint8/avx512-vnni"],
        SimdTier::Avx2 => &["gemm/f32/blocked-simd", "gemm/quint8/blocked-simd"],
        SimdTier::None => &[],
    });
    if utensor::quant::requantize_simd_available() {
        paths.push("requantize/quint8/simd");
    }
    if utensor::convert::simd_available() {
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
        for choice in [PathChoice::Auto, PathChoice::Scalar, PathChoice::Simd] {
            assert_eq!(PathChoice::parse(choice.as_str()), Some(choice));
        }
        assert_eq!(PathChoice::parse("avx2"), None);
    }

    #[test]
    fn forced_scalar_always_resolves_scalar() {
        let prev = set_kernel_path(PathChoice::Scalar);
        assert_eq!(active_kernel_path(), KernelPath::Scalar);
        set_kernel_path(prev);
    }

    #[test]
    fn simd_resolution_follows_detection() {
        let prev = set_kernel_path(PathChoice::Simd);
        let resolved = active_kernel_path();
        if simd::simd_available() {
            assert_eq!(resolved, KernelPath::Simd);
        } else {
            assert_eq!(resolved, KernelPath::Scalar);
        }
        set_kernel_path(prev);
    }

    #[test]
    fn flags_are_thread_local() {
        let prev_path = set_kernel_path(PathChoice::Scalar);
        std::thread::spawn(|| {
            // Fresh threads re-read the environment default.
            assert_eq!(kernel_path_choice(), PathChoice::from_env());
        })
        .join()
        .unwrap();
        assert_eq!(kernel_path_choice(), PathChoice::Scalar);
        set_kernel_path(prev_path);
    }

    #[test]
    fn scalar_gemm_paths_always_registered() {
        let paths = registered_fast_paths();
        for key in [
            "gemm/f32/blocked-scalar",
            "gemm/quint8/blocked-scalar",
            "depthwise/quint8/plane",
            "pointwise/f16/direct",
        ] {
            assert!(paths.contains(&key), "missing {key}");
        }
    }
}
