//! The three data types of processor-friendly quantization.

use std::fmt;

/// Element type of a [`crate::Tensor`].
///
/// μLayer (§4) stores all tensors as [`DType::QUInt8`] in memory, computes
/// on the CPU in QUInt8, and computes on the GPU in [`DType::F16`] by
/// dequantizing loads on the fly. [`DType::F32`] is the unoptimized
/// baseline data type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DType {
    /// IEEE 754 binary32 — the NN default.
    F32,
    /// IEEE 754 binary16 (`half` in OpenCL) — the GPU fast path.
    F16,
    /// 8-bit asymmetric linearly-quantized unsigned integer — the CPU fast
    /// path (Jacob et al., gemmlowp).
    QUInt8,
}

impl DType {
    /// Size of one element in bytes (drives memory-traffic accounting).
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::QUInt8 => 1,
        }
    }

    /// All data types, in the order the paper's Figure 8 sweeps them.
    pub const ALL: [DType; 3] = [DType::F32, DType::F16, DType::QUInt8];

    /// True for the floating-point types.
    #[cfg(test)]
    pub(crate) const fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F16)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "F32",
            DType::F16 => "F16",
            DType::QUInt8 => "QUInt8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::QUInt8.size_bytes(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(DType::F32.to_string(), "F32");
        assert_eq!(DType::F16.to_string(), "F16");
        assert_eq!(DType::QUInt8.to_string(), "QUInt8");
    }

    #[test]
    fn float_classification() {
        assert!(DType::F32.is_float());
        assert!(DType::F16.is_float());
        assert!(!DType::QUInt8.is_float());
    }
}
