//! Kernel work descriptors: what a scheduled kernel costs.
//!
//! A [`KernelWork`] summarizes one kernel invocation for the timing and
//! energy models: arithmetic volume (MACs), memory traffic (activation,
//! weight, and output bytes at their *storage* dtypes), and the *compute*
//! dtype. Separating storage from compute dtype is what lets the model
//! express processor-friendly quantization's GPU path (§4.2): tensors
//! stored as QUInt8 (1 byte moved per element) while arithmetic runs at
//! the F16 rate.

use utensor::{DType, Shape};

use unn::LayerKind;

/// Coarse kernel class, used to modulate achievable utilization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkClass {
    /// Dense GEMM-shaped work (conv via im2col, FC).
    Gemm,
    /// 1×1 stride-1 convolution: GEMM-shaped but served by the direct
    /// (im2col-free) kernel path, so it carries no packing overhead and
    /// fits a different latency law than general conv.
    Pointwise,
    /// Depthwise convolution (little data reuse).
    Depthwise,
    /// Pooling windows.
    Pool,
    /// Elementwise / activation / softmax.
    Elementwise,
    /// Normalization (LRN).
    Norm,
    /// Pure data movement (concat, map/unmap copies).
    Copy,
}

impl WorkClass {
    /// Every class in canonical order — the iteration order drift
    /// snapshots and plan-cache keys use, so two independently built
    /// snapshots of the same state serialize identically. It is the
    /// declaration order, so `class as usize` is a class's position here.
    pub const ALL: [WorkClass; 7] = [
        WorkClass::Gemm,
        WorkClass::Pointwise,
        WorkClass::Depthwise,
        WorkClass::Pool,
        WorkClass::Elementwise,
        WorkClass::Norm,
        WorkClass::Copy,
    ];

    /// Fraction of the device's effective GEMM throughput this class
    /// achieves (GEMM is the calibration anchor).
    pub(crate) fn efficiency(self) -> f64 {
        match self {
            WorkClass::Gemm => 1.0,
            WorkClass::Pointwise => 0.9,
            WorkClass::Depthwise => 0.55,
            WorkClass::Pool => 0.75,
            WorkClass::Elementwise => 0.85,
            WorkClass::Norm => 0.45,
            WorkClass::Copy => 1.0,
        }
    }
}

/// The cost summary of one kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelWork {
    /// Kernel class.
    pub class: WorkClass,
    /// Multiply-accumulate count (elementwise ops for non-GEMM kernels).
    pub macs: u64,
    /// Activation bytes read, at the storage dtype.
    pub bytes_in: u64,
    /// Filter/weight bytes read, at the dtype the device holds them in.
    pub bytes_weights: u64,
    /// Output bytes written, at the storage dtype.
    pub bytes_out: u64,
    /// The dtype arithmetic runs in (selects the throughput row).
    pub compute_dtype: DType,
}

impl KernelWork {
    /// Total bytes moved through the memory system.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_weights + self.bytes_out
    }

    /// An empty (zero-cost) work item.
    pub fn nop() -> KernelWork {
        KernelWork {
            class: WorkClass::Copy,
            macs: 0,
            bytes_in: 0,
            bytes_weights: 0,
            bytes_out: 0,
            compute_dtype: DType::F32,
        }
    }
}

/// The storage/compute dtype pairing of an execution configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DtypePlan {
    /// Dtype activations and outputs are stored in (drives traffic).
    pub storage: DType,
    /// Dtype the arithmetic runs in (drives compute rate).
    pub compute: DType,
    /// Dtype the device keeps this layer's weights in.
    pub weights: DType,
}

impl DtypePlan {
    /// Uniform plan: everything in one dtype.
    pub fn uniform(dtype: DType) -> DtypePlan {
        DtypePlan {
            storage: dtype,
            compute: dtype,
            weights: dtype,
        }
    }

    /// The CPU side of processor-friendly quantization (§4.2): QUInt8
    /// storage and arithmetic.
    pub fn proc_friendly_cpu() -> DtypePlan {
        DtypePlan::uniform(DType::QUInt8)
    }

    /// The GPU side of processor-friendly quantization (§4.2): QUInt8
    /// activations in memory, F16 arithmetic, F16-resident weights
    /// (dequantized once at upload, §6).
    pub fn proc_friendly_gpu() -> DtypePlan {
        DtypePlan {
            storage: DType::QUInt8,
            compute: DType::F16,
            weights: DType::F16,
        }
    }
}

/// Realizes split fractions as cut points over `channels` channels.
///
/// Returns `parts.len() + 1` cumulative cut points starting at 0 and
/// ending exactly at `channels`; part `p` owns channels
/// `cuts[p]..cuts[p+1]`. Cumulative rounding means the realized parts
/// always partition the channel range — no channel is dropped or counted
/// twice, unlike rounding each fraction independently.
pub fn split_cuts(channels: usize, fracs: &[f64]) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(fracs.len() + 1);
    cuts.push(0usize);
    let mut acc = 0.0f64;
    for frac in fracs {
        acc += frac;
        cuts.push(((channels as f64) * acc).round().min(channels as f64) as usize);
    }
    *cuts.last_mut().expect("nonempty") = channels;
    cuts
}

/// Describes the work of executing `frac` of a layer's output channels
/// (`frac = 1.0` is the whole layer).
///
/// `in_shape`/`out_shape` are the *full* layer shapes; channel-wise
/// distribution scales MACs, weights, and output bytes by `frac` while
/// conv/FC inputs are read in full (shared input, Figure 7a) and pooling
/// inputs are scaled (distributed input, Figure 7b).
pub fn layer_work(
    kind: &LayerKind,
    in_shape: &Shape,
    out_shape: &Shape,
    dtypes: DtypePlan,
    frac: f64,
) -> KernelWork {
    debug_assert!((0.0..=1.0).contains(&frac), "frac = {frac}");
    let macs = kind.macs(in_shape, out_shape);
    let weight_elems = kind.weight_count(in_shape) + kind.bias_count(in_shape);
    let in_bytes = (in_shape.numel() * dtypes.storage.size_bytes()) as u64;
    let out_bytes = (out_shape.numel() * dtypes.storage.size_bytes()) as u64;
    let weight_bytes = (weight_elems * dtypes.weights.size_bytes()) as u64;

    let scale = |v: u64| -> u64 { (v as f64 * frac).round() as u64 };

    let (class, bytes_in) = match kind {
        // 1×1 stride-1 unpadded conv takes the direct (im2col-free)
        // pointwise kernel path; its latency law differs from general
        // conv, so the predictor trains a separate model for it.
        LayerKind::Conv {
            k: 1,
            stride: 1,
            pad: 0,
            ..
        } => (WorkClass::Pointwise, in_bytes),
        LayerKind::Conv { .. } | LayerKind::FullyConnected { .. } => {
            // Filters are distributed; the input is shared (read whole).
            (WorkClass::Gemm, in_bytes)
        }
        LayerKind::DepthwiseConv { .. } => {
            // Output channel i depends only on input channel i: both the
            // input and the filters are distributed.
            (WorkClass::Depthwise, scale(in_bytes))
        }
        LayerKind::Pool { .. } | LayerKind::GlobalAvgPool => {
            // Input channels are distributed (Figure 7b).
            (WorkClass::Pool, scale(in_bytes))
        }
        LayerKind::Lrn { .. } => (WorkClass::Norm, in_bytes),
        LayerKind::Relu | LayerKind::Softmax => (WorkClass::Elementwise, scale(in_bytes)),
        // A residual add reads two equally-shaped inputs.
        LayerKind::Add { .. } => (WorkClass::Elementwise, 2 * in_bytes),
        // A concat reads every input branch once; its traffic is the
        // total input volume, which equals the output volume.
        LayerKind::Concat => (WorkClass::Copy, out_bytes),
    };

    KernelWork {
        class,
        macs: scale(macs),
        bytes_in,
        bytes_weights: scale(weight_bytes),
        bytes_out: scale(out_bytes),
        compute_dtype: dtypes.compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_discriminants_follow_all() {
        for (i, &class) in WorkClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    fn conv_kind() -> LayerKind {
        LayerKind::Conv {
            oc: 64,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }
    }

    #[test]
    fn full_layer_work() {
        let kind = conv_kind();
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let w = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        assert_eq!(w.macs, 64 * 28 * 28 * 32 * 9);
        assert_eq!(w.bytes_in, 32 * 28 * 28 * 4);
        assert_eq!(w.bytes_out, 64 * 28 * 28 * 4);
        assert_eq!(w.bytes_weights, (64 * 32 * 9 + 64) * 4);
        assert_eq!(w.class, WorkClass::Gemm);
    }

    #[test]
    fn conv_split_shares_input() {
        let kind = conv_kind();
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let whole = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        let half = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            0.5,
        );
        assert_eq!(half.macs * 2, whole.macs);
        assert_eq!(half.bytes_out * 2, whole.bytes_out);
        assert_eq!(half.bytes_weights * 2, whole.bytes_weights);
        // Input is NOT halved: both processors read all input channels.
        assert_eq!(half.bytes_in, whole.bytes_in);
    }

    #[test]
    fn pool_split_divides_input() {
        let kind = LayerKind::Pool {
            func: unn::PoolFunc::Max,
            k: 2,
            stride: 2,
            pad: 0,
        };
        let in_shape = Shape::nchw(1, 64, 28, 28);
        let out_shape = Shape::nchw(1, 64, 14, 14);
        let whole = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::QUInt8),
            1.0,
        );
        let half = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::QUInt8),
            0.5,
        );
        assert_eq!(half.bytes_in * 2, whole.bytes_in);
        assert_eq!(half.bytes_out * 2, whole.bytes_out);
        assert_eq!(whole.bytes_weights, 0);
    }

    #[test]
    fn proc_friendly_gpu_plan_mixes_dtypes() {
        let kind = conv_kind();
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let w = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::proc_friendly_gpu(),
            1.0,
        );
        // Activations at 1 byte, weights resident in F16 (2 bytes).
        assert_eq!(w.bytes_in, 32 * 28 * 28);
        assert_eq!(w.bytes_out, 64 * 28 * 28);
        assert_eq!(w.bytes_weights, (64 * 32 * 9 + 64) * 2);
        // Arithmetic at the F16 rate.
        assert_eq!(w.compute_dtype, DType::F16);
    }

    #[test]
    fn quint8_quarters_f32_traffic() {
        let kind = conv_kind();
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let f = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        let q = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::QUInt8),
            1.0,
        );
        assert_eq!(q.total_bytes() * 4, f.total_bytes());
    }

    #[test]
    fn efficiency_ordering() {
        assert!(WorkClass::Gemm.efficiency() > WorkClass::Depthwise.efficiency());
        assert!(WorkClass::Norm.efficiency() < WorkClass::Pool.efficiency());
        assert!(WorkClass::Pointwise.efficiency() <= WorkClass::Gemm.efficiency());
        assert!(WorkClass::Pointwise.efficiency() > WorkClass::Depthwise.efficiency());
    }

    #[test]
    fn pointwise_conv_gets_its_own_class() {
        let pw = LayerKind::Conv {
            oc: 64,
            k: 1,
            stride: 1,
            pad: 0,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let w = layer_work(
            &pw,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        assert_eq!(w.class, WorkClass::Pointwise);
        // Input is shared, exactly like the GEMM conv path.
        assert_eq!(w.bytes_in, 32 * 28 * 28 * 4);
        assert_eq!(w.macs, 64 * 28 * 28 * 32);
        // A strided or padded 1x1 conv still goes through im2col.
        for kind in [
            LayerKind::Conv {
                oc: 64,
                k: 1,
                stride: 2,
                pad: 0,
                relu: false,
            },
            LayerKind::Conv {
                oc: 64,
                k: 1,
                stride: 1,
                pad: 1,
                relu: false,
            },
            LayerKind::Conv {
                oc: 64,
                k: 3,
                stride: 1,
                pad: 1,
                relu: false,
            },
        ] {
            let out = Shape::nchw(
                1,
                64,
                out_shape.dim(2).min(in_shape.dim(2)),
                out_shape.dim(3).min(in_shape.dim(3)),
            );
            let w = layer_work(&kind, &in_shape, &out, DtypePlan::uniform(DType::F32), 1.0);
            assert_eq!(w.class, WorkClass::Gemm, "{kind:?}");
        }
    }

    #[test]
    fn elementwise_and_norm_layers_classified() {
        let in_shape = Shape::nchw(1, 8, 10, 10);
        let relu = layer_work(
            &LayerKind::Relu,
            &in_shape,
            &in_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        assert_eq!(relu.class, WorkClass::Elementwise);
        assert_eq!(relu.macs, 800);
        let lrn_kind = LayerKind::Lrn {
            n: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 1.0,
        };
        let lrn = layer_work(
            &lrn_kind,
            &in_shape,
            &in_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        assert_eq!(lrn.class, WorkClass::Norm);
        assert!(lrn.macs > relu.macs);
        let concat = layer_work(
            &LayerKind::Concat,
            &in_shape,
            &in_shape,
            DtypePlan::uniform(DType::F32),
            1.0,
        );
        assert_eq!(concat.class, WorkClass::Copy);
        // A concat's op count is the moved volume (== output numel), and
        // its input traffic is the total input volume.
        assert_eq!(concat.macs, in_shape.numel() as u64);
        assert_eq!(
            concat.bytes_in,
            (in_shape.numel() * DType::F32.size_bytes()) as u64
        );
    }

    #[test]
    fn split_cuts_partition_the_channel_range() {
        for channels in [1usize, 3, 6, 7, 64, 513] {
            for fracs in [
                vec![0.5, 0.5],
                vec![0.25, 0.75],
                vec![0.97, 0.03],
                vec![0.2, 0.3, 0.5],
                vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            ] {
                let cuts = split_cuts(channels, &fracs);
                assert_eq!(cuts.len(), fracs.len() + 1);
                assert_eq!(cuts[0], 0);
                assert_eq!(*cuts.last().unwrap(), channels);
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            }
        }
    }

    #[test]
    fn tiny_layer_rounds_a_share_to_zero() {
        // The 0.97/0.03 split of a 6-channel layer: the small share
        // realizes zero channels.
        assert_eq!(split_cuts(6, &[0.97, 0.03]), vec![0, 6, 6]);
    }

    #[test]
    fn zero_fraction_is_free() {
        let kind = conv_kind();
        let in_shape = Shape::nchw(1, 32, 28, 28);
        let out_shape = Shape::nchw(1, 64, 28, 28);
        let w = layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::uniform(DType::F32),
            0.0,
        );
        assert_eq!(w.macs, 0);
        assert_eq!(w.bytes_out, 0);
        assert_eq!(w.bytes_weights, 0);
        // The shared input is still read (conv semantics).
        assert!(w.bytes_in > 0);
    }

    #[test]
    fn nop_is_free() {
        let w = KernelWork::nop();
        assert_eq!(w.macs, 0);
        assert_eq!(w.total_bytes(), 0);
    }
}
