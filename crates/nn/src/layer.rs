//! Layer IR: the operator vocabulary of the five evaluated networks.

use utensor::{Shape, TensorError};

/// The window function of a pooling layer (mirror of the kernel-side enum,
/// kept separate so the IR does not depend on kernel implementations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolFunc {
    /// Maximum over the window.
    Max,
    /// Average over the window.
    Avg,
}

/// One layer's operator and hyperparameters.
///
/// Spatial convention: square kernels, symmetric stride/padding — all five
/// evaluated networks satisfy this.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerKind {
    /// Standard convolution with `oc` output channels and an optional
    /// fused ReLU.
    Conv {
        /// Output channels.
        oc: usize,
        /// Square kernel side.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Fused ReLU.
        relu: bool,
    },
    /// Depthwise convolution (one filter per input channel).
    DepthwiseConv {
        /// Square kernel side.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Fused ReLU.
        relu: bool,
    },
    /// Fully-connected layer over the flattened input.
    FullyConnected {
        /// Output neurons.
        out: usize,
        /// Fused ReLU.
        relu: bool,
    },
    /// Spatial pooling.
    Pool {
        /// Window function.
        func: PoolFunc,
        /// Square window side.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding.
        pad: usize,
    },
    /// Global average pooling to `1x1`.
    GlobalAvgPool,
    /// Across-channel local response normalization (AlexNet).
    Lrn {
        /// Window size across channels.
        n: usize,
        /// Scaling coefficient.
        alpha: f32,
        /// Exponent.
        beta: f32,
        /// Additive constant.
        k: f32,
    },
    /// Standalone ReLU.
    Relu,
    /// Channel concatenation of all inputs (Inception / Fire joins).
    Concat,
    /// Elementwise addition of two inputs (residual skip connections)
    /// with an optional fused ReLU (ResNet joins activate after the sum).
    Add {
        /// Fused ReLU applied to the sum.
        relu: bool,
    },
    /// Softmax over the flattened input (classifier head).
    Softmax,
}

impl LayerKind {
    /// Short operator name for reports.
    pub fn op_name(&self) -> &'static str {
        match self {
            LayerKind::Conv { .. } => "conv",
            LayerKind::DepthwiseConv { .. } => "dwconv",
            LayerKind::FullyConnected { .. } => "fc",
            LayerKind::Pool {
                func: PoolFunc::Max,
                ..
            } => "maxpool",
            LayerKind::Pool {
                func: PoolFunc::Avg,
                ..
            } => "avgpool",
            LayerKind::GlobalAvgPool => "gavgpool",
            LayerKind::Lrn { .. } => "lrn",
            LayerKind::Relu => "relu",
            LayerKind::Concat => "concat",
            LayerKind::Add { .. } => "add",
            LayerKind::Softmax => "softmax",
        }
    }

    /// True for the layer classes the channel-wise workload distribution
    /// (§3.2) can split: conv / FC (output channels) and pooling (input
    /// channels).
    pub fn is_distributable(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv { .. }
                | LayerKind::DepthwiseConv { .. }
                | LayerKind::FullyConnected { .. }
                | LayerKind::Pool { .. }
                | LayerKind::GlobalAvgPool
        )
    }

    /// Infers the output shape from the input shapes.
    ///
    /// Single-input layers get a one-element slice; [`LayerKind::Concat`]
    /// accepts any positive number of inputs.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape, TensorError> {
        let one = || -> Result<&Shape, TensorError> {
            if inputs.len() == 1 {
                Ok(inputs[0])
            } else {
                Err(TensorError::BadConcat(format!(
                    "{} expects exactly 1 input, got {}",
                    self.op_name(),
                    inputs.len()
                )))
            }
        };
        // Spatial layers read `h` and `w`: a rank-4 input or a typed error.
        let four = || match one()? {
            s if s.rank() == 4 => Ok(s),
            s => Err(TensorError::BadConcat(format!(
                "{self:?} needs a rank-4 input, got {s}"
            ))),
        };
        match self {
            LayerKind::Conv {
                oc, k, stride, pad, ..
            } => {
                let s = four()?;
                let oh = ukernels::out_dim(s.h(), *k, *stride, *pad);
                let ow = ukernels::out_dim(s.w(), *k, *stride, *pad);
                match (oh, ow) {
                    (Some(oh), Some(ow)) => Ok(Shape::nchw(s.n(), *oc, oh, ow)),
                    _ => Err(TensorError::BadConcat(format!(
                        "conv k={k} s={stride} p={pad} does not fit {s}"
                    ))),
                }
            }
            LayerKind::DepthwiseConv { k, stride, pad, .. } => {
                let s = four()?;
                let oh = ukernels::out_dim(s.h(), *k, *stride, *pad);
                let ow = ukernels::out_dim(s.w(), *k, *stride, *pad);
                match (oh, ow) {
                    (Some(oh), Some(ow)) => Ok(Shape::nchw(s.n(), s.c(), oh, ow)),
                    _ => Err(TensorError::BadConcat(format!(
                        "dwconv k={k} s={stride} p={pad} does not fit {s}"
                    ))),
                }
            }
            LayerKind::FullyConnected { out, .. } => {
                let n = one()?.dims().first().copied().unwrap_or(1);
                Ok(Shape::nchw(n, *out, 1, 1))
            }
            LayerKind::Pool { k, stride, pad, .. } => {
                let s = four()?;
                let oh = ukernels::out_dim(s.h(), *k, *stride, *pad);
                let ow = ukernels::out_dim(s.w(), *k, *stride, *pad);
                match (oh, ow) {
                    (Some(oh), Some(ow)) => Ok(Shape::nchw(s.n(), s.c(), oh, ow)),
                    _ => Err(TensorError::BadConcat(format!(
                        "pool k={k} s={stride} p={pad} does not fit {s}"
                    ))),
                }
            }
            LayerKind::GlobalAvgPool => {
                let s = four()?;
                Ok(Shape::nchw(s.n(), s.c(), 1, 1))
            }
            LayerKind::Lrn { .. } | LayerKind::Relu | LayerKind::Softmax => Ok(one()?.clone()),
            LayerKind::Add { .. } => {
                if inputs.len() != 2 {
                    return Err(TensorError::BadConcat(format!(
                        "add expects exactly 2 inputs, got {}",
                        inputs.len()
                    )));
                }
                if inputs[0] != inputs[1] {
                    return Err(TensorError::ShapeMismatch {
                        expected: inputs[0].clone(),
                        found: inputs[1].clone(),
                    });
                }
                Ok(inputs[0].clone())
            }
            LayerKind::Concat => {
                let first = inputs.first().ok_or_else(|| {
                    TensorError::BadConcat("concat expects at least 1 input".into())
                })?;
                let mut c = 0usize;
                for s in inputs {
                    if s.rank() != 4
                        || s.n() != first.n()
                        || s.h() != first.h()
                        || s.w() != first.w()
                    {
                        return Err(TensorError::BadConcat(format!(
                            "concat inputs disagree: {s} vs {first}"
                        )));
                    }
                    c += s.c();
                }
                Ok(Shape::nchw(first.n(), c, first.h(), first.w()))
            }
        }
    }

    /// Multiply-accumulate count of the layer (the unit of the timing
    /// model's compute roofline). Non-MAC layers report elementwise-op
    /// counts on the same scale.
    pub fn macs(&self, input: &Shape, output: &Shape) -> u64 {
        match self {
            LayerKind::Conv { k, .. } => output.numel() as u64 * (input.c() * k * k) as u64,
            LayerKind::DepthwiseConv { k, .. } => output.numel() as u64 * (k * k) as u64,
            LayerKind::FullyConnected { .. } => {
                (output.numel() * input.numel() / input.dim(0).max(1)) as u64
            }
            LayerKind::Pool { k, .. } => output.numel() as u64 * (k * k) as u64,
            LayerKind::GlobalAvgPool => input.numel() as u64,
            LayerKind::Lrn { n, .. } => input.numel() as u64 * (*n as u64 + 8),
            LayerKind::Relu | LayerKind::Softmax => input.numel() as u64,
            LayerKind::Add { .. } => input.numel() as u64,
            // A concat moves every element of every input once; its op
            // count is the total input volume, which tiles the output
            // exactly. (Reporting 0 here undercounted merge work on
            // fork/join networks.)
            LayerKind::Concat => output.numel() as u64,
        }
    }

    /// [`LayerKind::macs`] generalized over a node's full input set:
    /// multi-input nodes (concat, add) are costed over *all* input
    /// shapes instead of the first input alone.
    pub(crate) fn macs_multi(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        match self {
            LayerKind::Concat => inputs.iter().map(|s| s.numel() as u64).sum(),
            LayerKind::Add { .. } => output.numel() as u64,
            _ => self.macs(inputs.first().copied().unwrap_or(output), output),
        }
    }

    /// Number of filter/weight elements (0 for weight-free layers).
    pub fn weight_count(&self, input: &Shape) -> usize {
        match self {
            LayerKind::Conv { oc, k, .. } => oc * input.c() * k * k,
            LayerKind::DepthwiseConv { k, .. } => input.c() * k * k,
            LayerKind::FullyConnected { out, .. } => out * (input.numel() / input.dim(0).max(1)),
            _ => 0,
        }
    }

    /// Number of bias elements (0 for weight-free layers).
    pub fn bias_count(&self, input: &Shape) -> usize {
        match self {
            LayerKind::Conv { oc, .. } => *oc,
            LayerKind::DepthwiseConv { .. } => input.c(),
            LayerKind::FullyConnected { out, .. } => *out,
            _ => 0,
        }
    }

    /// The shape of the layer's filter tensor, if it has one.
    pub(crate) fn weight_shape(&self, input: &Shape) -> Option<Shape> {
        match self {
            LayerKind::Conv { oc, k, .. } => Some(Shape::oihw(*oc, input.c(), *k, *k)),
            LayerKind::DepthwiseConv { k, .. } => Some(Shape::new(vec![input.c(), 1, *k, *k])),
            LayerKind::FullyConnected { out, .. } => {
                Some(Shape::new(vec![*out, input.numel() / input.dim(0).max(1)]))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_and_macs() {
        let kind = LayerKind::Conv {
            oc: 64,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let input = Shape::nchw(1, 3, 224, 224);
        let out = kind.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[1, 64, 224, 224]);
        assert_eq!(kind.macs(&input, &out), 64 * 224 * 224 * 27);
        assert_eq!(kind.weight_count(&input), 64 * 3 * 3 * 3);
        assert_eq!(kind.bias_count(&input), 64);
        assert_eq!(kind.weight_shape(&input).unwrap().dims(), &[64, 3, 3, 3]);
    }

    #[test]
    fn depthwise_preserves_channels() {
        let kind = LayerKind::DepthwiseConv {
            k: 3,
            stride: 2,
            pad: 1,
            relu: true,
        };
        let input = Shape::nchw(1, 64, 112, 112);
        let out = kind.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[1, 64, 56, 56]);
        assert_eq!(kind.macs(&input, &out), 64 * 56 * 56 * 9);
    }

    #[test]
    fn fc_shape() {
        let kind = LayerKind::FullyConnected {
            out: 4096,
            relu: true,
        };
        let input = Shape::nchw(1, 512, 7, 7);
        let out = kind.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[1, 4096, 1, 1]);
        assert_eq!(kind.macs(&input, &out), 4096 * 512 * 49);
        assert_eq!(kind.weight_shape(&input).unwrap().dims(), &[4096, 512 * 49]);
    }

    #[test]
    fn pool_shapes() {
        let kind = LayerKind::Pool {
            func: PoolFunc::Max,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let input = Shape::nchw(1, 64, 112, 112);
        let out = kind.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[1, 64, 56, 56]);
        let g = LayerKind::GlobalAvgPool;
        assert_eq!(g.infer_shape(&[&input]).unwrap().dims(), &[1, 64, 1, 1]);
    }

    #[test]
    fn concat_sums_channels() {
        let kind = LayerKind::Concat;
        let a = Shape::nchw(1, 64, 28, 28);
        let b = Shape::nchw(1, 128, 28, 28);
        let c = Shape::nchw(1, 32, 28, 28);
        let out = kind.infer_shape(&[&a, &b, &c]).unwrap();
        assert_eq!(out.dims(), &[1, 224, 28, 28]);
        // The op count covers ALL inputs (== the output volume), not the
        // first input alone.
        assert_eq!(kind.macs_multi(&[&a, &b, &c], &out), out.numel() as u64);
        assert_eq!(kind.macs(&a, &out), out.numel() as u64);
        // Mismatched spatial dims rejected.
        let bad = Shape::nchw(1, 8, 27, 28);
        assert!(kind.infer_shape(&[&a, &bad]).is_err());
        assert!(kind.infer_shape(&[]).is_err());
    }

    #[test]
    fn single_input_arity_enforced() {
        let kind = LayerKind::Relu;
        let a = Shape::nchw(1, 2, 2, 2);
        assert!(kind.infer_shape(&[&a, &a]).is_err());
        assert!(kind.infer_shape(&[&a]).is_ok());
    }

    #[test]
    fn window_fit_checked() {
        let kind = LayerKind::Conv {
            oc: 8,
            k: 7,
            stride: 1,
            pad: 0,
            relu: false,
        };
        let tiny = Shape::nchw(1, 3, 5, 5);
        assert!(kind.infer_shape(&[&tiny]).is_err());
    }

    #[test]
    fn distributable_classification() {
        assert!(LayerKind::Conv {
            oc: 1,
            k: 1,
            stride: 1,
            pad: 0,
            relu: false
        }
        .is_distributable());
        assert!(LayerKind::Pool {
            func: PoolFunc::Avg,
            k: 2,
            stride: 2,
            pad: 0
        }
        .is_distributable());
        assert!(!LayerKind::Concat.is_distributable());
        assert!(!LayerKind::Softmax.is_distributable());
        assert!(!LayerKind::Relu.is_distributable());
        assert!(!LayerKind::Add { relu: false }.is_distributable());
    }

    #[test]
    fn add_shapes() {
        let a = Shape::nchw(1, 8, 4, 4);
        let add = LayerKind::Add { relu: true };
        assert_eq!(add.infer_shape(&[&a, &a]).unwrap(), a);
        assert!(add.infer_shape(&[&a]).is_err());
        assert_eq!(add.macs_multi(&[&a, &a], &a), a.numel() as u64);
    }
}
