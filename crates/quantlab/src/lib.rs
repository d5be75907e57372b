//! Quantization accuracy laboratory — the Figure 10 experiment.
//!
//! The paper validates processor-friendly quantization's accuracy on
//! ImageNet with pretrained CNNs (Figure 10). Neither the dataset nor the
//! checkpoints are available here, so this crate substitutes the closest
//! equivalent that exercises the identical code paths (see DESIGN.md §2):
//!
//! 1. [`generate`] — a synthetic oriented-grating classification task;
//! 2. [`train`] — a small CNN classifier trained from scratch with
//!    pure-Rust SGD;
//! 3. [`accuracy`] / [`run_figure10`] — top-1 accuracy under F32 / F16 /
//!    naive QUInt8 / range-calibrated QUInt8 inference, all through the
//!    same tensor and kernel stack the μLayer executor uses.
//!
//! Expected shape (matching the paper): F16 is lossless, naive 8-bit
//! quantization degrades sharply, and learned ranges (the fake-quant
//! analogue) recover to within a few percentage points.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod dataset;
mod experiment;
mod train;

pub use dataset::generate;
pub use experiment::{accuracy, run_figure10};
pub use train::train;
