//! NN layer IR, graph, model zoo, and reference execution for the μLayer
//! reproduction.
//!
//! This crate is the "network" half of the substrate. Its surface:
//!
//! - [`LayerKind`] / [`Graph`] — the operator vocabulary and the DAG the
//!   execution mechanisms consume, with shape and MAC inference.
//! - [`ModelId`] — from-scratch architecture definitions of the paper's
//!   five evaluated networks (GoogLeNet, SqueezeNet v1.1, VGG-16,
//!   AlexNet, MobileNet v1) plus ResNet-18 and LeNet-5, full size or
//!   miniature; [`inception`] and [`fire`] build single modules.
//! - [`Weights`] / [`Calibration`] — synthetic weight generation and
//!   quantization calibration (the §4.2 "pre-trained quantization
//!   information").
//! - [`forward`] / [`run_layer`] — single-host reference execution in
//!   any dtype; [`run_layer`] allocates and calls [`run_layer_into`],
//!   which every device executor calls with a part's channel range of
//!   the layer's output, so all mechanisms share numerics by
//!   construction.
//! - [`find_branch_groups`] / [`applicability`] — divergent-branch
//!   detection (§5) and the Table 1 applicability matrix.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod analysis;
mod exec;
mod graph;
mod layer;
mod models;
mod weights;

pub use analysis::{applicability, find_branch_groups, Applicability};
pub use exec::{calibrate, forward, run_layer, run_layer_into};
pub use graph::{Graph, NodeId};
pub use layer::{LayerKind, PoolFunc};
pub use models::{fire, inception, ModelId};
pub use weights::{Calibration, Weights};
