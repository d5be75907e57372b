//! μLayer: low-latency on-device inference via cooperative single-layer
//! acceleration and processor-friendly quantization.
//!
//! This crate is the paper's primary contribution (Kim et al., EuroSys
//! 2019), reproduced on the simulated SoC substrate of the sibling
//! crates. The three mechanisms:
//!
//! 1. **Channel-wise workload distribution** (§3.2) — a single layer's
//!    output channels are split between the CPU and the GPU in a ratio
//!    `p : (1-p)` with no redundant computation; implemented as `Split`
//!    placements consumed by the shared execution engine.
//! 2. **Processor-friendly quantization** (§4) — activations live in
//!    memory as QUInt8; the CPU computes on them directly with i32
//!    accumulation and fixed-point requantization, the GPU dequantizes
//!    loads to F16 on the fly and requantizes its outputs.
//! 3. **Branch distribution** (§5) — divergent branch groups (Inception,
//!    Fire) are assigned branch-per-processor via exhaustive mapping
//!    search when that beats per-layer splitting.
//!
//! Components (Figure 13), as the crate's surface names them: the
//! [`LatencyPredictor`] (Neurosurgeon-style fitted latency models), the
//! partitioner ([`partition`], [`LayerCoster`]: chooses `p` per layer),
//! the branch distributor, and the [`ULayer`] facade that plans and
//! executes. The partitioner and the branch distributor run in that
//! order inside [`draft`], the one planning function; branch
//! distribution runs only when the CPU and the GPU are both in
//! [`PlanContext::devices`]. Around them: the drift-keyed plan cache
//! ([`PlannerSession`]) and drift adaptation over a stream
//! ([`run_adaptive_stream`], [`DriftAdapter`]).
//!
//! # Examples
//!
//! ```
//! use ulayer::ULayer;
//! use usoc::SocSpec;
//!
//! let rt = ULayer::new(SocSpec::exynos_7420()).unwrap();
//! let net = unn::ModelId::SqueezeNet.build();
//! let result = rt.run(&net).unwrap();
//! println!("SqueezeNet v1.1: {:.2} ms", result.latency_ms());
//! ```

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod adapt;
mod branch;
mod config;
mod error;
mod ladder;
mod partitioner;
mod plancache;
mod planning;
mod predictor;
mod runtime;

pub use adapt::{accel_share, run_adaptive_stream, DriftAdapter};
pub use config::ULayerConfig;
pub use error::ULayerError;
pub use partitioner::{partition, CostTables, LayerCoster, SingleCostEntry};
pub use plancache::{PlanSource, PlannerSession, PlannerStats, ReusePolicy};
pub use planning::{draft, PlanContext, PlanDraft};
pub use predictor::{FitReport, LatencyPredictor, MeasuredSample};
pub use runtime::{PlanReport, ULayer};
