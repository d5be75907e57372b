//! Umbrella crate for the μLayer reproduction workspace.
//!
//! This crate re-exports every workspace member under a single root so the
//! runnable examples in `examples/` and the integration tests in `tests/`
//! can use one coherent namespace. The actual implementation lives in the
//! member crates:
//!
//! - [`simcore`] — discrete-event simulation engine.
//! - [`tensor`] — tensors, software `f16`, 8-bit affine quantization.
//! - [`kernels`] — functional NN compute kernels for F32/F16/QUInt8.
//! - [`nn`] — layer IR, graph, shape/FLOP inference, model zoo.
//! - [`soc`] — simulated mobile SoC: devices, timing, memory, energy.
//! - [`runtime`] — execution plans, the timing engine and the functional
//!   evaluator that co-simulate any plan, the baseline mechanisms
//!   (single-processor, layer-to-processor, network-to-processor), and
//!   the serving core behind streams and fleets.
//! - [`exec`] — the real-thread backend: worker pools running a plan's
//!   parts on the host, with wall-clock measurement.
//! - [`ulayer`] — the paper's contribution: cooperative single-layer
//!   acceleration, processor-friendly quantization, branch distribution.
//! - [`quantlab`] — quantization accuracy experiments (Figure 10).
//! - [`bench`] — the `repro` binary's figures and scenarios.
//!
//! `testkit` (seedable PRNG, property runner, golden vectors) is a
//! dev-dependency of the tests, not part of this namespace.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub use quantlab;
pub use simcore;
pub use ubench as bench;
pub use uexec as exec;
pub use ukernels as kernels;
pub use ulayer;
pub use unn as nn;
pub use uruntime as runtime;
pub use usoc as soc;
pub use utensor as tensor;
