//! Real parallel execution: worker pools, blocked kernels, wall-clock
//! measurement.
//!
//! Everything else in the repo *simulates* the SoC; this crate runs the
//! same plans on actual host threads. Its surface:
//!
//! - [`ParallelBackend`] implementing `uruntime::ExecBackend`: parts
//!   routed to their cluster's pool of persistent workers (sized by
//!   [`ExecConfig`], shared or split per [`PoolMode`]), channel ranges
//!   subdivided per worker, a join-based barrier per layer, outputs
//!   merged bit-exactly.
//! - [`measure`] — best-of-N wall-clock measurement of cooperative vs
//!   single-processor plans ([`MeasureConfig`] → [`MeasureReport`]),
//!   producing per-part samples that calibrate the latency predictor
//!   (`repro measure`).
//!
//! The crate is std-only, like the rest of the workspace.

#![warn(unreachable_pub)]

mod backend;
mod measure;
mod pool;

pub use backend::{ParallelBackend, PoolMode};
pub use measure::{measure, MeasureConfig, MeasureReport};
pub use pool::ExecConfig;
