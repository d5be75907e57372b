//! The repo's benchmark: four workloads over the real thread-pool backend,
//! the planner and the fleet simulator, driven from outside through public
//! functions only.
//!
//! - [`sut`] is the only module that names workspace symbols; everything
//!   else sees plain numbers and opaque handles.
//! - [`workloads`] holds one closed-loop driver per workload.
//! - [`harness`] times ops, repeats set-up and tallies failures; [`span`]
//!   records spans around every call into a layer; [`stats`] picks medians
//!   and percentiles; [`gen`] turns `--seed` into inputs.
//! - [`metrics`] is the catalogue every emitted name comes from, and
//!   [`report`] prints it.
//!
//! See `README.md` beside `Cargo.toml` for the workload and metric catalogue.

pub mod cli;
pub mod gen;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod span;
pub mod stats;
pub mod sut;
pub mod workloads;
