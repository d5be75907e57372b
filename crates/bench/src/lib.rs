//! Benchmark and reproduction harness for the μLayer paper.
//!
//! The surface is what the `repro` binary and the root integration tests
//! call:
//!
//! - [`repro`], the one emitter behind the binary, and [`COMMANDS`], its
//!   table: one row per table, figure and scenario;
//! - the experiment functions the paper-claims tests assert on
//!   ([`table1`], [`fig5`] … [`fig17`], [`evaluation`]) and [`geomean`];
//! - the table-driven CLI ([`parse_flags`], [`Parsed`], [`CliError`],
//!   [`NETWORKS`] and the enumerated flag values).
//!
//! Host timing is measured by the standalone `benchmark/` crate, not here.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cli;
mod commands;
mod figures;
mod predictor_eval;
mod report;

pub use cli::{
    parse_flags, CliError, FlagKind, Parsed, ARRIVALS, FLEET_FLAGS, LINK_FAULTS, NETWORKS,
    SCENARIOS, SERVE_FLAGS, STORMS,
};
pub use commands::{repro, Command, COMMANDS};
pub use figures::{evaluation, fig12, fig17, fig5, fig6, fig8, table1};
pub use report::geomean;
