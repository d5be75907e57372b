//! Benchmark and reproduction harness for the μLayer paper.
//!
//! The surface is what the `repro` binary and the root integration tests
//! call:
//!
//! - one experiment function per table/figure of the paper's evaluation
//!   ([`table1`], [`fig5`] … [`fig17`], [`evaluation`], [`npu_extension`])
//!   and per scenario ([`fault_scenarios`], [`serve_overload`],
//!   [`fleet_storm`], [`mesh_scenario`], [`plan_experiment`],
//!   [`overhead_attribution`]);
//! - the design-choice sweeps ([`p_granularity`], [`overhead_sensitivity`])
//!   and the held-out predictor validation ([`evaluate_predictor`]);
//! - the table-driven CLI ([`parse_flags`], [`SUBCOMMANDS`], [`CliError`]);
//! - plain-text rendering ([`Table`], [`geomean`], [`ms`], [`pct`],
//!   [`ratio`]) and the JSON export of every figure ([`export_all`]).
//!
//! Host timing is measured by the standalone `benchmark/` crate, not here.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cli;
mod export;
mod extra;
mod figures;
mod predictor_eval;
mod report;

pub use cli::{
    parse_flags, subcommand_flags, CliError, FlagKind, Parsed, ARRIVALS, FLEET_FLAGS, LINK_FAULTS,
    SCENARIOS, SERVE_FLAGS, STORMS, SUBCOMMANDS,
};
pub use export::export_all;
pub use extra::{overhead_sensitivity, p_granularity};
pub use figures::{
    evaluation, fault_scenarios, fig12, fig17, fig5, fig6, fig8, fleet_storm, mesh_scenario,
    npu_extension, overhead_attribution, plan_experiment, serve_overload, table1, FleetStormReport,
    MechanismResult, MeshScenarioReport, PlanExperimentReport,
};
pub use predictor_eval::evaluate_predictor;
pub use report::{geomean, ms, opt_ms, pct, ratio, Table};
