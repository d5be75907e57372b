//! Benchmark and reproduction harness for the μLayer paper.
//!
//! - [`figures`] — one experiment function per table/figure of the
//!   paper's evaluation (the data producers).
//! - [`report`] — plain-text table rendering and summary statistics.
//!
//! The `repro` binary drives these and prints paper-style rows. Host
//! timing is measured by the standalone `benchmark/` crate, not here.

pub mod cli;
pub mod export;
pub mod extra;
pub mod figures;
pub mod json;
pub mod report;

pub use cli::{parse_flags, CliError, FlagKind, FlagSpec, Parsed};
pub use export::export_all;
pub use extra::{overhead_sensitivity, p_granularity, OverheadRow, PGranularityRow};
pub use figures::{
    evaluation, fig12, fig17, fig5, fig6, fig8, fleet_storm, inception_3a_graph, mesh_scenario,
    mesh_workload_graph, npu_extension, overhead_attribution, pass_pipeline, run_all_mechanisms,
    table1, AttributionReport, Evaluation, Fig12, Fig17, Fig5, Fig6, Fig8, FleetStormReport,
    MechanismResult, MeshScenarioReport, NpuRow, PassPipelineReport,
};
pub use json::Json;
pub use report::{geomean, ms, pct, ratio, Table};
