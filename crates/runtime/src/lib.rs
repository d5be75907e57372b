//! Execution mechanisms and the plan-execution engine.
//!
//! This crate turns an NN graph plus an [`ExecutionPlan`] into a
//! scheduled, timed, energy-accounted run on a simulated SoC. Its surface:
//!
//! - [`ExecutionPlan`] / [`NodePlacement`] — the placement language
//!   (single-processor vs channel-wise split) shared by the baselines and
//!   μLayer.
//! - [`ExecutionPlan::layout`] → [`PlanLayout`] — the one lowering every
//!   executor reads: shapes, output buffers, realized channel cuts.
//! - [`execute_plan`] — the timing half of the co-simulation: builds the
//!   task DAG of one inference (kernels, async GPU issues, syncs,
//!   zero-copy map/unmaps, cooperative merges), schedules it under a
//!   fault plan, and integrates energy — one run body,
//!   [`execute_plan_with_faults`].
//! - [`evaluate_plan`] — the numeric half: evaluates the same plan on real
//!   tensors, slicing filters/channels exactly as §3.2 describes — one
//!   evaluator loop over an [`ExecBackend`].
//! - [`run_single_processor`], [`run_layer_to_processor`],
//!   [`run_network_to_processor`] — the §2.2 mechanisms μLayer is compared
//!   against.
//! - [`attribute`] / [`chrome_trace_json`] — schedule observability:
//!   overhead attribution (every nanosecond of every resource classified
//!   as compute, issue, sync, map, unmap, merge, fallback, transfer,
//!   planning, or idle) and Chrome trace-event export, with fault windows as overlay
//!   tracks.
//! - [`Server`] / [`ServePolicy`] — the serving core: the one per-instance
//!   step (bounded admission with explicit backpressure, FIFO dispatch,
//!   first-fit rung of a deadline-aware degradation ladder, exact frame
//!   accounting) that a stream, a mesh and every fleet instance run, each
//!   with its own statically dispatched policy.
//! - [`serve_stream`] — one arrival stream on one SoC or one networked
//!   mesh: rung eligibility gated on link reachability, service times
//!   stretched by link throttles, partition bookkeeping.
//! - [`run_fleet`] — thousands of perturbed, fault-stormed instances behind
//!   one discrete-event core, with a modelled plan cache per instance.
//! - [`MetricsRegistry`] — the counters/gauges registry every executor
//!   fills.
//!
//! # Examples
//!
//! ```
//! use uruntime::{run_layer_to_processor, run_single_processor};
//! use usoc::SocSpec;
//! use utensor::DType;
//!
//! let spec = SocSpec::exynos_7420();
//! let net = unn::ModelId::SqueezeNet.build();
//! let cpu = run_single_processor(&spec, &net, spec.cpu(), DType::QUInt8).unwrap();
//! let l2p = run_layer_to_processor(&spec, &net, DType::QUInt8).unwrap();
//! assert!(l2p.latency <= cpu.latency.max(l2p.latency));
//! ```

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod backend;
mod baselines;
mod engine;
mod fleet;
mod functional;
mod layout;
mod metrics;
mod observe;
mod plan;
mod serve;
mod serving;

pub use backend::{ExecBackend, SimulatedBackend};
pub use baselines::{
    layer_to_processor_plan, run_layer_to_processor, run_network_to_processor,
    run_single_processor, single_processor_plan,
};
pub use engine::{
    execute_plan, execute_plan_with_faults, FallbackScope, FaultReport, MemoryStats, RunError,
    RunResult,
};
pub use fleet::{
    run_fleet, run_fleet_with_faults, FleetCohort, FleetConfig, FleetNetwork, FleetReport,
    InstanceAdapter, UnitAdapter,
};
pub use functional::{eval_part_task, evaluate_plan, evaluate_plan_with_backend, PartTask};
pub use layout::{NodeLayout, PartLayout, PlanLayout, SplitAxis};
pub use metrics::MetricsRegistry;
pub use observe::{attribute, chrome_trace_json, Attribution, OverheadClass};
pub use plan::{ExecutionPlan, NodePlacement};
pub use serve::{serve_stream, ServeConfig, ServeReport};
pub use serving::{
    plan_scratch_span, FrameFate, FrameRecord, LadderRung, Realized, RealizedRung, ServePolicy,
    Server, Tally, PLAN_HIT_SPAN,
};
