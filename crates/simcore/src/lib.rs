//! Discrete-event simulation engine for the μLayer SoC models.
//!
//! The μLayer reproduction replaces the paper's physical Exynos SoCs with a
//! simulated SoC. This crate provides the domain-independent pieces of that
//! simulation:
//!
//! - [`SimTime`] / [`SimSpan`] — nanosecond-resolution instants and spans.
//! - [`EventQueue`] — a deterministic time-ordered event queue with stable
//!   FIFO ordering for simultaneous events.
//! - [`TaskGraph`] / [`Trace`] — a dependency-aware task scheduler that
//!   executes a DAG of timed tasks over serially-reusable resources (a CPU
//!   cluster, a GPU, a link), each named by a [`ResourceId`] and running
//!   one task at a time, and produces a trace with per-task start/end
//!   times, suitable for latency and energy accounting as well as ASCII
//!   Gantt rendering.
//! - [`FaultPlan`] / [`Scenario`] / [`FleetScenario`] — seeded fault
//!   injection; [`ArrivalProcess`] — seeded frame arrivals;
//!   [`DriftKeyQuantizer`] — the plan cache's drift key.
//! - [`export_chrome_trace`] / [`validate_chrome_trace`] over one JSON tree,
//!   [`JsonValue`], which also renders every `repro` document.
//! - [`nearest_rank`] / [`LatencyRollup`] — the latency percentiles every
//!   report uses.
//!
//! The engine is deterministic: scheduling the same graph twice yields the
//! same trace, which the test suites rely on.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod arrivals;
mod chrome;
mod dag;
mod driftkey;
mod event;
mod faults;
mod json;
mod resource;
mod stats;
mod time;
mod trace;

pub use arrivals::{ArrivalKind, ArrivalProcess};
pub use chrome::{export_chrome_trace, validate_chrome_trace, OverlayEvent, TraceArg};
pub use dag::{SchedStats, ScheduleError, TaskGraph, TaskId};
pub use driftkey::DriftKeyQuantizer;
pub use event::{EventQueue, TieOrder};
pub use faults::{
    AttemptRecord, DeviceLoss, FaultLog, FaultPlan, FleetScenario, LinkFaultScenario, RetryPolicy,
    Scenario, ThrottleWindow, TransientFault,
};
pub use json::JsonValue;
pub use resource::ResourceId;
pub use stats::{nearest_rank, LatencyRollup, SLO_QUANTILES};
pub use time::{SimSpan, SimTime};
pub use trace::{TaskRecord, Trace};
