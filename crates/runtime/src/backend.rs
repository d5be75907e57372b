//! The execution-backend seam.
//!
//! [`crate::functional::evaluate_plan_with_backend`] walks the graph,
//! builds each node's [`PartTask`]s, and hands them to an [`ExecBackend`]
//! as one batch per node — the layer barrier of §6: parts of one layer
//! may run concurrently, but the next layer does not start until all of
//! them returned (the map/unmap sync points of the real runtime).
//!
//! Two implementations exist:
//!
//! - [`SimulatedBackend`] (here) — runs tasks sequentially on the calling
//!   thread; it is what [`crate::evaluate_plan`] evaluates with.
//! - `uexec::ParallelBackend` (crates/exec) — dispatches tasks to real
//!   worker pools, recording wall-clock timings.
//!
//! Both run the same `ukernels` kernels, so their outputs are
//! bit-identical.

use utensor::{Tensor, TensorError};

use crate::functional::{eval_part_task, PartTask};

/// Executes the parts of one node, one node at a time.
///
/// Contract: `run_node` returns one **stored** output per task — the
/// task's channels in the plan's storage dtype, as [`eval_part_task`]
/// produces them — **in task order**, and does not return until every
/// task of the batch has completed — the caller concatenates immediately,
/// so a straggler part must block the layer, exactly like a kernel still
/// in flight at a §6 sync point.
pub trait ExecBackend: Sync {
    /// A short human-readable backend name for reports.
    fn name(&self) -> &str;

    /// Runs all `tasks` of one node, returning stored outputs in task order.
    fn run_node(&self, tasks: &[PartTask<'_>]) -> Result<Vec<Tensor>, TensorError>;
}

/// The sequential reference backend: tasks run in order on the calling
/// thread with the default (naive) kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulatedBackend;

impl ExecBackend for SimulatedBackend {
    fn name(&self) -> &str {
        "simulated"
    }

    fn run_node(&self, tasks: &[PartTask<'_>]) -> Result<Vec<Tensor>, TensorError> {
        tasks.iter().map(eval_part_task).collect()
    }
}
