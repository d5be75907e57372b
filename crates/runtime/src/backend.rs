//! The execution-backend seam.
//!
//! [`crate::functional::evaluate_plan_with_backend`] lowers the plan
//! ([`crate::ExecutionPlan::layout`]), allocates every node's output
//! once, then walks the graph, builds each node's [`PartTask`]s from the
//! layout's running parts, and hands them to an [`ExecBackend`] as one
//! batch per node together with that output — the layer barrier of §6:
//! parts of
//! one layer may run concurrently, each writing its own channel range of
//! the output, but the next layer does not start until all of them
//! returned (the map/unmap sync points of the real runtime).
//!
//! [`SimulatedBackend`] (here) runs tasks sequentially on the calling
//! thread; it is what [`crate::evaluate_plan`] evaluates with.
//! `uexec::ParallelBackend` (crates/exec) dispatches tasks to real worker
//! pools, recording wall-clock timings. Both run the same `ukernels`
//! kernels, so their outputs are bit-identical.

use utensor::{TensorError, TensorViewMut};

use crate::engine::{FallbackPart, FallbackScope};
use crate::functional::{eval_part_task, task_outputs, PartTask};

/// Executes the parts of one node, one node at a time.
///
/// Contract: `run_node` writes every task's **stored** output — the
/// task's channels in the plan's storage dtype, as [`eval_part_task`]
/// produces them — into its channel range of `out`, the node's output,
/// and does not return until every task of the batch has completed —
/// the next layer reads `out` immediately, so a straggler part must
/// block the layer, exactly like a kernel still in flight at a §6 sync
/// point.
pub trait ExecBackend: Sync {
    /// A short human-readable backend name for reports.
    fn name(&self) -> &str;

    /// Runs all `tasks` of one node, each into its channel range of `out`.
    fn run_node(
        &self,
        tasks: &[PartTask<'_>],
        out: &mut TensorViewMut<'_>,
    ) -> Result<(), TensorError>;
}

/// The sequential reference backend: tasks run in order on the calling
/// thread.
///
/// `fallbacks` replays the engine's recovery path: a task a
/// [`FallbackPart`] names (its whole node, or its part's channels) runs
/// twice, the second run overwriting the first attempt's output
/// channels, exactly as the fallback task does after a device failure. A
/// part's arithmetic depends only on its dtypes and channel range —
/// never on the processor hosting it — and the timing engine registers
/// each fallback over the channel range of the same
/// [`crate::PlanLayout`] part the task computes, so the recovered
/// outputs are bit-identical to the fault-free ones. The fault-injection
/// tests assert this.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulatedBackend<'a> {
    /// Parts to re-run (empty by default).
    pub fallbacks: &'a [FallbackPart],
}

impl ExecBackend for SimulatedBackend<'_> {
    fn name(&self) -> &str {
        "simulated"
    }

    fn run_node(
        &self,
        tasks: &[PartTask<'_>],
        out: &mut TensorViewMut<'_>,
    ) -> Result<(), TensorError> {
        for (task, mut view) in tasks.iter().zip(task_outputs(tasks, out)?) {
            eval_part_task(task, &mut view)?;
            let failed = self.fallbacks.iter().any(|f| {
                f.node == task.node
                    && match f.scope {
                        FallbackScope::WholeNode => true,
                        FallbackScope::Channels { index, .. } => index == task.part_index,
                    }
            });
            if failed {
                // This task's kernel failed on its device: re-execute the
                // same channel range (the fallback) over the attempt.
                // Same cuts, same dtypes — exact.
                eval_part_task(task, &mut view)?;
            }
        }
        Ok(())
    }
}
