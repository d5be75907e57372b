//! Absolute pins on the timing engine's simulated behaviour.
//!
//! The engine's other tests compare one run with another run of the same
//! code (fault-free vs empty fault plan), so a change that moves
//! behaviour *consistently* passes all of them. These pins hash the whole
//! `Debug` rendering of every result — trace records with their labels,
//! ids and instants, energy to the last f64 bit, metrics, attribution,
//! memory statistics, the fault report, or the typed error — over a
//! matrix of single runs (spec × net × plan shape × fault plan) that
//! reaches the retry, fallback and error paths, and compare the hashes
//! with recorded constants. The constants are the contract: a refactor of
//! the engine must leave them alone. Only the entry-point shim (`single`)
//! follows the public API.
//!
//! On a mismatch the test prints one hash per matrix group, so the same
//! test run on two checkouts shows which group moved.

use simcore::{FaultPlan, ResourceId, RetryPolicy, Scenario};
use testkit::fnv1a;
use unn::{Graph, ModelId};
use uruntime::{
    execute_plan_with_faults, layer_to_processor_plan, single_processor_plan, ExecutionPlan,
    FaultReport, NodePlacement, RunError, RunResult,
};
use usoc::{DeviceId, DeviceKind, DtypePlan, SocSpec};
use utensor::DType;

// ---------------------------------------------------------------------
// Entry-point shims: the only lines that follow the public API.
// ---------------------------------------------------------------------

fn single(
    spec: &SocSpec,
    g: &Graph,
    plan: &ExecutionPlan,
    faults: &FaultPlan,
) -> Result<(RunResult, FaultReport), RunError> {
    execute_plan_with_faults(spec, g, plan, faults, &RetryPolicy::default())
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// An order-sensitive fold of per-run hashes into per-group hashes and
/// one matrix hash.
#[derive(Default)]
struct Pin {
    groups: Vec<(String, u64)>,
    runs: usize,
}

impl Pin {
    fn add(&mut self, group: &str, text: &str) {
        let h = fnv1a(text.as_bytes());
        self.runs += 1;
        match self.groups.iter_mut().find(|(g, _)| g == group) {
            Some((_, acc)) => *acc = (*acc ^ h).rotate_left(9).wrapping_mul(0x100_0000_01b3),
            None => self.groups.push((group.to_string(), h)),
        }
    }

    fn total(&self) -> u64 {
        self.groups
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |acc, (g, h)| {
                (acc ^ h ^ fnv1a(g.as_bytes()))
                    .rotate_left(9)
                    .wrapping_mul(0x100_0000_01b3)
            })
    }

    fn assert(&self, what: &str, runs: usize, expected: u64) {
        let table: String = self
            .groups
            .iter()
            .map(|(g, h)| format!("  {g}: {h:#018x}\n"))
            .collect();
        assert_eq!(self.runs, runs, "{what}: matrix size changed");
        assert_eq!(
            self.total(),
            expected,
            "{what}: simulated behaviour moved ({:#018x} != pinned {expected:#018x}); per group:\n{table}",
            self.total()
        );
    }
}

/// What the matrix reached, so a pin over a matrix that stopped
/// exercising a path fails loudly instead of passing vacuously.
#[derive(Default, Debug)]
struct Reached {
    retries: u64,
    fallbacks: u64,
    typed_errors: u64,
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

fn specs() -> Vec<(&'static str, SocSpec)> {
    vec![
        ("7420", SocSpec::exynos_7420()),
        ("7880", SocSpec::exynos_7880()),
        ("7420+npu", SocSpec::exynos_7420().with_npu()),
        ("mesh4", SocSpec::mcu_mesh(4)),
    ]
}

const NETS: [ModelId; 5] = [
    ModelId::GoogLeNet,
    ModelId::SqueezeNet,
    ModelId::MobileNet,
    ModelId::ResNet18,
    ModelId::LeNet,
];

/// The device a plan shape treats as "the other processor": the GPU on a
/// SoC, the host's neighbour on the mesh.
fn partner(spec: &SocSpec) -> DeviceId {
    spec.find(DeviceKind::Gpu).unwrap_or(DeviceId(1))
}

/// Distributable layers split over `parts` (mixed dtypes: QUInt8 on the
/// first part, F16 arithmetic where the device has it), the rest on the
/// host in QUInt8.
fn split_plan(spec: &SocSpec, g: &Graph, parts: &[(DeviceId, f64)], label: &str) -> ExecutionPlan {
    let dtypes = |d: DeviceId| {
        if d != spec.cpu() && spec.devices[d.0].supports(DType::F16) {
            DtypePlan::proc_friendly_gpu()
        } else {
            DtypePlan::proc_friendly_cpu()
        }
    };
    let placements = g
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_distributable() {
                NodePlacement::Split {
                    parts: parts.iter().map(|&(d, f)| (d, dtypes(d), f)).collect(),
                }
            } else {
                NodePlacement::single(spec.cpu(), DType::QUInt8)
            }
        })
        .collect();
    ExecutionPlan::new(g, spec, placements, label).expect("split plan")
}

/// Every plan shape of one `(spec, net)` cell.
fn shapes(spec: &SocSpec, g: &Graph) -> Vec<(&'static str, ExecutionPlan)> {
    let cpu = spec.cpu();
    let other = partner(spec);
    let mut out = Vec::new();
    let cpu_only = single_processor_plan(g, spec, cpu, DType::QUInt8).expect("cpu-only");
    out.push(("cpu-only", cpu_only));
    let accel_dtype = if spec.devices[other.0].kind == DeviceKind::Gpu {
        DType::F16
    } else {
        DType::QUInt8
    };
    let accel_only = single_processor_plan(g, spec, other, accel_dtype).expect("accel-only");
    out.push(("accel-only", accel_only));
    let l2p = if spec.find(DeviceKind::Gpu).is_some() {
        layer_to_processor_plan(g, spec, DType::QUInt8).expect("layer-to-proc")
    } else {
        // No GPU on the mesh: deal the layers round-robin over the nodes.
        let n = spec.devices.len();
        ExecutionPlan::new(
            g,
            spec,
            (0..g.len())
                .map(|i| NodePlacement::single(DeviceId(i % n), DType::QUInt8))
                .collect(),
            "round-robin",
        )
        .expect("round-robin")
    };
    out.push(("layer-to-proc", l2p));
    out.push((
        "split-37",
        split_plan(spec, g, &[(cpu, 0.37), (other, 0.63)], "split-37"),
    ));
    out.push((
        "split-03",
        split_plan(spec, g, &[(cpu, 0.03), (other, 0.97)], "split-03"),
    ));
    if spec.devices.len() > 2 {
        let third = DeviceId(2);
        out.push((
            "three-way",
            split_plan(
                spec,
                g,
                &[(cpu, 0.3), (other, 0.4), (third, 0.3)],
                "three-way",
            ),
        ));
    }
    let plan = split_plan(spec, g, &[(cpu, 0.37), (other, 0.63)], "elided");
    if plan
        .layout(g)
        .expect("layout")
        .nodes
        .iter()
        .any(|n| n.elided)
    {
        out.push(("elided", plan));
    }
    out
}

/// The resources the fault scenarios target on one spec, cycled by seed.
fn fault_targets(spec: &SocSpec) -> Vec<ResourceId> {
    match spec.find(DeviceKind::Gpu) {
        Some(gpu) => spec
            .find(DeviceKind::Npu)
            .map_or(vec![ResourceId(gpu.0)], |npu| {
                vec![ResourceId(gpu.0), ResourceId(npu.0)]
            }),
        // The host's neighbour, then the first link (links follow the
        // devices in resource order).
        None => vec![ResourceId(1), ResourceId(spec.devices.len())],
    }
}

/// Runs one plan through the single-run entry under `faults`, folding
/// the outcome into the pin and every run's `(peak_bytes, allocations)`
/// into the memory pin.
fn pin_plan(
    (pin, memory): (&mut Pin, &mut Pin),
    reached: &mut Reached,
    group: &str,
    spec: &SocSpec,
    g: &Graph,
    plan: &ExecutionPlan,
    faults: &FaultPlan,
) {
    match single(spec, g, plan, faults) {
        Ok((result, report)) => {
            reached.retries += report.retries;
            reached.fallbacks += report.fallbacks.len() as u64;
            pin.add(group, &format!("{result:?}|{report:?}"));
            let m = &result.memory;
            memory.add(group, &format!("{} {}", m.peak_bytes, m.allocations));
        }
        Err(e) => {
            reached.typed_errors += 1;
            pin.add(group, &format!("{e:?}"));
        }
    }
}

#[test]
fn engine_results_are_pinned() {
    let mut pin = Pin::default();
    let mut memory = Pin::default();
    let mut reached = Reached::default();
    for (spec_name, spec) in specs() {
        let targets = fault_targets(&spec);
        for net in NETS {
            let g = net.build_miniature();
            for (shape, plan) in shapes(&spec, &g) {
                let group = format!("{spec_name}/{shape}");
                // The fault-free run sizes the fault scenarios; a plan the
                // spec cannot run at all is pinned by its error alone.
                let base = match single(&spec, &g, &plan, &FaultPlan::none()) {
                    Ok((r, _)) => r,
                    Err(e) => {
                        reached.typed_errors += 1;
                        pin.add(&group, &format!("{e:?}"));
                        continue;
                    }
                };
                let mut fault_plans = vec![FaultPlan::none()];
                for scenario in Scenario::ALL {
                    for seed in 0..2u64 {
                        let target = targets[seed as usize % targets.len()];
                        let dispatches = base
                            .trace
                            .records()
                            .iter()
                            .filter(|r| r.resource == target)
                            .count();
                        fault_plans.push(scenario.plan(
                            target,
                            base.latency,
                            dispatches,
                            RetryPolicy::default().max_attempts,
                            seed + 7,
                        ));
                    }
                }
                for faults in &fault_plans {
                    let pins = (&mut pin, &mut memory);
                    pin_plan(pins, &mut reached, &group, &spec, &g, &plan, faults);
                }
            }
        }
    }
    assert!(
        reached.retries > 0 && reached.fallbacks > 0 && reached.typed_errors > 0,
        "the matrix no longer reaches every path: {reached:?}"
    );
    pin.assert("engine matrix", RUNS, EXPECTED);
    memory.assert("memory statistics", MEMORY_RUNS, MEMORY);
}

/// Recorded at the parent of the refactor, re-recorded when every
/// plan's lowering began to elide the concats whose branches only feed
/// them (every plan shape on GoogLeNet and SqueezeNet moved), and again
/// when the matrix dropped its stream variants and kept one single run
/// per plan and fault plan (826 of the 5782 runs). Re-recorded once more
/// when the per-task instance index and the arrival overhead class, both
/// constant on a single run, left the `Debug` text, and again when the
/// memory statistics kept only `allocations` and `peak_bytes` and the
/// metrics lost the always-zero `memory.copied_bytes` counter (`MEMORY`
/// below did not move). The matrix reaches
/// 285 retries, 1103 executed fallbacks and 107 typed errors (all on the
/// mesh, whose fault targets follow its dispatch counts).
const RUNS: usize = 826;
const EXPECTED: u64 = 0x70bd_bc91_106d_9ded;

/// Every successful run's `(peak_bytes, allocations)`, recorded on its
/// own so a change to how the engine counts memory shows here even when
/// the rest of the `Debug` text moves.
const MEMORY_RUNS: usize = 719;
const MEMORY: u64 = 0xb7a4_8a81_01e2_6c8b;
