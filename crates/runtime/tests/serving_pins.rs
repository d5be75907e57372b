//! Absolute pins on the serving layer's simulated behaviour.
//!
//! Every other serve / mesh / fleet test compares one run with another
//! run of the same code (same seed twice, FIFO vs shuffled, storm vs
//! calm), so a change that moves behaviour *consistently* passes all of
//! them. These pins hash every public field of the reports over
//! matrices that reach the reject, shed, retry, fallback, throttle,
//! deadline-miss and partition paths, and compare the hashes with
//! constants recorded before the three dispatch loops were folded into
//! one serving core. The constants are the contract: a refactor of the
//! serving layer must leave them alone. Only the two entry-point shims
//! (`stream`, `mesh_stream`) follow the public API.
//!
//! On a mismatch the test prints one hash per matrix group, so the same
//! test run on two checkouts shows which group moved.

use std::fmt::Write as _;

use simcore::{
    ArrivalKind, ArrivalProcess, DeviceLoss, FaultPlan, FleetScenario, LinkFaultScenario,
    ResourceId, RetryPolicy, SimSpan, SimTime, ThrottleWindow, TransientFault,
};
use testkit::fnv1a;
use unn::{Graph, ModelId, Weights};
use uruntime::{
    execute_plan, run_fleet, run_fleet_with_faults, serve_stream, single_processor_plan,
    ExecutionPlan, FleetCohort, FleetConfig, FleetNetwork, FleetReport, FrameFate, InstanceAdapter,
    LadderRung, NodePlacement, ServeConfig, ServeReport, UnitAdapter,
};
use usoc::{DeviceId, DtypePlan, SocSpec};
use utensor::DType;

// ---------------------------------------------------------------------
// Entry-point shims: the only lines that follow the public API.
// ---------------------------------------------------------------------

/// The mesh bookkeeping beside a serving report: `(links, down links
/// per frame, frames during partition, partition-degraded frames)`.
type MeshStats = (usize, Vec<usize>, u64, u64);

fn stream(
    spec: &SocSpec,
    g: &Graph,
    ladder: &[LadderRung],
    arrivals: &[SimTime],
    cfg: &ServeConfig,
) -> ServeReport {
    let r = serve_stream(spec, g, ladder, arrivals, cfg, &FaultPlan::none()).expect("serve");
    // A single SoC has no links: no partition bookkeeping to pin.
    assert_eq!(
        (r.links, r.frames_during_partition, r.partition_degraded),
        (0, 0, 0)
    );
    r
}

fn mesh_stream(
    spec: &SocSpec,
    g: &Graph,
    ladder: &[LadderRung],
    arrivals: &[SimTime],
    cfg: &ServeConfig,
    faults: &FaultPlan,
) -> (ServeReport, MeshStats) {
    let r = serve_stream(spec, g, ladder, arrivals, cfg, faults).expect("mesh");
    r.check_invariants().expect("mesh invariants");
    let stats = (
        r.links,
        r.down_links_at_arrival.clone(),
        r.frames_during_partition,
        r.partition_degraded,
    );
    (r, stats)
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// Every public field of a serving report, frames and rendered metrics
/// included, as one string.
fn serve_text(r: &ServeReport, mesh: Option<&MeshStats>) -> String {
    let mut s = String::new();
    for f in &r.frames {
        let fate = match f.fate {
            FrameFate::Executed { rung } => format!("E{rung}"),
            FrameFate::Rejected => "R".into(),
            FrameFate::Shed => "S".into(),
        };
        let _ = write!(
            s,
            "{} {} {} {} {} {fate};",
            f.frame,
            f.arrival.as_nanos(),
            f.start.as_nanos(),
            f.finish.as_nanos(),
            f.depth_at_arrival
        );
    }
    let nanos = |v: &[SimSpan]| v.iter().map(|x| x.as_nanos()).collect::<Vec<_>>();
    let _ = write!(
        s,
        "|{:?}|{:?}|{:?}|{} {} {} {} {} {} {}|{:?}|{}",
        r.rung_labels,
        nanos(&r.rung_latency),
        r.rung_counts,
        r.offered,
        r.completed,
        r.degraded,
        r.shed,
        r.rejected,
        r.queue_capacity,
        r.queue_peak,
        nanos(&r.latencies),
        r.metrics.render()
    );
    if let Some((links, down, during, degraded)) = mesh {
        let _ = write!(s, "|{links} {down:?} {during} {degraded}");
    }
    s
}

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

// ---------------------------------------------------------------------
// Single-SoC streams.
// ---------------------------------------------------------------------

fn squeezenet() -> Graph {
    ModelId::SqueezeNet.build_miniature()
}

fn rung(label: &str, plan: ExecutionPlan) -> LadderRung {
    LadderRung {
        label: label.into(),
        plan,
        predicted: SimSpan::from_millis(1),
    }
}

/// Full 0.5/0.5 cooperative split, then single-CPU, then single-GPU.
fn soc_ladder(spec: &SocSpec, g: &Graph) -> Vec<LadderRung> {
    let split = ExecutionPlan::new(
        g,
        spec,
        g.nodes()
            .iter()
            .map(|n| {
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![
                            (spec.cpu(), DtypePlan::proc_friendly_cpu(), 0.5),
                            (spec.gpu(), DtypePlan::proc_friendly_gpu(), 0.5),
                        ],
                    }
                } else {
                    NodePlacement::single(spec.cpu(), DType::QUInt8)
                }
            })
            .collect(),
        "pin-full",
    )
    .expect("split plan");
    vec![
        rung("full", split),
        rung(
            "single-cpu",
            single_processor_plan(g, spec, spec.cpu(), DType::QUInt8).expect("cpu"),
        ),
        rung(
            "single-gpu",
            single_processor_plan(g, spec, spec.gpu(), DType::QUInt8).expect("gpu"),
        ),
    ]
}

#[test]
fn single_soc_streams_are_pinned() {
    let g = squeezenet();
    let mut pin = Pin::default();
    let (mut rejected, mut shed, mut degraded) = (0, 0, 0);
    for spec in [SocSpec::exynos_7420(), SocSpec::exynos_7880()] {
        let ladder = soc_ladder(&spec, &g);
        let full = execute_plan(&spec, &g, &ladder[0].plan)
            .expect("full")
            .latency;
        for kind in ArrivalKind::ALL {
            let group = format!("{}/{}", spec.name, kind.name());
            // Underload, 2x overload, 5x overload.
            for (num, den) in [(3u64, 2u64), (1, 2), (1, 5)] {
                let mean = SimSpan::from_nanos((full.as_nanos() * num / den).max(1));
                for queue_capacity in [1usize, 3, 8] {
                    for deadline_x in [1u64, 2, 4] {
                        for seed in [1u64, 7, 42] {
                            let arrivals = ArrivalProcess::from_kind(kind, mean).times(40, seed);
                            let cfg = ServeConfig {
                                queue_capacity,
                                deadline: full * deadline_x,
                            };
                            let r = stream(&spec, &g, &ladder, &arrivals, &cfg);
                            r.check_invariants().expect("invariants");
                            rejected += r.rejected;
                            shed += r.shed - r.rejected;
                            degraded += r.degraded;
                            pin.add(&group, &serve_text(&r, None));
                        }
                    }
                }
            }
        }
        // Equal timestamps: three volleys of simultaneous arrivals.
        let volley: Vec<SimTime> = (0..18u64)
            .map(|k| SimTime::ZERO + (full * 3u64) * (k / 6))
            .collect();
        for queue_capacity in [1usize, 4] {
            let cfg = ServeConfig {
                queue_capacity,
                deadline: full * 3u64,
            };
            let r = stream(&spec, &g, &ladder, &volley, &cfg);
            r.check_invariants().expect("invariants");
            pin.add(&format!("{}/volley", spec.name), &serve_text(&r, None));
        }
    }
    assert!(
        rejected > 0 && shed > 0 && degraded > 0,
        "matrix no longer reaches a path: rejected {rejected} shed {shed} degraded {degraded}"
    );
    pin.assert("single-SoC streams", 490, PIN_SINGLE_SOC);
}

// ---------------------------------------------------------------------
// Mesh streams under link faults.
// ---------------------------------------------------------------------

/// A two-node split between the far node and node 1 first (its
/// footprint crosses every link), then single-node rungs from the far
/// node one hop closer at a time, down to the host alone.
fn mesh_ladder(spec: &SocSpec, g: &Graph) -> Vec<LadderRung> {
    let split = ExecutionPlan::new(
        g,
        spec,
        g.nodes()
            .iter()
            .map(|n| {
                if n.kind.is_distributable() {
                    NodePlacement::Split {
                        parts: vec![
                            (DeviceId(3), DtypePlan::proc_friendly_cpu(), 0.5),
                            (DeviceId(1), DtypePlan::proc_friendly_cpu(), 0.5),
                        ],
                    }
                } else {
                    NodePlacement::single(spec.cpu(), DType::QUInt8)
                }
            })
            .collect(),
        "pin-mesh-split",
    )
    .expect("mesh split plan");
    let mut ladder = vec![rung("split-3-1", split)];
    for d in [3usize, 2, 1, 0] {
        ladder.push(rung(
            &format!("node-{d}"),
            single_processor_plan(g, spec, DeviceId(d), DType::QUInt8).expect("node plan"),
        ));
    }
    ladder
}

#[test]
fn mesh_streams_under_link_faults_are_pinned() {
    let spec = SocSpec::mcu_mesh(4);
    let g = ModelId::LeNet.build_miniature();
    let ladder = mesh_ladder(&spec, &g);
    let full = execute_plan(&spec, &g, &ladder[0].plan)
        .expect("full")
        .latency;
    let ndev = spec.devices.len();
    let frames = 32usize;
    let mut pin = Pin::default();
    let (mut partition_degraded, mut during, mut rejected, mut shed) = (0, 0, 0, 0);
    let mut run = |pin: &mut Pin,
                   group: &str,
                   arrivals: &[SimTime],
                   cfg: &ServeConfig,
                   faults: &FaultPlan| {
        let (r, stats) = mesh_stream(&spec, &g, &ladder, arrivals, cfg, faults);
        during += stats.2;
        partition_degraded += stats.3;
        rejected += r.rejected;
        shed += r.shed - r.rejected;
        pin.add(group, &serve_text(&r, Some(&stats)));
    };
    for kind in ArrivalKind::ALL {
        for (num, den) in [(2u64, 1u64), (1, 2)] {
            let mean = SimSpan::from_nanos(full.as_nanos() * num / den);
            for queue_capacity in [1usize, 4] {
                for deadline_x in [2u64, 4] {
                    let cfg = ServeConfig {
                        queue_capacity,
                        deadline: full * deadline_x,
                    };
                    for seed in [3u64, 11, 42] {
                        let arrivals = ArrivalProcess::from_kind(kind, mean).times(frames, seed);
                        let horizon = arrivals[frames - 1].since(SimTime::ZERO) + cfg.deadline;
                        run(&mut pin, "none", &arrivals, &cfg, &FaultPlan::none());
                        for scenario in LinkFaultScenario::ALL {
                            for link in 0..spec.links.len() {
                                let faults = scenario.plan(
                                    ResourceId(ndev + link),
                                    horizon,
                                    4 * frames,
                                    RetryPolicy::default().max_attempts,
                                    seed,
                                );
                                let group = format!("{}/link{link}", scenario.name());
                                run(&mut pin, &group, &arrivals, &cfg, &faults);
                            }
                        }
                    }
                }
            }
        }
    }
    // Two faults at once: a throttled first link and a cut last link.
    let arrivals = ArrivalProcess::from_kind(ArrivalKind::Fixed, full * 2u64).times(frames, 1);
    let both = FaultPlan::none()
        .with_throttle(ThrottleWindow {
            resource: ResourceId(ndev),
            factor: 0.5,
            from: SimTime::ZERO,
            until: SimTime::ZERO + full * 40u64,
        })
        .with_loss(DeviceLoss {
            resource: ResourceId(ndev + 2),
            at: SimTime::ZERO + full * 20u64,
        });
    let cfg = ServeConfig {
        queue_capacity: 2,
        deadline: full * 3u64,
    };
    run(&mut pin, "throttle+cut", &arrivals, &cfg, &both);
    assert!(
        partition_degraded > 0 && during > partition_degraded && rejected > 0 && shed > 0,
        "matrix no longer reaches a path: partition-degraded {partition_degraded} of {during}, \
         rejected {rejected}, shed {shed}"
    );
    pin.assert("mesh streams", 1153, PIN_MESH);
}

// ---------------------------------------------------------------------
// Fleets.
// ---------------------------------------------------------------------

fn unit_adapter() -> Box<dyn InstanceAdapter> {
    Box::<UnitAdapter>::default()
}

fn fleet_net() -> FleetNetwork {
    let graph = squeezenet();
    let weights = Weights::random(&graph, 11).expect("weights");
    FleetNetwork::new("squeezenet-mini", graph, weights)
}

/// GPU-F16 full, GPU-QUInt8 coarse and (unless `gpu_only`) a CPU floor,
/// realized on both evaluated SoCs.
fn fleet_cohorts(net: &FleetNetwork, gpu_only: bool) -> Vec<FleetCohort> {
    [SocSpec::exynos_7420(), SocSpec::exynos_7880()]
        .iter()
        .map(|spec| {
            let g = &net.graph;
            let mut ladder = vec![
                rung(
                    "full",
                    single_processor_plan(g, spec, spec.gpu(), DType::F16).expect("full"),
                ),
                rung(
                    "coarse",
                    single_processor_plan(g, spec, spec.gpu(), DType::QUInt8).expect("coarse"),
                ),
            ];
            if !gpu_only {
                ladder.push(rung(
                    "single-cpu",
                    single_processor_plan(g, spec, spec.cpu(), DType::QUInt8).expect("floor"),
                ));
            }
            FleetCohort::build(spec, g, &ladder).expect("cohort")
        })
        .collect()
}

/// What the matrix must keep reaching.
#[derive(Default)]
struct Reached {
    rejected: u64,
    shed: u64,
    degraded: u64,
    retries: u64,
    fallbacks: u64,
    throttled: u64,
    missed: u64,
    gpu_lost: u64,
}

impl Reached {
    fn fold(&mut self, r: &FleetReport) {
        r.check_invariants().expect("fleet invariants");
        self.rejected += r.rejected;
        self.shed += r.shed - r.rejected;
        self.degraded += r.degraded;
        self.retries += r.retries;
        self.fallbacks += r.fallbacks;
        self.throttled += r.throttled;
        self.missed += r.missed;
        self.gpu_lost += r.gpu_lost_devices;
    }

    fn assert_all(&self) {
        let all = [
            self.rejected,
            self.shed,
            self.degraded,
            self.retries,
            self.fallbacks,
            self.throttled,
            self.missed,
            self.gpu_lost,
        ];
        assert!(
            all.iter().all(|&n| n > 0),
            "matrix no longer reaches a path: rejected, shed, degraded, retries, fallbacks, \
             throttled, missed, gpu_lost = {all:?}"
        );
    }
}

#[test]
fn fleets_under_every_storm_are_pinned() {
    let net = fleet_net();
    let cohorts = fleet_cohorts(&net, false);
    let mut pin = Pin::default();
    let mut reached = Reached::default();
    let storms = [None]
        .into_iter()
        .chain(FleetScenario::ALL.into_iter().map(Some));
    for storm in storms {
        let group = storm.map_or("none", |s| s.name());
        for arrivals in ArrivalKind::ALL {
            for queue_capacity in [1usize, 8] {
                // Auto (twice the slowest full rung), relaxed, tight.
                for deadline in [
                    SimSpan::ZERO,
                    SimSpan::from_millis(500),
                    SimSpan::from_micros(400),
                ] {
                    for plan_cache in [true, false] {
                        for seed in [1u64, 42] {
                            let cfg = FleetConfig {
                                devices: 20,
                                frames: 16,
                                seed,
                                arrivals,
                                deadline,
                                queue_capacity,
                                plan_cache,
                                ..FleetConfig::default()
                            };
                            let r = run_fleet(&net, &cohorts, storm, &cfg, &unit_adapter)
                                .expect("fleet");
                            reached.fold(&r);
                            pin.add(group, &r.digest());
                        }
                    }
                }
            }
        }
    }
    reached.assert_all();
    pin.assert("fleets", 360, PIN_FLEET);
}

/// The corners the storm matrix leaves out: explicit load, a tiny plan
/// cache, a one-device fleet, a two-attempt retry budget, hand-placed
/// faults, and a ladder with no GPU-free rung (a persistent GPU fault
/// there loses the frame).
#[test]
fn fleet_corners_are_pinned() {
    let net = fleet_net();
    let cohorts = fleet_cohorts(&net, false);
    let mut pin = Pin::default();
    let base = FleetConfig {
        devices: 16,
        frames: 24,
        seed: 9,
        ..FleetConfig::default()
    };
    for (label, cfg) in [
        (
            "explicit-load",
            FleetConfig {
                mean_interval: SimSpan::from_micros(150),
                deadline: SimSpan::from_millis(2),
                ..base.clone()
            },
        ),
        (
            "tiny-plan-cache",
            FleetConfig {
                plan_cache_capacity: 1,
                perturb: 0.4,
                ..base.clone()
            },
        ),
        (
            "one-device",
            FleetConfig {
                devices: 1,
                frames: 64,
                ..base.clone()
            },
        ),
        (
            "two-attempts",
            FleetConfig {
                max_attempts: 2,
                deadline: SimSpan::from_millis(500),
                ..base.clone()
            },
        ),
    ] {
        for storm in [FleetScenario::FlakyEpidemic, FleetScenario::ThrottleWave] {
            let r = run_fleet(&net, &cohorts, Some(storm), &cfg, &unit_adapter).expect("fleet");
            r.check_invariants().expect("invariants");
            pin.add(label, &r.digest());
        }
    }

    // Hand-placed faults on every instance: a deep GPU throttle, then a
    // CPU throttle, a persistent and a recoverable GPU transient, and a
    // late GPU loss.
    let r = run_fleet_with_faults(
        &net,
        &cohorts,
        &base,
        "hand-placed",
        &|info| {
            let at = |f: f64| SimTime::ZERO + info.horizon * f;
            FaultPlan::none()
                .with_throttle(ThrottleWindow {
                    resource: info.gpu,
                    factor: 0.1,
                    from: SimTime::ZERO,
                    until: at(0.3),
                })
                .with_throttle(ThrottleWindow {
                    resource: ResourceId(0),
                    factor: 0.5,
                    from: at(0.2),
                    until: at(0.6),
                })
                .with_transient(TransientFault {
                    resource: info.gpu,
                    ordinal: 1 + info.instance % 3,
                    failures: info.max_attempts,
                })
                .with_transient(TransientFault {
                    resource: info.gpu,
                    ordinal: 5,
                    failures: 1,
                })
                .with_loss(DeviceLoss {
                    resource: info.gpu,
                    at: at(0.8),
                })
        },
        &unit_adapter,
    )
    .expect("hand-placed fleet");
    r.check_invariants().expect("invariants");
    assert!(
        r.retries > 0
            && r.fallbacks > 0
            && r.throttled > 0
            && r.missed > 0
            && r.gpu_lost_devices > 0
    );
    pin.add("hand-placed", &r.digest());

    // No GPU-free rung: persistent GPU faults lose their frames.
    let gpu_only = fleet_cohorts(&net, true);
    let cfg = FleetConfig {
        deadline: SimSpan::from_millis(500),
        ..base
    };
    let r = run_fleet(
        &net,
        &gpu_only,
        Some(FleetScenario::FlakyEpidemic),
        &cfg,
        &unit_adapter,
    )
    .expect("gpu-only fleet");
    r.check_invariants().expect("invariants");
    assert!(r.retries > 0 && r.fallbacks == 0 && r.shed > r.rejected);
    pin.add("gpu-only", &r.digest());

    pin.assert("fleet corners", 10, PIN_FLEET_CORNERS);
}

// Recorded at the commit before the serving loops were unified; a
// serving refactor leaves these alone.
const PIN_SINGLE_SOC: u64 = 0x7b4a_8644_8808_47ee;
const PIN_MESH: u64 = 0x85a9_1f7c_413b_7b71;
const PIN_FLEET: u64 = 0xcbfc_5394_76ec_9ea7;
const PIN_FLEET_CORNERS: u64 = 0xf982_9bc7_5cba_9874;
