//! The `DriftAdapter` arm of the serving pins (the `UnitAdapter` arms
//! and the stream pins live in `crates/runtime/tests/serving_pins.rs`,
//! below the planner): fleets served with μLayer-emitted ladders and a
//! learning adapter per instance, under every storm, hashed and
//! compared with constants recorded before the serving loops were
//! unified. A serving refactor leaves the constants alone.

use simcore::{ArrivalKind, FleetScenario, SimSpan};
use testkit::fnv1a;
use ulayer::{DriftAdapter, ULayer};
use unn::{ModelId, Weights};
use uruntime::{run_fleet, FleetCohort, FleetConfig, FleetNetwork, InstanceAdapter};
use usoc::SocSpec;

fn drift_adapter() -> Box<dyn InstanceAdapter> {
    Box::new(DriftAdapter::new())
}

#[test]
fn drift_adapted_fleets_under_every_storm_are_pinned() {
    let graph = ModelId::SqueezeNet.build_miniature();
    let weights = Weights::random(&graph, 7).expect("weights");
    let net = FleetNetwork::new("squeezenet-mini", graph, weights);
    let cohorts: Vec<FleetCohort> = SocSpec::evaluated()
        .iter()
        .map(|spec| {
            let rt = ULayer::new(spec.clone()).expect("runtime");
            let ladder = rt.degradation_ladder(&net.graph, None).expect("ladder");
            FleetCohort::build(spec, &net.graph, &ladder).expect("cohort")
        })
        .collect();

    let mut groups: Vec<(&str, u64)> = Vec::new();
    let mut reached = [0u64; 6];
    let storms = [None]
        .into_iter()
        .chain(FleetScenario::ALL.into_iter().map(Some));
    for storm in storms {
        let mut acc = 0u64;
        for arrivals in ArrivalKind::ALL {
            for (queue_capacity, deadline) in [
                (8usize, SimSpan::ZERO),
                (1, SimSpan::ZERO),
                (8, SimSpan::from_millis(500)),
            ] {
                for (plan_cache, seed) in [(true, 1u64), (false, 1), (true, 42)] {
                    let cfg = FleetConfig {
                        devices: 24,
                        frames: 32,
                        seed,
                        arrivals,
                        deadline,
                        queue_capacity,
                        plan_cache,
                        ..FleetConfig::default()
                    };
                    let r = run_fleet(&net, &cohorts, storm, &cfg, &drift_adapter).expect("fleet");
                    r.check_invariants().expect("invariants");
                    for (total, n) in reached.iter_mut().zip([
                        r.rejected,
                        r.retries,
                        r.fallbacks,
                        r.throttled,
                        r.missed,
                        r.plan_misses,
                    ]) {
                        *total += n;
                    }
                    acc = (acc ^ fnv1a(r.digest().as_bytes()))
                        .rotate_left(9)
                        .wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        groups.push((storm.map_or("none", |s| s.name()), acc));
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "matrix no longer reaches a path: rejected, retries, fallbacks, throttled, missed, \
         plan misses = {reached:?}"
    );
    let rendered: Vec<String> = groups
        .iter()
        .map(|(g, h)| format!("{g}: {h:#018x}"))
        .collect();
    assert_eq!(rendered, PINNED, "simulated fleet behaviour moved");
}

// Recorded at the commit before the serving loops were unified.
const PINNED: [&str; 5] = [
    "none: 0x4f8d009cb66837e4",
    "throttle-wave: 0x77b078c4a196dc44",
    "gpu-loss: 0x0980acfb2d41a4cd",
    "flaky-epidemic: 0x06c6da686fea5eb1",
    "link-partition: 0x386eb6967ff2e91f",
];
