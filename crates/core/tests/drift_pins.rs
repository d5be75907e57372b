//! Absolute pins on the drift adapter's state.
//!
//! Seeded walks drive `DriftAdapter::observe`, `finish_frame` and
//! `mark_lost` (directly and through `uruntime::InstanceAdapter`) over
//! five devices — one of them a sparse high index, as on a
//! `SocSpec::mcu_mesh` — and every `WorkClass`, with degenerate
//! observations mixed in (zero predictions, watchdog-length spans,
//! near-zero observations). After every step the test hashes what the
//! planner and the fleet read: every `factor(device, class)` in
//! device-major, `WorkClass::ALL`-minor order (the plan cache's factor
//! snapshot), the lost set in ascending order, and each device's
//! `InstanceAdapter::correction` (its worst factor). Devices the walk
//! never touches, below and above the touched ones, are read too.
//!
//! The constants were recorded before the adapter's storage was
//! changed; a change to how the adapter stores its state must leave
//! them alone. On a mismatch the test prints every walk's hash.

use simcore::SimSpan;
use testkit::{fnv1a, Rng};
use ulayer::DriftAdapter;
use uruntime::InstanceAdapter;
use usoc::{DeviceId, WorkClass};

/// Devices the walks observe and lose.
const WALKED: [usize; 5] = [0, 1, 2, 3, 11];
/// Devices read after every step: the walked ones plus untouched ones
/// between and beyond them.
const READ: [usize; 8] = [0, 1, 2, 3, 4, 7, 11, 40];

const STEPS: usize = 600;
const SEEDS: [u64; 6] = [1, 2, 3, 7, 42, 0xD81F];

/// One walk's `fnv1a` over the state read after every step.
const EXPECTED: [u64; 6] = [
    0x53e74f0c197d69ea,
    0xc728a0c949fb9111,
    0xcaee4f89e7ea516e,
    0xbe546d6001e421e2,
    0x25b2d8a843776d84,
    0x7856b9eb0322c8d0,
];

fn span_ns(rng: &mut Rng) -> SimSpan {
    match rng.gen_range(0..10u32) {
        0 => SimSpan::ZERO,
        1 => SimSpan::from_nanos(1),
        2 => SimSpan::from_secs_f64(rng.gen_range(1.0..20.0)),
        _ => SimSpan::from_nanos(rng.gen_range(1_000..4_000_000u64)),
    }
}

fn read_state(a: &DriftAdapter, out: &mut Vec<u8>) {
    for &d in &READ {
        for &class in &WorkClass::ALL {
            out.extend_from_slice(&a.factor(DeviceId(d), class).to_bits().to_le_bytes());
        }
    }
    for &d in &READ {
        if a.is_lost(DeviceId(d)) {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
    out.push(0xff);
    for &d in &READ {
        let c = InstanceAdapter::correction(a, DeviceId(d));
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

fn walk(seed: u64) -> (u64, DriftAdapter) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut a = DriftAdapter::new();
    let mut bytes = Vec::new();
    for _ in 0..STEPS {
        let device = DeviceId(WALKED[rng.gen_range(0..WALKED.len())]);
        match rng.gen_range(0..200u32) {
            0..=109 => {
                let class = WorkClass::ALL[rng.gen_range(0..WorkClass::ALL.len())];
                let (p, o) = (span_ns(&mut rng), span_ns(&mut rng));
                a.observe(device, class, p, o);
            }
            110..=149 => {
                let (p, o) = (span_ns(&mut rng), span_ns(&mut rng));
                InstanceAdapter::observe(&mut a, device, p, o);
            }
            150..=198 => {
                if rng.gen_bool(0.5) {
                    a.finish_frame();
                } else {
                    InstanceAdapter::finish_frame(&mut a);
                }
            }
            _ => a.mark_lost(device),
        }
        read_state(&a, &mut bytes);
    }
    (fnv1a(&bytes), a)
}

#[test]
fn drift_state_matches_recorded_pins() {
    let got: Vec<u64> = SEEDS.iter().map(|&s| walk(s).0).collect();
    if got != EXPECTED {
        for (seed, h) in SEEDS.iter().zip(&got) {
            eprintln!("seed {seed:#x}: {h:#018x}");
        }
        panic!("drift adapter state moved: {got:#018x?}");
    }
}

/// The pins mean something only if the walks reach the states that
/// matter: some device lost, some surviving device drifted, and the
/// untouched devices still at 1.0.
#[test]
fn walks_reach_lost_drifted_and_untouched_devices() {
    let ends: Vec<DriftAdapter> = SEEDS.iter().map(|&s| walk(s).1).collect();
    let lost = |a: &DriftAdapter| WALKED.iter().filter(|&&d| a.is_lost(DeviceId(d))).count();
    assert!(ends.iter().any(|a| lost(a) > 0), "no walk loses a device");
    assert!(
        ends.iter().all(|a| lost(a) < WALKED.len()),
        "a walk loses every device"
    );
    assert!(ends.iter().any(|a| WALKED.iter().any(|&d| {
        !a.is_lost(DeviceId(d))
            && WorkClass::ALL
                .iter()
                .any(|&c| a.factor(DeviceId(d), c) != 1.0)
    })));
    for a in &ends {
        for d in [4, 7, 40] {
            assert_eq!(InstanceAdapter::correction(a, DeviceId(d)), 1.0);
        }
    }
}
