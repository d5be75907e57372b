//! The output checks really fail ops: a corrupted tensor, a corrupted plan
//! and a fleet report that breaks its invariants each count as failed ops
//! and contribute no latency sample.

use ulayer_benchmark::harness::pass;
use ulayer_benchmark::span::Recorder;
use ulayer_benchmark::sut::{ExecKind, ExecSut, FleetSut, PlannerSut};

#[test]
fn a_corrupted_tensor_is_a_failed_op() {
    let sut = ExecSut::build(ExecKind::SingleMobilenet, 11).expect("set-up");
    let p = pass(3, &mut Recorder::off(), |i, _| {
        let mut frame = sut.frame()?;
        sut.take_timings();
        if i == 1 {
            frame.corrupt();
        }
        if sut.check(&frame) {
            Ok(1.0)
        } else {
            Err("output differs".into())
        }
    });
    assert_eq!((p.tally.attempted, p.tally.failed), (3, 1));
    assert_eq!(p.op_ms.len(), 2);
    assert!(p.tally.fail_frac() > 0.0);
    assert_eq!(p.failures.len(), 1);
}

#[test]
fn a_plan_that_differs_from_a_scratch_replan_is_a_failed_op() {
    let sut = PlannerSut::build().expect("set-up");
    let mut session = sut.session();
    let p = pass(4, &mut Recorder::off(), |i, _| {
        let mut planned = session.plan_frame(i)?;
        if i == 2 {
            planned.corrupt();
        }
        if session.check(i, &planned) {
            Ok(1.0)
        } else {
            Err("plan differs".into())
        }
    });
    assert_eq!((p.tally.attempted, p.tally.failed), (4, 1));
    assert!(p.tally.fail_frac() > 0.0);
}

#[test]
fn a_fleet_report_that_breaks_its_invariants_is_a_failed_op() {
    let sut = FleetSut::build(11).expect("set-up");
    let p = pass(2, &mut Recorder::off(), |i, _| {
        let mut out = sut.run(16, 8, 11 + i as u64)?;
        if i == 0 {
            out.corrupt();
        }
        out.check().map(|()| 1.0)
    });
    assert_eq!((p.tally.attempted, p.tally.failed), (2, 1));
    assert!(p.tally.fail_frac() > 0.0);
}

#[test]
fn the_same_fleet_seed_gives_the_same_digest() {
    let sut = FleetSut::build(5).expect("set-up");
    let a = sut.run(32, 16, 99).expect("run").digest();
    assert_eq!(a, sut.run(32, 16, 99).expect("run").digest());
    assert_ne!(a, sut.run(32, 16, 100).expect("run").digest());
}
