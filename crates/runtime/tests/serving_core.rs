//! The serving step in isolation: `Server::offer` driven by a scripted
//! policy that answers at random — rungs ineligible, estimates off,
//! dispatches served on another rung or lost, planning charged or not —
//! over random rung tables and arrival streams with repeated
//! timestamps. Whatever the policy says, the step's own contract holds:
//! exact frame partition, bounded waiting room, causal and FIFO times,
//! first fit in ladder order, and a tally that is the fold of the
//! records it returned.

use simcore::{SimSpan, SimTime};
use testkit::{prop_assert, prop_assert_eq, props, Rng};
use uruntime::serving::{Realized, RealizedRung, ServePolicy, Server, Tally};
use uruntime::{FrameFate, FrameRecord};

/// Answers every question of the step from its own random stream and
/// logs what it was asked.
struct Scripted {
    rng: Rng,
    /// Planning spans charged, one per admitted frame.
    planned: Vec<SimSpan>,
    /// Rung indices estimated for the frame being offered, in call order.
    estimated: Vec<usize>,
    /// `(rung dispatched, start)` of the frame being offered, if any.
    dispatched: Option<(usize, SimTime)>,
}

impl Scripted {
    fn span(&mut self, max_ns: u64) -> SimSpan {
        SimSpan::from_nanos(self.rng.gen_range(0..=max_ns))
    }
}

impl ServePolicy for Scripted {
    fn planning(&mut self) -> SimSpan {
        let span = if self.rng.gen_bool(0.5) {
            SimSpan::ZERO
        } else {
            self.span(300)
        };
        self.planned.push(span);
        span
    }

    fn estimate(&mut self, rung: &RealizedRung, _arrival: SimTime) -> Option<SimSpan> {
        self.estimated
            .push(rung.label.parse().expect("labels are indices"));
        if self.rng.gen_bool(0.3) {
            return None;
        }
        let nominal = rung.latency.as_nanos();
        Some(self.span(2 * nominal))
    }

    fn realize(
        &mut self,
        rungs: &[RealizedRung],
        r: usize,
        start: SimTime,
        _estimate: SimSpan,
        device_free: &mut [SimTime],
    ) -> Realized {
        self.dispatched = Some((r, start));
        // The dispatched rung is occupied for a while whatever happens.
        let burn = self.span(3 * rungs[r].latency.as_nanos());
        for &d in &rungs[r].devices {
            device_free[d] = start + burn;
        }
        match self.rng.gen_range(0..10u32) {
            0 | 1 => Realized::Lost,
            2 | 3 => {
                // Served on another rung after the first one burned.
                let rung = self.rng.gen_range(0..rungs.len());
                let finish = start + burn + self.span(1_000);
                for &d in &rungs[rung].devices {
                    device_free[d] = finish;
                }
                Realized::Served { rung, finish }
            }
            _ => Realized::Served {
                rung: r,
                finish: start + burn,
            },
        }
    }
}

/// Rebuilds a tally from the records alone.
fn fold(records: &[FrameRecord], rungs: usize) -> Tally {
    let mut t = Tally {
        rung_counts: vec![0; rungs],
        ..Tally::default()
    };
    for r in records {
        t.offered += 1;
        match r.fate {
            FrameFate::Executed { rung } => {
                if rung == 0 {
                    t.completed += 1;
                } else {
                    t.degraded += 1;
                }
                t.rung_counts[rung] += 1;
                t.latencies.push(r.finish.since(r.arrival));
            }
            FrameFate::Rejected => {
                t.rejected += 1;
                t.shed += 1;
            }
            FrameFate::Shed => t.shed += 1,
        }
        if r.fate != FrameFate::Rejected {
            let waited = usize::from(r.start > r.arrival);
            t.queue_peak = t.queue_peak.max(r.depth_at_arrival + waited);
        }
    }
    t
}

props! {
    #![cases(256)]

    fn the_step_keeps_its_contract_whatever_the_policy_answers(
        seed in 0u64..u64::MAX,
        devices in 1usize..5,
        nrungs in 1usize..6,
        frames in 1usize..80,
        capacity in 1usize..6,
        deadline_ns in 0u64..6_000
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let rungs: Vec<RealizedRung> = (0..nrungs)
            .map(|i| {
                let mut footprint: Vec<usize> =
                    (0..devices).filter(|_| rng.gen_bool(0.5)).collect();
                if footprint.is_empty() {
                    footprint.push(rng.gen_range(0..devices));
                }
                RealizedRung {
                    label: i.to_string(),
                    devices: footprint,
                    latency: SimSpan::from_nanos(rng.gen_range(1..=1_000u64)),
                    energy_j: 0.0,
                    predicted: SimSpan::ZERO,
                }
            })
            .collect();
        // Non-decreasing arrivals; a third of the gaps are zero.
        let mut t = SimTime::ZERO;
        let arrivals: Vec<SimTime> = (0..frames)
            .map(|_| {
                if !rng.gen_bool(0.33) {
                    t += SimSpan::from_nanos(rng.gen_range(1..=1_500u64));
                }
                t
            })
            .collect();
        let deadline = SimSpan::from_nanos(deadline_ns);

        let mut policy = Scripted {
            rng: Rng::seed_from_u64(seed ^ 0x5eed),
            planned: Vec::new(),
            estimated: Vec::new(),
            dispatched: None,
        };
        let mut server = Server::new(devices, nrungs);
        let mut records: Vec<FrameRecord> = Vec::new();
        let mut prev_start = SimTime::ZERO;
        for (k, &arrival) in arrivals.iter().enumerate() {
            policy.estimated.clear();
            policy.dispatched = None;
            let plans_before = policy.planned.len();
            // The waiting room, by its definition: admitted frames
            // whose dispatch is still ahead of this arrival.
            let waiting = records
                .iter()
                .filter(|r| r.fate != FrameFate::Rejected && r.start > arrival)
                .count();
            let rec = server.offer(k, arrival, capacity, deadline, &rungs, &mut policy);

            prop_assert_eq!(rec.frame, k);
            prop_assert_eq!(rec.arrival, arrival);
            prop_assert_eq!(rec.depth_at_arrival, waiting);
            prop_assert!(rec.arrival <= rec.start && rec.start <= rec.finish,
                "frame {k}: non-causal {:?}", rec);
            if rec.fate == FrameFate::Rejected {
                prop_assert!(waiting >= capacity, "frame {k} rejected at depth {waiting}");
                prop_assert_eq!(policy.planned.len(), plans_before);
                prop_assert!(policy.estimated.is_empty() && policy.dispatched.is_none());
                prop_assert_eq!(rec.start, arrival);
            } else {
                prop_assert!(waiting < capacity, "frame {k} admitted at depth {waiting}");
                // Planned exactly once, and ready no earlier than FIFO
                // order plus that planning.
                prop_assert_eq!(policy.planned.len(), plans_before + 1);
                let ready = arrival.max(prev_start) + policy.planned[plans_before];
                prop_assert!(rec.start >= ready, "frame {k} started before it was ready");
                prev_start = rec.start;
                // First fit: rungs are asked in ladder order, and the
                // scan stops at the one dispatched.
                let asked: Vec<usize> = (0..policy.estimated.len()).collect();
                prop_assert_eq!(&policy.estimated, &asked);
                match policy.dispatched {
                    Some((r, start)) => {
                        prop_assert_eq!(policy.estimated.len(), r + 1);
                        prop_assert_eq!(rec.start, start);
                    }
                    None => {
                        // Nothing fit: every rung was asked, the frame
                        // is shed at its ready time with zero service.
                        prop_assert_eq!(policy.estimated.len(), nrungs);
                        prop_assert_eq!(rec.fate, FrameFate::Shed);
                        prop_assert_eq!((rec.start, rec.finish), (ready, ready));
                    }
                }
            }
            records.push(rec);
        }

        let tally = &server.tally;
        prop_assert!(tally.audit(capacity).is_ok(), "{:?}", tally.audit(capacity));
        prop_assert!(tally.queue_peak <= capacity);
        prop_assert_eq!(tally, &fold(&records, nrungs));
    }
}

#[test]
fn the_audit_names_each_way_a_tally_can_leak() {
    let sound = Tally {
        offered: 4,
        completed: 1,
        degraded: 1,
        shed: 2,
        rejected: 1,
        queue_peak: 2,
        rung_counts: vec![1, 1],
        latencies: vec![SimSpan::from_nanos(5); 2],
    };
    assert_eq!(sound.audit(2), Ok(()));
    let broken = |edit: fn(&mut Tally)| {
        let mut t = sound.clone();
        edit(&mut t);
        t.audit(2).unwrap_err()
    };
    assert!(broken(|t| t.queue_peak = 3).contains("exceeded its bound"));
    assert!(broken(|t| t.offered = 5).contains("accounting leaks"));
    assert!(broken(|t| t.rejected = 3).contains("exceeds shed"));
    assert!(broken(|t| t.rung_counts[1] = 2).contains("rung counts"));
    assert!(broken(|t| t.latencies.clear()).contains("latency samples"));
}
