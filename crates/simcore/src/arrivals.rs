//! Seeded arrival processes for overload scenarios.
//!
//! The serving layer needs *deterministic* offered-load traces the same
//! way the fault machinery needs deterministic fault plans: a scenario
//! named in a test or on the CLI must reproduce exactly from its seed.
//! [`ArrivalProcess`] mirrors [`crate::faults::Scenario`]: a small
//! closed set of load shapes, each expanded into concrete arrival
//! instants by a [`testkit::Rng`] stream derived from
//! `seed ^ fnv1a(name)`, so different processes with the same seed do
//! not correlate.
//!
//! Three shapes cover the overload experiments:
//!
//! - **fixed** — one frame every `interval` (a camera sensor).
//! - **bursty** — on/off: bursts of closely-spaced frames separated by
//!   seeded idle gaps, with the same *long-run* mean rate as `fixed`.
//! - **poisson** — memoryless gaps drawn by inverse-CDF from the
//!   exponential distribution (open-world request traffic).

use testkit::{fnv1a, Rng};

use crate::time::{SimSpan, SimTime};

/// The CLI-nameable shape of an [`ArrivalProcess`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Evenly spaced arrivals.
    Fixed,
    /// On/off bursts around the same long-run mean.
    Bursty,
    /// Exponential (memoryless) inter-arrival gaps.
    Poisson,
}

impl ArrivalKind {
    /// Every kind, in CLI order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Fixed,
        ArrivalKind::Bursty,
        ArrivalKind::Poisson,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Fixed => "fixed",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Poisson => "poisson",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<ArrivalKind> {
        ArrivalKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A parameterized arrival process, expandable into concrete arrival
/// instants with [`ArrivalProcess::times`]. The first arrival is always
/// at `t = 0` and the sequence is non-decreasing.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// One arrival every `interval`, exactly.
    Fixed {
        /// Inter-arrival spacing.
        interval: SimSpan,
    },
    /// Bursts of `burst_len` frames spaced `burst_interval` apart,
    /// separated by idle gaps jittered around `idle_mean(len)` so the
    /// long-run rate matches the nominal mean.
    Bursty {
        /// Intra-burst spacing (much tighter than the mean).
        burst_interval: SimSpan,
        /// Inclusive range of frames per burst, drawn per burst.
        burst_len: (usize, usize),
        /// Nominal mean inter-arrival over the whole trace.
        mean: SimSpan,
    },
    /// Exponential inter-arrival gaps with the given mean (inverse-CDF
    /// sampling: `gap = -ln(1 - u) * mean`).
    Poisson {
        /// Mean inter-arrival gap.
        mean_interval: SimSpan,
    },
}

impl ArrivalProcess {
    /// The standard parameterization of `kind` at a mean inter-arrival
    /// of `mean`: `fixed` uses it verbatim, `bursty` packs frames 4x
    /// tighter inside bursts of 4..=9 frames (idle gaps restore the
    /// long-run mean), `poisson` draws exponential gaps around it.
    pub fn from_kind(kind: ArrivalKind, mean: SimSpan) -> ArrivalProcess {
        match kind {
            ArrivalKind::Fixed => ArrivalProcess::Fixed { interval: mean },
            ArrivalKind::Bursty => ArrivalProcess::Bursty {
                burst_interval: mean / 4,
                burst_len: (4, 9),
                mean,
            },
            ArrivalKind::Poisson => ArrivalProcess::Poisson {
                mean_interval: mean,
            },
        }
    }

    /// The shape of this process.
    pub fn kind(&self) -> ArrivalKind {
        match self {
            ArrivalProcess::Fixed { .. } => ArrivalKind::Fixed,
            ArrivalProcess::Bursty { .. } => ArrivalKind::Bursty,
            ArrivalProcess::Poisson { .. } => ArrivalKind::Poisson,
        }
    }

    /// Expands the process into `n` arrival instants, deterministically
    /// in `seed`. The stream is salted with the kind name so `fixed` and
    /// `poisson` at the same seed do not share randomness.
    pub fn times(&self, n: usize, seed: u64) -> Vec<SimTime> {
        let mut rng =
            Rng::seed_from_u64(seed ^ fnv1a(self.kind().name().as_bytes()).rotate_left(11));
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Fixed { interval } => {
                for k in 0..n as u64 {
                    out.push(SimTime::ZERO + interval * k);
                }
            }
            ArrivalProcess::Bursty {
                burst_interval,
                burst_len: (lo, hi),
                mean,
            } => {
                let mut t = SimTime::ZERO;
                while out.len() < n {
                    let len = rng.gen_range(lo..=hi.max(lo));
                    for _ in 0..len {
                        if out.len() == n {
                            break;
                        }
                        out.push(t);
                        t += burst_interval;
                    }
                    // A burst of L frames already consumed (L-1) tight
                    // gaps plus the trailing one above; the idle gap that
                    // keeps the long-run mean at `mean` is
                    // L*mean - L*burst_interval, jittered +-20%.
                    let idle = (mean * len as u64).max(burst_interval * len as u64)
                        - burst_interval * len as u64;
                    let jitter = 0.8 + 0.4 * rng.unit_f64();
                    t += idle * jitter;
                }
            }
            ArrivalProcess::Poisson { mean_interval } => {
                let mut t = SimTime::ZERO;
                for _ in 0..n {
                    out.push(t);
                    let u = rng.unit_f64();
                    t += mean_interval * (-(1.0 - u).ln());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(times: &[SimTime]) -> f64 {
        let total = times.last().unwrap().since(times[0]).as_secs_f64();
        total / (times.len() - 1) as f64
    }

    #[test]
    fn kinds_round_trip_names() {
        for k in ArrivalKind::ALL {
            assert_eq!(ArrivalKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ArrivalKind::from_name("nope"), None);
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let mean = SimSpan::from_millis(10);
        for kind in ArrivalKind::ALL {
            let p = ArrivalProcess::from_kind(kind, mean);
            assert_eq!(p.times(64, 7), p.times(64, 7), "{kind} not deterministic");
            if kind != ArrivalKind::Fixed {
                assert_ne!(p.times(64, 7), p.times(64, 8), "{kind} ignores the seed");
            }
        }
    }

    #[test]
    fn all_processes_start_at_zero_and_are_monotone() {
        let mean = SimSpan::from_millis(5);
        for kind in ArrivalKind::ALL {
            let times = ArrivalProcess::from_kind(kind, mean).times(100, 3);
            assert_eq!(times.len(), 100);
            assert_eq!(times[0], SimTime::ZERO);
            for w in times.windows(2) {
                assert!(w[0] <= w[1], "{kind} not monotone: {w:?}");
            }
        }
    }

    #[test]
    fn fixed_is_exactly_periodic() {
        let times = ArrivalProcess::Fixed {
            interval: SimSpan::from_micros(250),
        }
        .times(10, 99);
        for (k, t) in times.iter().enumerate() {
            assert_eq!(t.as_nanos(), 250_000 * k as u64);
        }
    }

    #[test]
    fn bursty_has_tight_bursts_and_long_gaps() {
        let mean = SimSpan::from_millis(10);
        let times = ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(200, 5);
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].since(w[0]).as_secs_f64())
            .collect();
        let tight = gaps
            .iter()
            .filter(|&&g| g < mean.as_secs_f64() / 2.0)
            .count();
        let long = gaps
            .iter()
            .filter(|&&g| g > mean.as_secs_f64() * 2.0)
            .count();
        assert!(tight > gaps.len() / 2, "no bursts: {tight}/{}", gaps.len());
        assert!(long > 5, "no idle gaps: {long}");
        // Long-run mean stays near the nominal mean.
        let m = mean_gap(&times);
        assert!(
            (m / mean.as_secs_f64() - 1.0).abs() < 0.35,
            "long-run mean drifted: {m}"
        );
    }

    #[test]
    fn poisson_mean_approximates_nominal() {
        let mean = SimSpan::from_millis(2);
        let times = ArrivalProcess::from_kind(ArrivalKind::Poisson, mean).times(2000, 11);
        let m = mean_gap(&times);
        assert!(
            (m / mean.as_secs_f64() - 1.0).abs() < 0.15,
            "poisson mean off: {m}"
        );
    }
}
