//! SoC energy accounting.
//!
//! Reproduces the paper's Monsoon power-monitor methodology in model form
//! (§7.1, Figure 15): energy is integrated over the execution —
//!
//! ```text
//! E = Σ_tasks P_active(device) · t_task        (dynamic compute energy)
//!   + P_static · makespan                      (always-on SoC power)
//!   + Σ_tasks bytes · e_DRAM                   (data movement energy)
//! ```
//!
//! This captures the two effects §7.3 credits for μLayer's efficiency:
//! lower makespan cuts the static term, and QUInt8 storage cuts the DRAM
//! term by 4× versus F32.

use std::collections::BTreeMap;

use simcore::SimSpan;

use crate::device::DeviceId;
use crate::error::SocError;
use crate::spec::SocSpec;

/// An itemized energy result, in joules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic compute energy per device.
    pub per_device_j: BTreeMap<DeviceId, f64>,
    /// Always-on SoC energy over the makespan.
    pub static_j: f64,
    /// DRAM traffic energy.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.per_device_j.values().sum::<f64>() + self.static_j + self.dram_j
    }

    /// Total energy in millijoules (the paper's Figure 18 unit).
    pub fn total_mj(&self) -> f64 {
        self.total_j() * 1e3
    }
}

/// Accumulates task costs into an [`EnergyBreakdown`].
pub struct EnergyAccumulator<'a> {
    spec: &'a SocSpec,
    breakdown: EnergyBreakdown,
}

impl<'a> EnergyAccumulator<'a> {
    /// Starts an empty accumulation against `spec`.
    pub fn new(spec: &'a SocSpec) -> Self {
        EnergyAccumulator {
            spec,
            breakdown: EnergyBreakdown::default(),
        }
    }

    /// Adds one executed task: `span` busy time on `device` moving
    /// `bytes` through DRAM.
    pub fn add_task(
        &mut self,
        device: DeviceId,
        span: SimSpan,
        bytes: u64,
    ) -> Result<(), SocError> {
        let dev = self.spec.device(device)?;
        *self.breakdown.per_device_j.entry(device).or_insert(0.0) +=
            dev.active_power_w * span.as_secs_f64();
        self.breakdown.dram_j += bytes as f64 * self.spec.memory.dram_pj_per_byte * 1e-12;
        Ok(())
    }

    /// Closes the accumulation over a schedule of length `makespan`.
    pub fn finish(mut self, makespan: SimSpan) -> EnergyBreakdown {
        self.breakdown.static_j = self.spec.static_power_w * makespan.as_secs_f64();
        self.breakdown
    }
}

/// Convenience: computes energy straight from a simcore trace whose
/// payloads expose `(device, bytes)`.
#[cfg(test)]
pub(crate) fn energy_of_tasks(
    spec: &SocSpec,
    tasks: impl IntoIterator<Item = (DeviceId, SimSpan, u64)>,
    makespan: SimSpan,
) -> Result<EnergyBreakdown, SocError> {
    let mut acc = EnergyAccumulator::new(spec);
    for (dev, span, bytes) in tasks {
        acc.add_task(dev, span, bytes)?;
    }
    Ok(acc.finish(makespan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimSpan {
        SimSpan::from_millis(v)
    }

    #[test]
    fn static_energy_scales_with_makespan() {
        let soc = SocSpec::exynos_7420();
        let e1 = energy_of_tasks(&soc, Vec::new(), ms(100)).unwrap();
        let e2 = energy_of_tasks(&soc, Vec::new(), ms(200)).unwrap();
        assert!((e2.static_j / e1.static_j - 2.0).abs() < 1e-9);
        assert_eq!(e1.dram_j, 0.0);
        assert!((e1.static_j - 0.9 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn device_energy_uses_active_power() {
        let soc = SocSpec::exynos_7420();
        let cpu = soc.cpu();
        let e = energy_of_tasks(&soc, vec![(cpu, ms(100), 0)], ms(100)).unwrap();
        // 4.2 W for 0.1 s = 0.42 J.
        assert!((e.per_device_j[&cpu] - 0.42).abs() < 1e-9);
    }

    #[test]
    fn dram_energy_counts_bytes() {
        let soc = SocSpec::exynos_7420();
        let cpu = soc.cpu();
        let gb = 1_000_000_000u64;
        let e = energy_of_tasks(&soc, vec![(cpu, SimSpan::ZERO, gb)], ms(1)).unwrap();
        // 120 pJ/B * 1e9 B = 0.12 J.
        assert!((e.dram_j - 0.12).abs() < 1e-9);
    }

    #[test]
    fn totals_add_up() {
        let soc = SocSpec::exynos_7880();
        let e = energy_of_tasks(
            &soc,
            vec![(soc.cpu(), ms(50), 1000), (soc.gpu(), ms(80), 2000)],
            ms(100),
        )
        .unwrap();
        let manual = e.per_device_j.values().sum::<f64>() + e.static_j + e.dram_j;
        assert!((e.total_j() - manual).abs() < 1e-12);
        assert!((e.total_mj() - manual * 1e3).abs() < 1e-9);
    }

    #[test]
    fn unknown_device_is_an_error() {
        let soc = SocSpec::exynos_7420();
        let mut acc = EnergyAccumulator::new(&soc);
        assert!(acc.add_task(DeviceId(42), ms(1), 0).is_err());
    }

    #[test]
    fn lower_latency_same_work_wins_on_static_energy() {
        // The §7.3 mechanism: same dynamic work finishing sooner consumes
        // less total energy because the static term shrinks.
        let soc = SocSpec::exynos_7420();
        let work = vec![(soc.cpu(), ms(50), 0u64), (soc.gpu(), ms(50), 0u64)];
        let serial = energy_of_tasks(&soc, work.clone(), ms(100)).unwrap();
        let overlapped = energy_of_tasks(&soc, work, ms(50)).unwrap();
        assert!(overlapped.total_j() < serial.total_j());
    }
}
