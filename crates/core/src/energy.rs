//! Energy estimation from emulation counters.
//!
//! The paper's conclusion notes that early configuration decisions
//! "improve power consumption up to some extent" (§5, citing the
//! application-development-flow study \[9\]); this module makes that
//! quantitative. Every counter the emulator already collects has a natural
//! energy weight: active arbiter ticks, idle (clock-gated) arbiter ticks,
//! border-unit transfer ticks (the expensive dual-clock FIFOs) and FU
//! compute ticks. The defaults are synthetic but dimensionally sensible
//! 90 nm-class numbers; calibrate [`EnergyModel`] to a target process for
//! absolute figures — the *comparisons* between configurations are what
//! the methodology needs.

use segbus_model::ids::SegmentId;

use crate::report::EmulationReport;

/// Per-tick energy weights, in picojoules.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EnergyModel {
    /// SA actively arbitrating / driving a transaction.
    pub sa_busy_pj: f64,
    /// SA idling (clock running, no transaction).
    pub sa_idle_pj: f64,
    /// CA actively processing a request / grant / release.
    pub ca_busy_pj: f64,
    /// CA polling idle.
    pub ca_idle_pj: f64,
    /// One BU tick (load, wait or unload — dual-clock FIFO activity).
    pub bu_pj: f64,
    /// One FU compute tick.
    pub fu_compute_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            sa_busy_pj: 6.0,
            sa_idle_pj: 0.8,
            ca_busy_pj: 8.0,
            ca_idle_pj: 1.0,
            bu_pj: 4.0,
            fu_compute_pj: 12.0,
        }
    }
}

/// Energy attribution of one run, in picojoules.
#[derive(Clone, PartialEq, Debug)]
pub struct EnergyBreakdown {
    /// Per-segment arbiter energy (busy + idle).
    pub sa_pj: Vec<f64>,
    /// Central-arbiter energy.
    pub ca_pj: f64,
    /// Per-border-unit energy.
    pub bu_pj: Vec<f64>,
    /// Per-process compute energy.
    pub fu_pj: Vec<f64>,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.sa_pj.iter().sum::<f64>()
            + self.ca_pj
            + self.bu_pj.iter().sum::<f64>()
            + self.fu_pj.iter().sum::<f64>()
    }

    /// Total energy in microjoules (for reports).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Energy of one segment's arbiter.
    pub fn sa(&self, seg: SegmentId) -> f64 {
        self.sa_pj[seg.index()]
    }

    /// Communication share of the total (arbiters + BUs vs FU compute).
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            return 0.0;
        }
        (total - self.fu_pj.iter().sum::<f64>()) / total
    }
}

/// Attribute energy to every platform element of a finished run.
pub fn estimate_energy(report: &EmulationReport, model: &EnergyModel) -> EnergyBreakdown {
    let sa_pj = report
        .sas
        .iter()
        .map(|sa| {
            let idle = sa.tct.saturating_sub(sa.busy_ticks);
            sa.busy_ticks as f64 * model.sa_busy_pj + idle as f64 * model.sa_idle_pj
        })
        .collect();
    let ca_idle = report.ca.tct.saturating_sub(report.ca.busy_ticks);
    let ca_pj = report.ca.busy_ticks as f64 * model.ca_busy_pj + ca_idle as f64 * model.ca_idle_pj;
    let bu_pj = report
        .bus
        .iter()
        .map(|b| b.tct as f64 * model.bu_pj)
        .collect();
    let fu_pj = report
        .fus
        .iter()
        .map(|f| f.compute_ticks as f64 * model.fu_compute_pj)
        .collect();
    EnergyBreakdown {
        sa_pj,
        ca_pj,
        bu_pj,
        fu_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::run;

    #[test]
    fn mp3_energy_is_positive_and_dominated_by_compute() {
        let psm = segbus_apps::mp3::three_segment_psm();
        let r = run(&psm);
        let e = estimate_energy(&r, &EnergyModel::default());
        assert!(e.total_pj() > 0.0);
        assert_eq!(e.sa_pj.len(), 3);
        assert_eq!(e.bu_pj.len(), 2);
        assert_eq!(e.fu_pj.len(), 15);
        // Compute-heavy workload: FU energy > communication energy.
        let frac = e.communication_fraction();
        assert!(frac > 0.0 && frac < 0.5, "communication fraction {frac}");
    }

    #[test]
    fn remote_mapping_costs_more_communication_energy() {
        let local = segbus_apps::mp3::three_segment_psm();
        let moved = segbus_apps::mp3::three_segment_p9_moved_psm();
        let e_local = estimate_energy(&run(&local), &EnergyModel::default());
        let e_moved = estimate_energy(&run(&moved), &EnergyModel::default());
        let bu_local: f64 = e_local.bu_pj.iter().sum();
        let bu_moved: f64 = e_moved.bu_pj.iter().sum();
        assert!(
            bu_moved > bu_local,
            "moving P9 across BUs must raise BU energy: {bu_moved} !> {bu_local}"
        );
        assert!(e_moved.total_pj() > e_local.total_pj());
    }

    #[test]
    fn compute_energy_is_invariant_under_repackaging_per_item() {
        // With a per-item cost model, FU compute ticks (and hence compute
        // energy) are package-size independent; protocol energy is not.
        let mut app = segbus_apps::mp3::mp3_decoder();
        app.set_cost_model(segbus_model::psdf::CostModel::per_item(36).unwrap());
        let platform = segbus_model::platform::paper_three_segment_platform();
        let alloc = segbus_apps::mp3::three_segment_allocation();
        let p36 = segbus_model::mapping::Psm::new(platform, app, alloc).unwrap();
        let p18 = p36.with_package_size(18).unwrap();
        let e36 = estimate_energy(&run(&p36), &EnergyModel::default());
        let e18 = estimate_energy(&run(&p18), &EnergyModel::default());
        let fu36: f64 = e36.fu_pj.iter().sum();
        let fu18: f64 = e18.fu_pj.iter().sum();
        assert!((fu36 - fu18).abs() / fu36 < 0.01, "{fu36} vs {fu18}");
        // BU energy roughly constant (same payload), SA busy energy rises.
        let sa36: f64 = e36.sa_pj.iter().sum();
        let sa18: f64 = e18.sa_pj.iter().sum();
        assert!(sa18 > sa36);
    }

    #[test]
    fn zero_model_gives_zero_energy() {
        let model = EnergyModel {
            sa_busy_pj: 0.0,
            sa_idle_pj: 0.0,
            ca_busy_pj: 0.0,
            ca_idle_pj: 0.0,
            bu_pj: 0.0,
            fu_compute_pj: 0.0,
        };
        let psm = segbus_apps::mp3::three_segment_psm();
        let e = estimate_energy(&run(&psm), &model);
        assert_eq!(e.total_pj(), 0.0);
        assert_eq!(e.communication_fraction(), 0.0);
    }
}
