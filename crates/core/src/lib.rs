//! # segbus-core
//!
//! The paper's primary contribution: the **SegBus performance-estimation
//! emulator** (§3). Given a validated PSM ([`segbus_model::Psm`]) the
//! emulator executes the application schedule on a model of the platform
//! and reports, per platform element, the counters the paper prints:
//! total clock ticks (TCT), intra-/inter-segment request counts, package
//! counts through every border unit, per-process start/end times and the
//! total execution time `max(t_SA1, …, t_SAn, t_CA)`.
//!
//! The engine is a deterministic discrete-event simulation over a global
//! picosecond timeline with independent clock domains per segment and for
//! the central arbiter. The operational semantics are documented in
//! `DESIGN.md` §4. The engine has one timing, the paper's *estimator*: the
//! protocol tick costs are constants in [`config`], and clock-domain
//! synchronisation, grant latencies and master-response delays are
//! deliberately skipped (§3.6 "Emulation and estimation"). The reference
//! simulator `segbus-rtl` models those factors.
//!
//! Beyond the paper's single-shot run, the crate provides pipelined
//! multi-frame execution ([`Engine::try_run_frames`]), trace [`analysis`],
//! [`energy`] attribution, [`vcd`] waveform export and a [`parallel`]
//! sweep runner.
//!
//! ```
//! use segbus_apps::mp3;
//! use segbus_core::Engine;
//!
//! let psm = mp3::three_segment_psm();
//! let report = Engine::default().try_run(&psm).expect("the MP3 model is valid");
//! println!("estimated execution time: {:.2} us",
//!          report.execution_time().as_micros_f64());
//! assert!(report.ca.inter_requests > 0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod config;
pub mod counters;
pub mod energy;
pub mod engine;
pub mod fast;
pub mod gantt;
pub mod hist;
pub mod montecarlo;
pub mod parallel;
pub mod persist;
pub mod precheck;
pub mod reference;
pub mod report;
pub mod sbt;
pub mod trace;
pub mod vcd;

pub use analysis::{
    analyze_trace, gantt_csv, trace_latency_stats, trace_package_latencies, wave_boundaries,
    wave_durations, BuActivity, BusAnalysis, LatencyStats, SegmentActivity,
};
pub use cache::{
    job_digest, job_digest_from, BatchJob, CacheStats, CachedPool, CachedReport, ReportCache,
};
pub use config::{ArbitrationPolicy, EmulatorConfig, ProducerRelease};
pub use counters::{BuCounters, CaCounters, FuTimes, SaCounters};
pub use energy::{estimate_energy, EnergyBreakdown, EnergyModel};
pub use engine::{Engine, EnginePlan, PlanDelta};
pub use gantt::ascii_gantt;
pub use montecarlo::{run_monte_carlo, McOptions, McReport, McStats, UtilisationSpread};
pub use parallel::SweepPool;
pub use persist::DiskStore;
pub use precheck::{is_emulable, strict_validate};
pub use reference::ReferenceEmulator;
pub use report::EmulationReport;
pub use sbt::{read_trace, SbtTrace, SbtWriter};
pub use trace::{TraceEvent, TraceKind, TraceLog, TraceSink};
pub use vcd::to_vcd;

#[cfg(test)]
/// Runs over models the in-crate tests build valid.
pub(crate) mod test_support {
    use segbus_model::mapping::Psm;

    use crate::{EmulationReport, EmulatorConfig, Engine, EnginePlan, ReferenceEmulator};

    /// One default-configuration frame of a valid model.
    pub(crate) fn run(psm: &Psm) -> EmulationReport {
        estimate(EmulatorConfig::default(), psm, 1)
    }

    /// [`Engine::try_run_frames`] on a valid model.
    pub(crate) fn estimate(config: EmulatorConfig, psm: &Psm, frames: u64) -> EmulationReport {
        Engine::new(config)
            .try_run_frames(psm, frames)
            .expect("test models are valid")
    }

    /// [`ReferenceEmulator::try_run_frames`] on a valid model.
    pub(crate) fn reference(config: EmulatorConfig, psm: &Psm, frames: u64) -> EmulationReport {
        ReferenceEmulator::new(config)
            .try_run_frames(psm, frames)
            .expect("test models are valid")
    }

    /// [`Engine::run_plan_into`] a fresh report.
    pub(crate) fn run_plan(engine: &mut Engine, plan: &EnginePlan, frames: u64) -> EmulationReport {
        let mut out = EmulationReport::empty();
        engine.run_plan_into(plan, frames, &mut out);
        out
    }
}
