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
//! `DESIGN.md` §4; the timing knobs live in [`TimingParams`], whose
//! default is the paper's *estimator* (clock-domain synchronisation, grant
//! latencies and master-response delays deliberately skipped — §3.6
//! "Emulation and estimation").
//!
//! Beyond the paper's single-shot run, the crate provides pipelined
//! multi-frame execution ([`Emulator::run_frames`]), trace [`analysis`],
//! [`energy`] attribution, [`vcd`] waveform export and a [`parallel`]
//! sweep runner.
//!
//! ```
//! use segbus_apps::mp3;
//! use segbus_core::{Emulator, EmulatorConfig};
//!
//! let psm = mp3::three_segment_psm();
//! let report = Emulator::new(EmulatorConfig::default()).run(&psm);
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
    analyze_trace, bus_utilisation, gantt_csv, latency_stats, package_latencies,
    trace_latency_stats, trace_package_latencies, wave_boundaries, wave_durations, BuActivity,
    BusAnalysis, BusUtilisation, LatencyStats, SegmentActivity,
};
pub use cache::{job_digest, job_digest_from, BatchJob, CacheStats, CachedPool, ReportCache};
pub use config::{ArbitrationPolicy, EmulatorConfig, ProducerRelease, TimingParams};
pub use counters::{BuCounters, CaCounters, FuTimes, SaCounters};
pub use energy::{estimate_energy, EnergyBreakdown, EnergyModel};
pub use engine::{Emulator, Engine, EnginePlan, LowerBoundScratch, PlanDelta};
pub use gantt::ascii_gantt;
pub use montecarlo::{run_monte_carlo, McOptions, McReport, McStats, UtilisationSpread};
pub use parallel::{run_many, run_many_with, SweepPool};
pub use persist::DiskStore;
pub use precheck::{is_emulable, strict_validate};
pub use reference::ReferenceEmulator;
pub use report::EmulationReport;
pub use sbt::{read_trace, SbtTrace, SbtWriter};
pub use trace::{TraceEvent, TraceKind, TraceLog, TraceSink};
pub use vcd::to_vcd;
