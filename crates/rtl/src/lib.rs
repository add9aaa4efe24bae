//! # segbus-rtl
//!
//! An independent, tick-stepped, signal-latency-accurate simulator of the
//! SegBus platform — the stand-in for the paper's **real platform**
//! (the RTL implementation against which the authors measure the
//! emulator's ~95 % estimation accuracy, §4).
//!
//! Where the estimator in `segbus-core` is an event-driven model that
//! *deliberately skips* second-order timing (clock-domain synchronisation
//! at the BUs, SA grant set/reset latency, master response time — §3.6),
//! this simulator advances every clock domain edge by edge and models each
//! platform element as an explicit finite-state machine:
//!
//! * functional units compute, raise request lines, respond to grants and
//!   drive the bus beat by beat;
//! * segment arbiters sample request lines, set and reset grants with
//!   latency, and detect transfer completion;
//! * border units carry a single package and expose their *full* flag
//!   through a two-tick synchroniser into the neighbouring clock domain;
//! * the central arbiter polls for synchronised inter-segment requests,
//!   reserves whole paths (circuit switching) and releases segments in a
//!   cascade, each action costing CA ticks.
//!
//! Because both engines implement the same operational semantics
//! (DESIGN.md §4) but this one pays for every signal, its execution times
//! are strictly larger; `estimated / actual` reproduces the paper's
//! accuracy analysis (EXPERIMENTS.md E5).
//!
//! ```
//! use segbus_apps::mp3;
//! use segbus_core::Engine;
//! use segbus_rtl::RtlSimulator;
//!
//! let psm = mp3::three_segment_psm();
//! let estimated = Engine::default().try_run(&psm).unwrap().execution_time();
//! let actual = RtlSimulator::default().run(&psm).unwrap().execution_time();
//! let accuracy = estimated.0 as f64 / actual.0 as f64;
//! assert!(accuracy > 0.85 && accuracy < 1.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod sim;

pub use config::RtlConfig;
pub use sim::{RtlError, RtlSimulator};
