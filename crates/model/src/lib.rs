//! # segbus-model
//!
//! Core domain model for the SegBus segmented-bus platform and the
//! Packet Synchronous Data Flow (PSDF) application specification, as
//! described in *"A Performance Estimation Technique for the SegBus
//! Distributed Architecture"* (Niazi, Seceleanu, Tenhunen — TUCS TR 980,
//! ICPP 2010).
//!
//! The crate is dependency-free and provides the shared vocabulary used by
//! every other crate in the workspace:
//!
//! * [`psdf`] — processes, packet flows `(Pt, D, T, C)` and applications;
//! * [`platform`] — segments, clock domains, border units, the central
//!   arbiter and platform instances;
//! * [`mapping`] — the allocation of application processes onto segments
//!   (the *Platform Specific Model*, PSM);
//! * [`matrix`] — the device-to-device communication matrix derived from a
//!   PSDF (paper Fig. 8);
//! * [`validate`] — the structural constraints the paper encodes in OCL,
//!   reproduced as Rust checks with stable error codes;
//! * [`time`] — picosecond-resolution time and per-domain clock arithmetic.
//!
//! # Quick example
//!
//! ```
//! use segbus_model::prelude::*;
//!
//! // Two processes connected by one flow of 72 items, order 1, 250 ticks
//! // of processing per (36-item) package.
//! let mut app = Application::new("demo");
//! let p0 = app.add_process(Process::initial("P0"));
//! let p1 = app.add_process(Process::final_("P1"));
//! app.add_flow(Flow::new(p0, p1, 72, 1, 250)).unwrap();
//!
//! // A two-segment platform, 36-item packages.
//! let platform = Platform::builder("mini")
//!     .package_size(36)
//!     .ca_clock(ClockDomain::from_mhz(111.0))
//!     .segment("S1", ClockDomain::from_mhz(91.0))
//!     .segment("S2", ClockDomain::from_mhz(98.0))
//!     .build()
//!     .unwrap();
//!
//! // Map P0 to segment 0 and P1 to segment 1.
//! let mut alloc = Allocation::new(platform.segment_count());
//! alloc.assign(p0, SegmentId(0));
//! alloc.assign(p1, SegmentId(1));
//!
//! let psm = Psm::new(platform, app, alloc).unwrap();
//! assert_eq!(psm.matrix().items(p0, p1), 72);
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod digest;
pub mod error;
pub mod ids;
pub mod mapping;
pub mod matrix;
pub mod platform;
pub mod psdf;
pub mod rng;
pub mod stochastic;
pub mod time;
pub mod validate;

pub use diag::{SegbusError, SourceSpan};
pub use digest::{digest_with_slots, Fnv64};
pub use error::ModelError;
pub use ids::{FlowId, ProcessId, SegmentId};
pub use mapping::{Allocation, Psm};
pub use matrix::CommMatrix;
pub use platform::{BorderUnitRef, Platform, PlatformBuilder, Segment, Topology};
pub use psdf::{Application, CostModel, Flow, FlowValues, Process, ProcessKind, Wave};
pub use rng::SmallRng;
pub use stochastic::{sample_psm, Dist, FlowNoise};
pub use time::{ClockDomain, Picos};
pub use validate::{Constraint, Diagnostic, Severity};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::diag::{SegbusError, SourceSpan};
    pub use crate::error::ModelError;
    pub use crate::ids::{FlowId, ProcessId, SegmentId};
    pub use crate::mapping::{Allocation, Psm};
    pub use crate::matrix::CommMatrix;
    pub use crate::platform::{Platform, Segment, Topology};
    pub use crate::psdf::{Application, CostModel, Flow, Process, ProcessKind};
    pub use crate::time::{ClockDomain, Picos};
}
