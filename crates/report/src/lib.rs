//! # segbus-report
//!
//! The experiment harness: one function (and one binary under `src/bin/`)
//! per table or figure of the paper's evaluation, plus the ablations from
//! DESIGN.md §5. Every function returns structured rows so the test suite
//! can assert on them; the binaries print the same rows the paper
//! reports.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_fig8` | Fig. 8 — the communication matrix |
//! | `exp_threeseg` | §4 results block — the 3-segment run print-out (E2) |
//! | `exp_fig10` | Fig. 10 — per-process progress timeline |
//! | `exp_fig11` | Fig. 11 — activity per element, package size 18 vs 36 |
//! | `exp_accuracy` | §4 — estimated vs actual for the three experiments (E5) |
//! | `exp_bu_util` | §4 — BU bottleneck analysis UP/TCT/W̄P (E6) |
//! | `exp_segments` | Fig. 9 configurations compared (E7) |
//! | `exp_place` | A1 — PlaceTool vs the hand allocation |
//! | `exp_sweep` | A2 — package-size sweep |
//! | `exp_costmodel` | A3 — cost-model ablation |
//! | `exp_clocks` | A5 — clock-frequency sensitivity |
//! | `exp_release` | A6 — producer flow-control ablation |
//! | `exp_apps` | A7 — the application library across segment counts |
//! | `exp_energy` | A8 — energy attribution per configuration |
//! | `exp_topology` | A9 — linear vs ring topology |
//! | `exp_arbitration` | A11 — SA arbitration policy under contention |
//! | `exp_streaming` | A12 — pipelined multi-frame throughput |
//! | `exp_gantt` | Gantt CSV of every bus occupation (plotting aid) |

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
