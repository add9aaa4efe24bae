//! Emulator configuration: the protocol's tick costs and feature switches.
//!
//! The paper's estimator deliberately skips timing factors it deems
//! second-order (§3.6): the two-tick synchronisation between adjacent clock
//! domains at the BUs, the SA grant set/reset latency and the master's
//! response time. The constants below are the protocol skeleton that
//! remains, and the estimator has no other timing; the skipped factors are
//! modelled by the independent reference simulator (`segbus-rtl`, run by
//! `segbus reference`).
//!
//! Every cost is in clock ticks of the domain where the activity runs (see
//! DESIGN.md §4 for the mapping of activities to domains).

/// Ticks the SA spends registering an FU's transfer request.
pub const REQUEST_TICKS: u64 = 1;
/// Header/address beats preceding the payload on the segment bus.
pub const HEADER_TICKS: u64 = 2;
/// Ticks the SA spends closing a transaction (releasing the bus).
pub const RELEASE_TICKS: u64 = 1;
/// Ticks the CA spends registering a forwarded inter-segment request.
pub const CA_REQUEST_TICKS: u64 = 1;
/// Ticks the CA spends setting the grant signals of one path.
pub const CA_GRANT_TICKS: u64 = 1;
/// Ticks the CA spends resetting one segment's grant (cascade release).
pub const CA_RELEASE_TICKS: u64 = 1;
/// Ticks the downstream SA needs to notice a loaded BU (this is the
/// minimum *waiting period* of a package inside a BU).
pub const WP_SAMPLE_TICKS: u64 = 1;

/// Bus-occupancy ticks of one package transaction on a segment
/// (request + header + payload + release), for package size `s` items at
/// one item per beat: `s + 4`.
#[inline]
pub const fn bus_transaction_ticks(s: u32) -> u64 {
    REQUEST_TICKS + HEADER_TICKS + s as u64 + RELEASE_TICKS
}

/// When a producer may start computing its next package after handing the
/// previous one to the platform.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProducerRelease {
    /// Package-level flow control: the producer waits until the package
    /// reaches its destination (send-and-wait-acknowledge). This is the
    /// default; it reflects the single-package depth of the BUs and the
    /// strictly sequenced PSDF handoffs, and reproduces the paper's
    /// placement sensitivity (moving P9 across two BUs costs ~10 %).
    #[default]
    AfterDelivery,
    /// Fire-and-forget: the producer resumes as soon as its local bus
    /// phase completes (the package may still be travelling through BUs).
    /// Ablation A6 quantifies the difference.
    AfterLocalPhase,
}

/// How a segment arbiter picks among simultaneously pending local
/// requests ("The SA of each bus segment decides which device, within the
/// segment, will get access to the bus in the following transfer burst",
/// paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ArbitrationPolicy {
    /// Serve requests in arrival order.
    #[default]
    Fifo,
    /// Fixed priority: the lowest process id wins (models a hard-wired
    /// priority encoder; can starve late processes under contention).
    FixedPriority,
    /// Fair queuing: the producer served least often goes first (models a
    /// round-robin arbiter).
    FairRoundRobin,
}

/// Top-level emulator configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EmulatorConfig {
    /// Producer flow-control policy.
    pub producer_release: ProducerRelease,
    /// Local bus arbitration discipline.
    pub arbitration: ArbitrationPolicy,
    /// Record a package-level trace (needed for the Fig. 10/11 series;
    /// costs memory proportional to the package count).
    pub trace: bool,
}

impl EmulatorConfig {
    /// The default configuration with tracing enabled.
    pub fn traced() -> EmulatorConfig {
        EmulatorConfig {
            trace: true,
            ..EmulatorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_ticks() {
        // 1 + 2 + 36 + 1 = 40
        assert_eq!(bus_transaction_ticks(36), 40);
        assert_eq!(bus_transaction_ticks(18), 22);
    }

    #[test]
    fn default_is_untraced() {
        assert!(!EmulatorConfig::default().trace);
        assert!(EmulatorConfig::traced().trace);
    }
}
