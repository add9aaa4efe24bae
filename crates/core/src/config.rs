//! Emulator configuration: timing parameters and feature switches.
//!
//! The paper's estimator deliberately skips timing factors it deems
//! second-order (§3.6): the two-tick synchronisation between adjacent clock
//! domains at the BUs, the SA grant set/reset latency and the master's
//! response time. [`TimingParams::estimator`] reproduces that choice;
//! [`TimingParams::detailed`] switches the skipped factors on, which is
//! what the independent reference simulator (`segbus-rtl`) models natively.

/// Per-activity tick costs of the platform protocol.
///
/// All values are in clock ticks of the domain where the activity runs
/// (see DESIGN.md §4 for the mapping of activities to domains).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimingParams {
    /// Ticks the SA spends registering an FU's transfer request.
    pub request_ticks: u64,
    /// Header/address beats preceding the payload on the segment bus.
    pub header_ticks: u64,
    /// Ticks the SA spends closing a transaction (releasing the bus).
    pub release_ticks: u64,
    /// Ticks the CA spends registering a forwarded inter-segment request.
    pub ca_request_ticks: u64,
    /// Ticks the CA spends setting the grant signals of one path.
    pub ca_grant_ticks: u64,
    /// Ticks the CA spends resetting one segment's grant (cascade release).
    pub ca_release_ticks: u64,
    /// Ticks the downstream SA needs to notice a loaded BU (this is the
    /// minimum *waiting period* of a package inside a BU).
    pub wp_sample_ticks: u64,
    /// Clock-domain synchroniser depth at each BU crossing (the paper's
    /// "value of two clock ticks … at the translation of any signal across
    /// two clock domains"). **Skipped by the estimator.**
    pub bu_sync_ticks: u64,
    /// SA grant-set latency ("time necessary for the SAs to set the grant
    /// signal for a particular request"). **Skipped by the estimator.**
    pub sa_grant_ticks: u64,
    /// Master response latency after seeing its grant. **Skipped by the
    /// estimator.**
    pub master_response_ticks: u64,
    /// SA grant-reset latency. **Skipped by the estimator.**
    pub sa_grant_reset_ticks: u64,
}

impl TimingParams {
    /// The paper's estimator: protocol skeleton only, skipped factors zero.
    pub const fn estimator() -> TimingParams {
        TimingParams {
            request_ticks: 1,
            header_ticks: 2,
            release_ticks: 1,
            ca_request_ticks: 1,
            ca_grant_ticks: 1,
            ca_release_ticks: 1,
            wp_sample_ticks: 1,
            bu_sync_ticks: 0,
            sa_grant_ticks: 0,
            master_response_ticks: 0,
            sa_grant_reset_ticks: 0,
        }
    }

    /// All factors on, with the paper's "2 to 3 clock ticks" magnitudes.
    /// Used for ablation A3' (running the *estimation* engine with detailed
    /// timing); the authoritative detailed model is `segbus-rtl`.
    pub const fn detailed() -> TimingParams {
        TimingParams {
            bu_sync_ticks: 2,
            sa_grant_ticks: 2,
            master_response_ticks: 1,
            sa_grant_reset_ticks: 2,
            ..TimingParams::estimator()
        }
    }

    /// Bus-occupancy ticks of one package transaction on a segment
    /// (request + grant + response + header + payload + release), for
    /// package size `s` items at one item per beat.
    #[inline]
    pub fn bus_transaction_ticks(&self, s: u32) -> u64 {
        self.request_ticks
            + self.sa_grant_ticks
            + self.master_response_ticks
            + self.header_ticks
            + s as u64
            + self.release_ticks
            + self.sa_grant_reset_ticks
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::estimator()
    }
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
    /// Protocol timing parameters.
    pub timing: TimingParams,
    /// Producer flow-control policy.
    pub producer_release: ProducerRelease,
    /// Local bus arbitration discipline.
    pub arbitration: ArbitrationPolicy,
    /// Record a package-level trace (needed for the Fig. 10/11 series;
    /// costs memory proportional to the package count).
    pub trace: bool,
}

impl EmulatorConfig {
    /// Estimator timing with tracing enabled.
    pub fn traced() -> EmulatorConfig {
        EmulatorConfig {
            trace: true,
            ..EmulatorConfig::default()
        }
    }

    /// Detailed timing (see [`TimingParams::detailed`]).
    pub fn detailed() -> EmulatorConfig {
        EmulatorConfig {
            timing: TimingParams::detailed(),
            ..EmulatorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_skips_detailed_factors() {
        let t = TimingParams::estimator();
        assert_eq!(t.bu_sync_ticks, 0);
        assert_eq!(t.sa_grant_ticks, 0);
        assert_eq!(t.master_response_ticks, 0);
        assert_eq!(t.sa_grant_reset_ticks, 0);
    }

    #[test]
    fn detailed_enables_them() {
        let t = TimingParams::detailed();
        assert_eq!(t.bu_sync_ticks, 2);
        assert_eq!(t.sa_grant_ticks, 2);
        assert_eq!(t.master_response_ticks, 1);
        assert_eq!(t.sa_grant_reset_ticks, 2);
        // The skeleton is unchanged.
        assert_eq!(t.header_ticks, TimingParams::estimator().header_ticks);
    }

    #[test]
    fn transaction_ticks() {
        let t = TimingParams::estimator();
        // 1 + 0 + 0 + 2 + 36 + 1 + 0 = 40
        assert_eq!(t.bus_transaction_ticks(36), 40);
        assert_eq!(t.bus_transaction_ticks(18), 22);
        let d = TimingParams::detailed();
        assert_eq!(d.bus_transaction_ticks(36), 45);
    }

    #[test]
    fn default_is_estimator() {
        assert_eq!(TimingParams::default(), TimingParams::estimator());
        assert!(!EmulatorConfig::default().trace);
        assert!(EmulatorConfig::traced().trace);
    }
}
