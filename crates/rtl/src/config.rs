//! Reference-simulator configuration.

/// Signal-level latencies of the reference platform, in clock ticks of the
/// domain where each activity runs.
///
/// The defaults are the paper's stated magnitudes: "a value of two clock
/// ticks is usually considered, at the translation of any signal across two
/// clock domains" and grant/latency figures of "2 to 3 clock ticks" (§4,
/// Discussion).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtlConfig {
    /// Synchroniser depth for any signal crossing two clock domains (at
    /// least 1).
    pub sync_ticks: u64,
    /// SA latency to set a grant line (at least 1).
    pub sa_grant_ticks: u64,
    /// Master latency to respond to its grant before driving the bus (at
    /// least 1).
    pub master_response_ticks: u64,
    /// SA latency to detect that a transfer finished (at least 1).
    pub detect_ticks: u64,
    /// SA latency to reset the grant line and re-arm arbitration (at
    /// least 1).
    pub grant_reset_ticks: u64,
    /// Header/address beats preceding the payload.
    pub header_beats: u64,
    /// Per-package software/DMA setup inside a real functional unit. The
    /// emulator idealises FUs as bare counters (§3.3); the platform's FU
    /// wrappers spend a few extra ticks per transfer setting up each
    /// package, which is one of the error sources the paper's discussion
    /// attributes the estimation gap to.
    pub fu_setup_ticks: u64,
    /// CA ticks consumed to issue one path grant.
    pub ca_grant_ticks: u64,
    /// CA ticks consumed to reset one segment's grant (cascade release).
    pub ca_release_ticks: u64,
    /// Safety cap on simulated time, in ticks of the *fastest* domain;
    /// exceeding it aborts the run with [`crate::RtlError::Deadlock`].
    pub max_ticks: u64,
}

impl Default for RtlConfig {
    fn default() -> Self {
        RtlConfig {
            sync_ticks: 2,
            sa_grant_ticks: 2,
            master_response_ticks: 1,
            detect_ticks: 1,
            grant_reset_ticks: 2,
            header_beats: 2,
            fu_setup_ticks: 8,
            ca_grant_ticks: 2,
            ca_release_ticks: 1,
            max_ticks: 50_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_magnitudes() {
        let c = RtlConfig::default();
        assert_eq!(c.sync_ticks, 2);
        assert!(c.sa_grant_ticks >= 1 && c.sa_grant_ticks <= 3);
        assert!(c.grant_reset_ticks >= 1 && c.grant_reset_ticks <= 3);
        assert!(c.max_ticks > 1_000_000);
    }
}
