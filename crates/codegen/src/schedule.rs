//! Derivation of per-arbiter schedules from a validated PSM.
//!
//! The schedule is the static counterpart of what the emulator does
//! dynamically: flows grouped into waves, each flow expanded into its
//! per-segment jobs (local transfer, source fill, BU forward, BU deliver)
//! and, for inter-segment flows, a CA path-reservation job.

use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::mapping::Psm;

/// One job in a segment arbiter's schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SaJob {
    /// Grant the local bus to `src` for `packages` packages headed to the
    /// local process `dst`.
    Local {
        /// The flow being served.
        flow: FlowId,
        /// Local producer.
        src: ProcessId,
        /// Local consumer.
        dst: ProcessId,
        /// Number of packages.
        packages: u64,
    },
    /// Grant the local bus to `src` to fill the border unit toward
    /// `toward` (first hop of an inter-segment transfer).
    SourceFill {
        /// The flow being served.
        flow: FlowId,
        /// Local producer.
        src: ProcessId,
        /// Neighbouring segment the BU leads to.
        toward: SegmentId,
        /// Number of packages.
        packages: u64,
    },
    /// Unload the BU on the `from` side and push the package onward into
    /// the BU toward `toward` (transit segment of a multi-hop transfer).
    BuForward {
        /// The flow being served.
        flow: FlowId,
        /// Neighbouring segment the package comes from.
        from: SegmentId,
        /// Neighbouring segment it continues to.
        toward: SegmentId,
        /// Number of packages.
        packages: u64,
    },
    /// Unload the BU on the `from` side and deliver to the local process
    /// `dst` (final hop).
    BuDeliver {
        /// The flow being served.
        flow: FlowId,
        /// Neighbouring segment the package comes from.
        from: SegmentId,
        /// Local consumer.
        dst: ProcessId,
        /// Number of packages.
        packages: u64,
    },
}

impl SaJob {
    /// Packages this job moves.
    pub fn packages(&self) -> u64 {
        match self {
            SaJob::Local { packages, .. }
            | SaJob::SourceFill { packages, .. }
            | SaJob::BuForward { packages, .. }
            | SaJob::BuDeliver { packages, .. } => *packages,
        }
    }

    /// The flow this job belongs to.
    pub fn flow(&self) -> FlowId {
        match self {
            SaJob::Local { flow, .. }
            | SaJob::SourceFill { flow, .. }
            | SaJob::BuForward { flow, .. }
            | SaJob::BuDeliver { flow, .. } => *flow,
        }
    }
}

/// One path reservation in the central arbiter's schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaJob {
    /// The flow being served.
    pub flow: FlowId,
    /// Ordering wave the flow belongs to.
    pub wave: u32,
    /// Source segment.
    pub from: SegmentId,
    /// Destination segment.
    pub to: SegmentId,
    /// Segments to reserve, in travel order.
    pub path: Vec<SegmentId>,
    /// Number of packages (= number of grants for this flow).
    pub packages: u64,
}

/// The complete static schedule of a configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemSchedule {
    /// Per-segment job lists, wave-major then flow order.
    pub sa: Vec<Vec<(u32, SaJob)>>,
    /// CA reservations, wave-major then flow order.
    pub ca: Vec<CaJob>,
    /// Package size the schedule was expanded for.
    pub package_size: u32,
}

impl SystemSchedule {
    /// Derive the schedule from a validated PSM.
    pub fn derive(psm: &Psm) -> SystemSchedule {
        let app = psm.application();
        let platform = psm.platform();
        let s = platform.package_size();
        let mut sa: Vec<Vec<(u32, SaJob)>> = vec![Vec::new(); platform.segment_count()];
        let mut ca = Vec::new();
        for wave in app.waves() {
            for fid in wave.flows {
                let f = app.flow(fid);
                let pkgs = f.packages(s);
                let from = psm.segment_of(f.src);
                let to = psm.segment_of(f.dst);
                if from == to {
                    sa[from.index()].push((
                        wave.order,
                        SaJob::Local {
                            flow: fid,
                            src: f.src,
                            dst: f.dst,
                            packages: pkgs,
                        },
                    ));
                    continue;
                }
                let path = platform.path_segments(from, to);
                ca.push(CaJob {
                    flow: fid,
                    wave: wave.order,
                    from,
                    to,
                    path: path.clone(),
                    packages: pkgs,
                });
                for (hop, &m) in path.iter().enumerate() {
                    let job = if hop == 0 {
                        SaJob::SourceFill {
                            flow: fid,
                            src: f.src,
                            toward: path[1],
                            packages: pkgs,
                        }
                    } else if hop == path.len() - 1 {
                        SaJob::BuDeliver {
                            flow: fid,
                            from: path[hop - 1],
                            dst: f.dst,
                            packages: pkgs,
                        }
                    } else {
                        SaJob::BuForward {
                            flow: fid,
                            from: path[hop - 1],
                            toward: path[hop + 1],
                            packages: pkgs,
                        }
                    };
                    sa[m.index()].push((wave.order, job));
                }
            }
        }
        SystemSchedule {
            sa,
            ca,
            package_size: s,
        }
    }

    /// Number of segments covered.
    pub fn segment_count(&self) -> usize {
        self.sa.len()
    }

    /// Inter-segment requests this schedule predicts for a segment's SA
    /// (one per package of every flow whose source fill happens there).
    pub fn predicted_inter_requests(&self, seg: SegmentId) -> u64 {
        self.sa[seg.index()]
            .iter()
            .map(|(_, j)| match j {
                SaJob::SourceFill { packages, .. } => *packages,
                _ => 0,
            })
            .sum()
    }

    /// Intra-segment work this schedule predicts for a segment's SA:
    /// local packages plus routed BU unloads (forwards and deliveries).
    pub fn predicted_intra_requests(&self, seg: SegmentId) -> u64 {
        self.sa[seg.index()]
            .iter()
            .map(|(_, j)| match j {
                SaJob::Local { packages, .. }
                | SaJob::BuForward { packages, .. }
                | SaJob::BuDeliver { packages, .. } => *packages,
                SaJob::SourceFill { .. } => 0,
            })
            .sum()
    }

    /// Path grants this schedule predicts for the CA (one per package of
    /// every inter-segment flow).
    pub fn predicted_ca_grants(&self) -> u64 {
        self.ca.iter().map(|j| j.packages).sum()
    }

    /// Cascade releases the CA will perform: one per traversed segment per
    /// package.
    pub fn predicted_ca_releases(&self) -> u64 {
        self.ca
            .iter()
            .map(|j| j.packages * j.path.len() as u64)
            .sum()
    }

    /// Packages the schedule pushes into the BU right of `seg` (i.e. from
    /// `seg` toward `seg+1`), counting fills and forwards.
    pub fn predicted_bu_right_loads(&self, seg: SegmentId) -> u64 {
        let next = SegmentId(seg.0 + 1);
        self.sa[seg.index()]
            .iter()
            .map(|(_, j)| match j {
                SaJob::SourceFill {
                    toward, packages, ..
                }
                | SaJob::BuForward {
                    toward, packages, ..
                } if *toward == next => *packages,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segbus_apps::mp3;

    #[test]
    fn mp3_schedule_predicts_paper_counters() {
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        assert_eq!(sched.segment_count(), 3);
        // The §4 print-out: 32 / 0 / 1 inter-segment requests.
        assert_eq!(sched.predicted_inter_requests(SegmentId(0)), 32);
        assert_eq!(sched.predicted_inter_requests(SegmentId(1)), 0);
        assert_eq!(sched.predicted_inter_requests(SegmentId(2)), 1);
        // 33 grants, and the cascade: (31×2 + 1×3) + 1×2 hops... computed:
        assert_eq!(sched.predicted_ca_grants(), 33);
        // P3->P4 crosses 3 segments (1 pkg), P4->P5 crosses 2 (1 pkg), the
        // other 31 packages cross 2 segments each.
        assert_eq!(sched.predicted_ca_releases(), 31 * 2 + 3 + 2);
        // BU12 rightward loads: the paper's 32.
        assert_eq!(sched.predicted_bu_right_loads(SegmentId(0)), 32);
    }

    #[test]
    fn schedule_matches_emulated_counters() {
        for psm in [
            mp3::three_segment_psm(),
            mp3::two_segment_psm(),
            mp3::three_segment_p9_moved_psm(),
        ] {
            let sched = SystemSchedule::derive(&psm);
            let report = segbus_core::Engine::default().try_run(&psm).unwrap();
            for i in 0..sched.segment_count() {
                let seg = SegmentId(i as u16);
                assert_eq!(
                    sched.predicted_inter_requests(seg),
                    report.sas[i].inter_requests,
                    "inter requests, segment {i}"
                );
                assert_eq!(
                    sched.predicted_intra_requests(seg),
                    report.sas[i].intra_requests,
                    "intra requests, segment {i}"
                );
            }
            assert_eq!(sched.predicted_ca_grants(), report.ca.grants);
            assert_eq!(sched.predicted_ca_releases(), report.ca.releases);
        }
    }

    #[test]
    fn jobs_are_wave_ordered() {
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        for seg in &sched.sa {
            let waves: Vec<u32> = seg.iter().map(|(w, _)| *w).collect();
            let mut sorted = waves.clone();
            sorted.sort();
            assert_eq!(waves, sorted, "jobs must be listed wave-major");
        }
        let ca_waves: Vec<u32> = sched.ca.iter().map(|j| j.wave).collect();
        let mut sorted = ca_waves.clone();
        sorted.sort();
        assert_eq!(ca_waves, sorted);
    }

    #[test]
    fn transit_segment_gets_forward_jobs() {
        // P3 (seg1) -> P4 (seg3) transits segment 2.
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let forwards: Vec<_> = sched.sa[1]
            .iter()
            .filter(|(_, j)| matches!(j, SaJob::BuForward { .. }))
            .collect();
        assert_eq!(forwards.len(), 1);
        if let (
            _,
            SaJob::BuForward {
                from,
                toward,
                packages,
                ..
            },
        ) = forwards[0]
        {
            assert_eq!(*from, SegmentId(0));
            assert_eq!(*toward, SegmentId(2));
            assert_eq!(*packages, 1);
        }
    }

    #[test]
    fn accessors() {
        let psm = mp3::three_segment_psm();
        let sched = SystemSchedule::derive(&psm);
        let (_, first) = &sched.sa[0][0];
        assert!(first.packages() > 0);
        let _ = first.flow();
        assert_eq!(sched.package_size, 36);
    }
}
