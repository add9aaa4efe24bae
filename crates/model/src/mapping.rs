//! Process-to-segment allocation and the complete Platform Specific Model.
//!
//! The PSM (paper §2.2/§3.2) combines a platform instance with the placement
//! of every application process on a segment. [`Psm`] bundles platform,
//! application and allocation after validating them together; the
//! communication matrix is derived on demand ([`Psm::matrix`]).

use crate::error::ModelError;
use crate::ids::{ProcessId, SegmentId};
use crate::matrix::CommMatrix;
use crate::platform::Platform;
use crate::psdf::Application;
use crate::validate::{self, Severity};

/// Assignment of processes to segments.
///
/// Internally a dense `ProcessId -> Option<SegmentId>` map; a `None` entry
/// means the process has not been placed yet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Allocation {
    segments: usize,
    slots: Vec<Option<SegmentId>>,
}

impl Allocation {
    /// An empty allocation for a platform with `segments` segments.
    pub fn new(segments: usize) -> Allocation {
        Allocation {
            segments,
            slots: Vec::new(),
        }
    }

    /// Build an allocation from per-segment process lists, e.g. the paper's
    /// Fig. 9 notation `0 1 2 3 8 9 10 ‖ 5 6 7 11 12 13 14 ‖ 4`.
    ///
    /// `groups[k]` lists the process indices placed on segment `k`.
    pub fn from_groups(groups: &[&[u32]]) -> Allocation {
        let mut a = Allocation::new(groups.len());
        for (seg, procs) in groups.iter().enumerate() {
            for &p in *procs {
                a.assign(ProcessId(p), SegmentId(seg as u16));
            }
        }
        a
    }

    /// Number of segments this allocation targets.
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Place (or move) a process on a segment.
    pub fn assign(&mut self, p: ProcessId, s: SegmentId) {
        if self.slots.len() <= p.index() {
            self.slots.resize(p.index() + 1, None);
        }
        self.slots[p.index()] = Some(s);
    }

    /// The segment a process is placed on, if placed.
    #[inline]
    pub fn segment_of(&self, p: ProcessId) -> Option<SegmentId> {
        self.slots.get(p.index()).copied().flatten()
    }

    /// The segment of a process, panicking if unplaced (for use after
    /// validation).
    #[inline]
    pub fn segment_of_checked(&self, p: ProcessId) -> SegmentId {
        self.segment_of(p)
            .unwrap_or_else(|| panic!("process {p} is not placed"))
    }

    /// Processes placed on segment `s`, ascending by id.
    pub fn processes_on(&self, s: SegmentId) -> Vec<ProcessId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| (*slot == Some(s)).then_some(ProcessId(i as u32)))
            .collect()
    }

    /// Number of processes placed on segment `s`.
    pub fn count_on(&self, s: SegmentId) -> usize {
        self.slots.iter().filter(|slot| **slot == Some(s)).count()
    }

    /// `true` if every one of the first `n` processes is placed.
    pub fn is_complete(&self, n: usize) -> bool {
        self.slots.len() >= n && self.slots[..n].iter().all(Option::is_some)
    }

    /// Total inter-segment traffic of an application under this allocation:
    /// `Σ_flows items(f) · hops(seg(src), seg(dst))`.
    ///
    /// This is the objective the PlaceTool allocator minimises.
    pub fn weighted_cut(&self, app: &Application) -> u64 {
        app.flows()
            .iter()
            .map(|f| {
                let a = self.segment_of_checked(f.src);
                let b = self.segment_of_checked(f.dst);
                f.items * a.hops_to(b) as u64
            })
            .sum()
    }

    /// Like [`Allocation::weighted_cut`] but weighted in packages at a given
    /// package size (what actually crosses the BUs).
    pub fn package_cut(&self, app: &Application, package_size: u32) -> u64 {
        app.flows()
            .iter()
            .map(|f| {
                let a = self.segment_of_checked(f.src);
                let b = self.segment_of_checked(f.dst);
                f.packages(package_size) * a.hops_to(b) as u64
            })
            .sum()
    }
}

/// A validated Platform Specific Model: platform + application + allocation.
#[derive(Clone, PartialEq, Debug)]
pub struct Psm {
    platform: Platform,
    application: Application,
    allocation: Allocation,
}

impl Psm {
    /// Combine the three parts, running the full validation pass. Returns
    /// [`ModelError::Invalid`] if any error-severity diagnostic fires.
    pub fn new(
        platform: Platform,
        application: Application,
        allocation: Allocation,
    ) -> Result<Psm, ModelError> {
        let diags = validate::validate(&platform, &application, &allocation);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if let Some(first) = errors.first() {
            return Err(ModelError::Invalid {
                errors: errors.len(),
                first: first.to_string(),
                first_code: first.constraint.code(),
            });
        }
        Ok(Psm {
            platform,
            application,
            allocation,
        })
    }

    /// The platform instance.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The application (PSDF).
    pub fn application(&self) -> &Application {
        &self.application
    }

    /// The process placement.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The communication matrix, derived from the application on each
    /// call (a P×P table no emulation needs).
    pub fn matrix(&self) -> CommMatrix {
        CommMatrix::from_application(&self.application)
    }

    /// Segment of a process (always defined after validation).
    #[inline]
    pub fn segment_of(&self, p: ProcessId) -> SegmentId {
        self.allocation.segment_of_checked(p)
    }

    /// The same application and allocation on a platform that differs
    /// only in package size.
    ///
    /// No rule is re-run: the only error-level rule that depends on the
    /// package size is V002 (non-zero), and [`Platform::with_package_size`]
    /// rejects zero itself. V007 is a warning, which [`Psm::new`] never
    /// reports.
    pub fn with_package_size(&self, s: u32) -> Result<Psm, ModelError> {
        self.clone().into_package_size(s)
    }

    /// [`Psm::with_package_size`] taking the model by value: the
    /// application, allocation and names move instead of being copied.
    pub fn into_package_size(self, s: u32) -> Result<Psm, ModelError> {
        Ok(Psm {
            platform: self.platform.into_package_size(s)?,
            ..self
        })
    }

    /// Rebuild the PSM with one process moved to another segment (the
    /// paper's third experiment moves P9 from segment 1 to segment 3).
    pub fn with_process_moved(&self, p: ProcessId, to: SegmentId) -> Result<Psm, ModelError> {
        if !self.platform.contains(to) {
            return Err(ModelError::UnknownSegment(to));
        }
        let mut alloc = self.allocation.clone();
        alloc.assign(p, to);
        Psm::new(self.platform.clone(), self.application.clone(), alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psdf::{Flow, Process};
    use crate::time::ClockDomain;

    fn parts() -> (Platform, Application, Allocation) {
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::initial("P0"));
        let p1 = app.add_process(Process::final_("P1"));
        app.add_flow(Flow::new(p0, p1, 72, 1, 10)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(1));
        (platform, app, alloc)
    }

    #[test]
    fn from_groups_matches_manual() {
        let a = Allocation::from_groups(&[&[0, 1, 2], &[3], &[4, 5]]);
        assert_eq!(a.segment_count(), 3);
        assert_eq!(a.segment_of(ProcessId(0)), Some(SegmentId(0)));
        assert_eq!(a.segment_of(ProcessId(3)), Some(SegmentId(1)));
        assert_eq!(a.segment_of(ProcessId(5)), Some(SegmentId(2)));
        assert_eq!(a.segment_of(ProcessId(6)), None);
        assert_eq!(a.count_on(SegmentId(0)), 3);
        assert_eq!(
            a.processes_on(SegmentId(2)),
            vec![ProcessId(4), ProcessId(5)]
        );
    }

    #[test]
    fn completeness() {
        let mut a = Allocation::new(2);
        assert!(!a.is_complete(1));
        a.assign(ProcessId(0), SegmentId(0));
        assert!(a.is_complete(1));
        assert!(!a.is_complete(2));
        a.assign(ProcessId(1), SegmentId(1));
        assert!(a.is_complete(2));
    }

    #[test]
    fn weighted_cut_counts_hops() {
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::new("P0"));
        let p1 = app.add_process(Process::new("P1"));
        let p2 = app.add_process(Process::new("P2"));
        app.add_flow(Flow::new(p0, p1, 10, 1, 1)).unwrap();
        app.add_flow(Flow::new(p0, p2, 5, 1, 1)).unwrap();
        let a = Allocation::from_groups(&[&[0], &[1], &[2]]);
        // P0->P1: 10 items × 1 hop; P0->P2: 5 items × 2 hops.
        assert_eq!(a.weighted_cut(&app), 20);
        let local = Allocation::from_groups(&[&[0, 1, 2], &[], &[]]);
        assert_eq!(local.weighted_cut(&app), 0);
        // package_cut at size 4: 10 items -> 3 pkgs ×1 + 5 items -> 2 pkgs ×2.
        assert_eq!(a.package_cut(&app, 4), 7);
    }

    #[test]
    fn psm_builds_and_derives_matrix() {
        let (p, a, al) = parts();
        let psm = Psm::new(p, a, al).unwrap();
        assert_eq!(psm.matrix().items(ProcessId(0), ProcessId(1)), 72);
        assert_eq!(psm.segment_of(ProcessId(0)), SegmentId(0));
    }

    #[test]
    fn psm_rejects_unplaced_process() {
        let (p, a, _) = parts();
        let al = Allocation::new(2); // nothing placed
        let err = Psm::new(p, a, al).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));
    }

    #[test]
    fn psm_with_process_moved() {
        let (p, a, al) = parts();
        let psm = Psm::new(p, a, al).unwrap();
        let moved = psm.with_process_moved(ProcessId(1), SegmentId(0)).unwrap();
        let f = &moved.application().flows()[0];
        assert_eq!(moved.segment_of(f.src), moved.segment_of(f.dst));
        assert!(psm.with_process_moved(ProcessId(1), SegmentId(7)).is_err());
    }

    #[test]
    fn psm_with_package_size() {
        let (p, a, al) = parts();
        let psm = Psm::new(p, a, al).unwrap();
        assert_eq!(
            psm.with_package_size(18).unwrap().platform().package_size(),
            18
        );
    }
}
