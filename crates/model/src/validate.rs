//! Structural validation of platform + application + allocation.
//!
//! The paper's DSL attaches OCL constraints to the SegBus UML profile and
//! reports violations during modeling (§2.2: "Upon breach of any constraint
//! requirement during the design process, the tool provides appropriate
//! error message"). This module reproduces that check as a plain function
//! producing [`Diagnostic`]s with stable codes, so the DSL front-end, the
//! XML importer and [`crate::mapping::Psm::new`] all share one rule set.

use std::collections::HashSet;
use std::fmt;

use crate::ids::ProcessId;
use crate::mapping::Allocation;
use crate::platform::Platform;
use crate::psdf::{Application, ProcessKind};

/// Stable identifiers for the individual constraints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Constraint {
    /// V001 — the platform must contain at least one segment.
    PlatformHasSegments,
    /// V002 — the package size must be non-zero.
    PackageSizeNonZero,
    /// V003 — every application process must be placed on a segment.
    ProcessPlaced,
    /// V004 — placements must reference segments that exist.
    SegmentExists,
    /// V005 — every segment should host at least one functional unit.
    SegmentNonEmpty,
    /// V006 — flow ordering must respect data dependencies (a flow's order
    /// must exceed the order of every flow feeding its source), otherwise
    /// the wave schedule deadlocks.
    OrderRespectsDependencies,
    /// V007 — flow item counts should be multiples of the package size
    /// (otherwise the final package is padded).
    ItemsFillPackages,
    /// V008 — the application must have at least one source process.
    HasSource,
    /// V009 — initial processes take no inputs; final processes produce no
    /// outputs.
    KindConsistent,
    /// V010 — the dataflow graph must be acyclic.
    Acyclic,
    /// V011 — process names must be unique.
    UniqueNames,
    /// V012 — every process should participate in at least one flow.
    ProcessConnected,
}

impl Constraint {
    /// The stable code printed in diagnostics (`V001` …).
    pub fn code(self) -> &'static str {
        match self {
            Constraint::PlatformHasSegments => "V001",
            Constraint::PackageSizeNonZero => "V002",
            Constraint::ProcessPlaced => "V003",
            Constraint::SegmentExists => "V004",
            Constraint::SegmentNonEmpty => "V005",
            Constraint::OrderRespectsDependencies => "V006",
            Constraint::ItemsFillPackages => "V007",
            Constraint::HasSource => "V008",
            Constraint::KindConsistent => "V009",
            Constraint::Acyclic => "V010",
            Constraint::UniqueNames => "V011",
            Constraint::ProcessConnected => "V012",
        }
    }
}

/// How serious a violated constraint is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory; the model can still be emulated.
    Warning,
    /// The model is not executable; [`crate::mapping::Psm::new`] refuses it.
    Error,
}

/// One validation finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub constraint: Constraint,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description naming the offending element.
    pub message: String,
}

impl Diagnostic {
    fn error(constraint: Constraint, message: String) -> Diagnostic {
        Diagnostic {
            constraint,
            severity: Severity::Error,
            message,
        }
    }

    fn warning(constraint: Constraint, message: String) -> Diagnostic {
        Diagnostic {
            constraint,
            severity: Severity::Warning,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}]: {}", self.constraint.code(), self.message)
    }
}

/// Run every constraint over the triple, returning all findings (empty means
/// fully valid).
pub fn validate(platform: &Platform, app: &Application, alloc: &Allocation) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    validate_platform(platform, &mut out);
    validate_application(app, platform.package_size(), &mut out);
    validate_allocation(platform, app, alloc, &mut out);
    out
}

/// Platform-only checks (V001, V002).
pub fn validate_platform(platform: &Platform, out: &mut Vec<Diagnostic>) {
    if platform.segment_count() == 0 {
        out.push(Diagnostic::error(
            Constraint::PlatformHasSegments,
            "platform contains no segments".into(),
        ));
    }
    if platform.package_size() == 0 {
        out.push(Diagnostic::error(
            Constraint::PackageSizeNonZero,
            "package size is zero".into(),
        ));
    }
}

/// Application-only checks (V006–V012), linear in processes plus flows:
/// one pass over the flows builds the degree and input-order tables
/// every per-process rule reads.
pub fn validate_application(app: &Application, package_size: u32, out: &mut Vec<Diagnostic>) {
    // V011 — unique names: every repeat of an earlier name.
    let mut seen = HashSet::with_capacity(app.process_count());
    for p in app.processes() {
        if !seen.insert(p.name.as_str()) {
            out.push(Diagnostic::error(
                Constraint::UniqueNames,
                format!("process name {:?} is used more than once", p.name),
            ));
        }
    }

    // V010 — acyclicity (and V008 source existence, which a cyclic graph
    // also violates).
    let cyclic = app.topological_levels().is_err();
    if cyclic {
        out.push(Diagnostic::error(
            Constraint::Acyclic,
            "the dataflow graph contains a cycle".into(),
        ));
    }
    let tables = app.flow_tables();
    if app.process_count() > 0 && !tables.inputs.contains(&0) {
        out.push(Diagnostic::error(
            Constraint::HasSource,
            "no process is a source (every process has inputs)".into(),
        ));
    }

    // V006 — wave schedule must respect dependencies (skip if cyclic; the
    // cycle diagnostic already covers it).
    if !cyclic {
        for f in app.flows() {
            if !tables.respects_dependencies(f) {
                out.push(Diagnostic::error(
                    Constraint::OrderRespectsDependencies,
                    format!(
                        "flow {} -> {} has order {} not greater than the order of every flow feeding {}",
                        app.process(f.src).name,
                        app.process(f.dst).name,
                        f.order,
                        app.process(f.src).name,
                    ),
                ));
            }
        }
    }

    // V007 — item counts should fill whole packages.
    if package_size > 0 {
        for f in app.flows() {
            if f.items % package_size as u64 != 0 {
                out.push(Diagnostic::warning(
                    Constraint::ItemsFillPackages,
                    format!(
                        "flow {} -> {} carries {} items, not a multiple of the package size {} (last package is padded)",
                        app.process(f.src).name,
                        app.process(f.dst).name,
                        f.items,
                        package_size,
                    ),
                ));
            }
        }
    }

    // V009 — kind consistency.
    for (i, p) in app.processes().iter().enumerate() {
        match p.kind {
            ProcessKind::Initial if tables.inputs[i] > 0 => {
                out.push(Diagnostic::warning(
                    Constraint::KindConsistent,
                    format!("initial process {} has incoming flows", p.name),
                ));
            }
            ProcessKind::Final if tables.outputs[i] > 0 => {
                out.push(Diagnostic::warning(
                    Constraint::KindConsistent,
                    format!("final process {} has outgoing flows", p.name),
                ));
            }
            _ => {}
        }
    }

    // V012 — connectivity.
    for (i, p) in app.processes().iter().enumerate() {
        if tables.inputs[i] == 0 && tables.outputs[i] == 0 {
            out.push(Diagnostic::warning(
                Constraint::ProcessConnected,
                format!("process {} participates in no flow", p.name),
            ));
        }
    }
}

/// Placement checks (V003–V005).
pub fn validate_allocation(
    platform: &Platform,
    app: &Application,
    alloc: &Allocation,
    out: &mut Vec<Diagnostic>,
) {
    for (i, p) in app.processes().iter().enumerate() {
        let id = ProcessId(i as u32);
        match alloc.segment_of(id) {
            None => out.push(Diagnostic::error(
                Constraint::ProcessPlaced,
                format!("process {} is not placed on any segment", p.name),
            )),
            Some(s) if !platform.contains(s) => out.push(Diagnostic::error(
                Constraint::SegmentExists,
                format!("process {} is placed on non-existent {}", p.name, s),
            )),
            Some(_) => {}
        }
    }
    for s in 0..platform.segment_count() as u16 {
        let s = crate::ids::SegmentId(s);
        if alloc.count_on(s) == 0 {
            out.push(Diagnostic::warning(
                Constraint::SegmentNonEmpty,
                format!("{s} hosts no functional unit"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SegmentId;
    use crate::psdf::{Flow, Process};
    use crate::time::ClockDomain;

    fn platform(n: usize) -> Platform {
        Platform::builder("t")
            .uniform_segments(n, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap()
    }

    fn valid_pair() -> (Application, Allocation) {
        let mut app = Application::new("a");
        let p0 = app.add_process(Process::initial("P0"));
        let p1 = app.add_process(Process::final_("P1"));
        app.add_flow(Flow::new(p0, p1, 72, 1, 10)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(p0, SegmentId(0));
        alloc.assign(p1, SegmentId(1));
        (app, alloc)
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|d| d.constraint.code()).collect()
    }

    #[test]
    fn valid_model_produces_no_diagnostics() {
        let (app, alloc) = valid_pair();
        assert!(validate(&platform(2), &app, &alloc).is_empty());
    }

    #[test]
    fn unplaced_process_is_error() {
        let (app, _) = valid_pair();
        let alloc = Allocation::new(2);
        let d = validate(&platform(2), &app, &alloc);
        assert!(codes(&d).contains(&"V003"));
        assert!(d.iter().any(|x| x.severity == Severity::Error));
    }

    #[test]
    fn placement_outside_platform_is_error() {
        let (app, mut alloc) = valid_pair();
        alloc.assign(ProcessId(1), SegmentId(9));
        let d = validate(&platform(2), &app, &alloc);
        assert!(codes(&d).contains(&"V004"));
    }

    #[test]
    fn empty_segment_is_warning() {
        let (app, mut alloc) = valid_pair();
        alloc.assign(ProcessId(1), SegmentId(0)); // seg 1 now empty
        let d = validate(&platform(2), &app, &alloc);
        assert_eq!(codes(&d), vec!["V005"]);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn cycle_is_error() {
        let mut app = Application::new("cyc");
        let a = app.add_process(Process::new("A"));
        let b = app.add_process(Process::new("B"));
        app.add_flow(Flow::new(a, b, 36, 1, 1)).unwrap();
        app.add_flow(Flow::new(b, a, 36, 2, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        let d = validate(&platform(1), &app, &alloc);
        assert!(codes(&d).contains(&"V010"));
        assert!(codes(&d).contains(&"V008"));
    }

    #[test]
    fn bad_order_is_error() {
        let mut app = Application::new("ord");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 36, 2, 1)).unwrap();
        app.add_flow(Flow::new(b, c, 36, 1, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        for p in [a, b, c] {
            alloc.assign(p, SegmentId(0));
        }
        let d = validate(&platform(1), &app, &alloc);
        assert!(codes(&d).contains(&"V006"));
    }

    #[test]
    fn padded_package_is_warning() {
        let mut app = Application::new("pad");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 37, 1, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        let d = validate(&platform(1), &app, &alloc);
        assert_eq!(codes(&d), vec!["V007"]);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn kind_inconsistency_is_warning() {
        let mut app = Application::new("k");
        let a = app.add_process(Process::final_("A")); // final with output
        let b = app.add_process(Process::initial("B")); // initial with input
        app.add_flow(Flow::new(a, b, 36, 1, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        let d = validate(&platform(1), &app, &alloc);
        let v009 = d
            .iter()
            .filter(|d| d.constraint == Constraint::KindConsistent);
        assert_eq!(v009.count(), 2);
    }

    #[test]
    fn disconnected_process_is_warning() {
        let mut app = Application::new("d");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        let lone = app.add_process(Process::new("L"));
        app.add_flow(Flow::new(a, b, 36, 1, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        for p in [a, b, lone] {
            alloc.assign(p, SegmentId(0));
        }
        let d = validate(&platform(1), &app, &alloc);
        assert!(codes(&d).contains(&"V012"));
    }

    #[test]
    fn duplicate_names_are_error() {
        let mut app = Application::new("n");
        let a = app.add_process(Process::initial("X"));
        let b = app.add_process(Process::final_("X"));
        app.add_flow(Flow::new(a, b, 36, 1, 1)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        let d = validate(&platform(1), &app, &alloc);
        assert!(codes(&d).contains(&"V011"));
    }

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic::error(Constraint::ProcessPlaced, "process P3 is not placed".into());
        assert_eq!(d.to_string(), "error[V003]: process P3 is not placed");
    }
}
