//! Post-run analysis of emulation traces and counters.
//!
//! The paper's tool "helps us observe the communication bottlenecks"
//! (§4); this module turns a trace into the quantities a designer acts
//! on: bus utilisation per segment and per border unit, arbitration
//! wait-time histograms, transfer-to-transfer gaps, a ranked bottleneck
//! table, wave boundaries, per-package end-to-end latency and a
//! Gantt-style CSV of every bus occupation.
//!
//! The heavy lifting ([`analyze_trace`]) works from a bare
//! [`TraceLog`] plus a segment count, so it applies equally to an
//! in-memory traced [`crate::EmulationReport`] and to a `.sbt` file
//! decoded by [`crate::sbt::read_trace`] — no model required.

use segbus_model::ids::{FlowId, SegmentId};
use segbus_model::time::Picos;

use crate::hist::Histogram;
use crate::report::EmulationReport;
use crate::trace::{TraceKind, TraceLog};

/// Per-package end-to-end latency statistics (compute start → delivery).
///
/// `min`/`max`/`mean_ps` are `None` when no package was delivered —
/// an empty run has *no* fastest package, not a 0 ps one.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencyStats {
    /// Packages measured.
    pub count: u64,
    /// Fastest package, if any package was delivered.
    pub min: Option<Picos>,
    /// Slowest package, if any package was delivered.
    pub max: Option<Picos>,
    /// Mean latency in picoseconds, if any package was delivered.
    pub mean_ps: Option<f64>,
}

/// One segment's activity profile derived from a trace.
#[derive(Clone, Debug)]
pub struct SegmentActivity {
    /// The segment.
    pub segment: SegmentId,
    /// Bus occupations served (local serves + inter-segment hops).
    pub serves: u64,
    /// Total time the bus was driven.
    pub busy: Picos,
    /// Busy time over the makespan (`0.0..=1.0`).
    pub fraction: f64,
    /// Arbitration-to-grant waits of requests originating here, in
    /// **nanoseconds** (`ComputeEnd` → first `BusStart` of the package).
    pub wait: Histogram,
    /// Sum of those waits.
    pub total_wait: Picos,
    /// Transfer-to-transfer gaps: idle stretches between consecutive
    /// bus occupations (count, total and the largest one).
    pub gaps: u64,
    /// Total idle time between consecutive bus occupations.
    pub gap_total: Picos,
    /// Largest single idle stretch between consecutive occupations.
    pub gap_max: Picos,
}

/// Occupancy of one border unit, keyed by the segment that loads it.
///
/// Traces carry no BU indices, so a BU is identified by its *loading*
/// side: the `BuLoaded` event's segment (for a ring's wrap-around BU
/// that is the last segment). Occupancy is the `BuLoaded` →
/// next-`BuUnloaded` interval of each package.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BuActivity {
    /// The segment that loads this BU (its upstream side).
    pub loading_segment: SegmentId,
    /// Packages parked in the BU.
    pub loads: u64,
    /// Total time the BU held a package.
    pub occupied: Picos,
    /// Occupied time over the makespan (`0.0..=1.0`).
    pub fraction: f64,
}

/// Everything [`analyze_trace`] derives from a trace.
#[derive(Clone, Debug)]
pub struct BusAnalysis {
    /// Timestamp of the last event (the makespan for a complete trace;
    /// for a truncated `.sbt` tail, the horizon actually observed).
    pub makespan: Picos,
    /// Per-segment activity, indexed by segment.
    pub segments: Vec<SegmentActivity>,
    /// Border units that carried at least one package.
    pub bus_units: Vec<BuActivity>,
}

impl BusAnalysis {
    /// Segments ranked most-contended first: by total arbitration wait,
    /// ties broken by bus busy time. The head of this list is where the
    /// paper's "communication bottleneck" lives.
    pub fn bottlenecks(&self) -> Vec<&SegmentActivity> {
        let mut out: Vec<&SegmentActivity> = self.segments.iter().collect();
        out.sort_by(|a, b| {
            (b.total_wait, b.busy, a.segment.0).cmp(&(a.total_wait, a.busy, b.segment.0))
        });
        out
    }
}

/// Analyse a trace: per-segment utilisation, wait histograms and
/// transfer gaps, plus per-BU occupancy — from the events alone.
///
/// `segments` dimensions the per-segment tables (a `.sbt` header
/// records it; a report knows it from its counters). Events naming a
/// segment out of range are ignored rather than trusted.
pub fn analyze_trace(log: &TraceLog, segments: usize) -> BusAnalysis {
    let makespan = log
        .events()
        .iter()
        .map(|e| e.at)
        .max()
        .unwrap_or(Picos::ZERO);
    let span = makespan.0;

    let mut out: Vec<SegmentActivity> = (0..segments)
        .map(|i| SegmentActivity {
            segment: SegmentId(i as u16),
            serves: 0,
            busy: Picos::ZERO,
            fraction: 0.0,
            wait: Histogram::new(),
            total_wait: Picos::ZERO,
            gaps: 0,
            gap_total: Picos::ZERO,
            gap_max: Picos::ZERO,
        })
        .collect();

    // Busy time and transfer-to-transfer gaps from the bus intervals.
    for seg in &mut out {
        let iv = log.bus_intervals(seg.segment);
        seg.serves = iv.len() as u64;
        seg.busy = Picos(iv.iter().map(|(a, b)| b.0 - a.0).sum());
        seg.fraction = if span == 0 {
            0.0
        } else {
            seg.busy.0 as f64 / span as f64
        };
        for w in iv.windows(2) {
            let gap = w[1].0.saturating_sub(w[0].1);
            seg.gaps += 1;
            seg.gap_total += gap;
            seg.gap_max = seg.gap_max.max(gap);
        }
    }

    // Arbitration-to-grant waits: ComputeEnd raises the request at the
    // source SA; the package's first BusStart is the grant. Attributed
    // to the segment the request was raised in.
    let mut pending: std::collections::HashMap<(FlowId, u64), (Picos, usize)> =
        std::collections::HashMap::new();
    // BU occupancy: BuLoaded parks the package, the next BuUnloaded for
    // the same package drains it.
    let mut parked: std::collections::HashMap<(FlowId, u64), (Picos, usize)> =
        std::collections::HashMap::new();
    let mut bus: Vec<(u64, u64)> = vec![(0, 0); segments]; // (loads, occupied_ps)
    for e in log.events() {
        let (Some(flow), Some(pkg)) = (e.flow, e.package) else {
            continue;
        };
        let Some(si) = e.segment.map(|s| s.index()).filter(|&i| i < segments) else {
            continue;
        };
        match e.kind {
            TraceKind::ComputeEnd => {
                pending.entry((flow, pkg)).or_insert((e.at, si));
            }
            TraceKind::BusStart => {
                if let Some((raised, src)) = pending.remove(&(flow, pkg)) {
                    let wait = e.at.saturating_sub(raised);
                    out[src].wait.record(wait.0 / 1_000); // ps → ns
                    out[src].total_wait += wait;
                }
            }
            TraceKind::BuLoaded => {
                parked.insert((flow, pkg), (e.at, si));
            }
            TraceKind::BuUnloaded => {
                if let Some((loaded, loader)) = parked.remove(&(flow, pkg)) {
                    bus[loader].0 += 1;
                    bus[loader].1 += e.at.saturating_sub(loaded).0;
                }
            }
            _ => {}
        }
    }

    let bus_units = bus
        .into_iter()
        .enumerate()
        .filter(|(_, (loads, _))| *loads > 0)
        .map(|(i, (loads, occupied))| BuActivity {
            loading_segment: SegmentId(i as u16),
            loads,
            occupied: Picos(occupied),
            fraction: if span == 0 {
                0.0
            } else {
                occupied as f64 / span as f64
            },
        })
        .collect();

    BusAnalysis {
        makespan,
        segments: out,
        bus_units,
    }
}

/// Instants at which each wave completed, in order.
pub fn wave_boundaries(report: &EmulationReport) -> Vec<Picos> {
    traced(report)
        .of_kind(TraceKind::WaveComplete)
        .map(|e| e.at)
        .collect()
}

/// Durations of the waves (first wave measured from time zero).
pub fn wave_durations(report: &EmulationReport) -> Vec<Picos> {
    let ends = wave_boundaries(report);
    let mut prev = Picos::ZERO;
    ends.into_iter()
        .map(|e| {
            let d = e.saturating_sub(prev);
            prev = e;
            d
        })
        .collect()
}

/// End-to-end latency of every package: from its `ComputeStart` to its
/// `Delivered` event, matched by `(flow, package)`.
pub fn trace_package_latencies(trace: &TraceLog) -> Vec<(FlowId, u64, Picos)> {
    let mut starts: std::collections::HashMap<(FlowId, u64), Picos> =
        std::collections::HashMap::new();
    let mut out = Vec::new();
    for e in trace.events() {
        let (Some(flow), Some(pkg)) = (e.flow, e.package) else {
            continue;
        };
        match e.kind {
            TraceKind::ComputeStart => {
                starts.entry((flow, pkg)).or_insert(e.at);
            }
            TraceKind::Delivered => {
                if let Some(&s) = starts.get(&(flow, pkg)) {
                    out.push((flow, pkg, e.at.saturating_sub(s)));
                }
            }
            _ => {}
        }
    }
    out
}

/// Summary statistics over [`trace_package_latencies`].
pub fn trace_latency_stats(trace: &TraceLog) -> LatencyStats {
    let lats = trace_package_latencies(trace);
    if lats.is_empty() {
        return LatencyStats::default();
    }
    let mut min = Picos(u64::MAX);
    let mut max = Picos::ZERO;
    let mut sum = 0u128;
    for (_, _, l) in &lats {
        min = if *l < min { *l } else { min };
        max = max.max(*l);
        sum += l.0 as u128;
    }
    LatencyStats {
        count: lats.len() as u64,
        min: Some(min),
        max: Some(max),
        mean_ps: Some(sum as f64 / lats.len() as f64),
    }
}

/// Gantt-style CSV of every bus occupation:
/// `segment,flow,package,start_ps,end_ps`.
pub fn gantt_csv(report: &EmulationReport) -> String {
    let trace = traced(report);
    let mut out = String::from("segment,flow,package,start_ps,end_ps\n");
    for i in 0..report.sas.len() {
        let seg = SegmentId(i as u16);
        // Re-walk the raw events so flow/package labels survive.
        let mut open: Vec<((FlowId, u64), Picos)> = Vec::new();
        for e in trace.events() {
            if e.segment != Some(seg) {
                continue;
            }
            let (Some(flow), Some(pkg)) = (e.flow, e.package) else {
                continue;
            };
            match e.kind {
                TraceKind::BusStart => open.push(((flow, pkg), e.at)),
                TraceKind::BusEnd => {
                    if let Some(pos) = open.iter().position(|(k, _)| *k == (flow, pkg)) {
                        let (_, start) = open.remove(pos);
                        out.push_str(&format!(
                            "{},{},{},{},{}\n",
                            i + 1,
                            flow.0,
                            pkg,
                            start.0,
                            e.at.0
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

fn traced(report: &EmulationReport) -> &TraceLog {
    report
        .trace
        .as_ref()
        .expect("analysis requires a traced run: use EmulatorConfig::traced()")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmulatorConfig;
    use crate::test_support::{estimate, run};
    use segbus_model::ids::SegmentId;
    use segbus_model::mapping::{Allocation, Psm};
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;

    fn traced_run() -> EmulationReport {
        let mut app = Application::new("t");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::new("B"));
        let c = app.add_process(Process::final_("C"));
        app.add_flow(Flow::new(a, b, 72, 1, 100)).unwrap();
        app.add_flow(Flow::new(b, c, 72, 2, 50)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        alloc.assign(c, SegmentId(1));
        let platform = Platform::builder("p")
            .package_size(36)
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let psm = Psm::new(platform, app, alloc).unwrap();
        estimate(EmulatorConfig::traced(), &psm, 1)
    }

    fn empty_run() -> EmulationReport {
        let mut app = Application::new("empty");
        let a = app.add_process(Process::new("A"));
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        let platform = Platform::builder("p")
            .uniform_segments(1, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let psm = Psm::new(platform, app, alloc).unwrap();
        estimate(EmulatorConfig::traced(), &psm, 1)
    }

    #[test]
    fn utilisation_is_positive_and_bounded() {
        let r = traced_run();
        let u = analyze_trace(r.trace.as_ref().unwrap(), r.sas.len()).segments;
        assert_eq!(u.len(), 2);
        for b in &u {
            assert!(b.fraction >= 0.0 && b.fraction <= 1.0, "{b:?}");
        }
        assert!(u[0].busy > Picos::ZERO);
        // Segment 1 carries wave 1 + the fills of wave 2: busier than
        // segment 2, which only receives deliveries.
        assert!(u[0].busy > u[1].busy);
    }

    #[test]
    fn wave_boundaries_are_monotone() {
        let r = traced_run();
        let w = wave_boundaries(&r);
        assert_eq!(w.len(), 2);
        assert!(w[0] < w[1]);
        let d = wave_durations(&r);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0] + d[1], w[1]);
    }

    #[test]
    fn every_package_has_a_latency() {
        let r = traced_run();
        let trace = r.trace.as_ref().unwrap();
        let lats = trace_package_latencies(trace);
        assert_eq!(lats.len(), 4); // 2 packages per flow
        for (_, _, l) in &lats {
            // At least the compute time (50 or 100 ticks of 10 ns).
            assert!(l.0 >= 50 * 10_000, "{l:?}");
        }
        let stats = trace_latency_stats(trace);
        assert_eq!(stats.count, 4);
        let (min, max) = (stats.min.unwrap(), stats.max.unwrap());
        let mean = stats.mean_ps.unwrap();
        assert!(min <= max);
        assert!(mean >= min.0 as f64);
        assert!(mean <= max.0 as f64);
    }

    #[test]
    fn gantt_lists_every_transaction() {
        let r = traced_run();
        let csv = gantt_csv(&r);
        // 2 local transfers + 2 inter transfers × 2 hops = 6 bus
        // occupations, plus the header.
        assert_eq!(csv.lines().count(), 1 + 6, "{csv}");
        assert!(csv.starts_with("segment,flow,package,start_ps,end_ps"));
    }

    #[test]
    fn analyze_trace_profiles_segments_and_bus() {
        let r = traced_run();
        let a = analyze_trace(r.trace.as_ref().unwrap(), r.sas.len());
        assert_eq!(a.makespan, r.makespan);
        assert_eq!(a.segments.len(), 2);
        // Serves per segment match the Gantt: 2 local + 2 first hops on
        // segment 1, 2 final hops on segment 2.
        assert_eq!(a.segments[0].serves, 4);
        assert_eq!(a.segments[1].serves, 2);
        // Every package raised exactly one request at its source SA
        // (both flows originate in segment 1).
        assert_eq!(a.segments[0].wait.count(), 4);
        assert_eq!(a.segments[1].wait.count(), 0);
        // 4 occupations on segment 1 leave 3 transfer-to-transfer gaps.
        assert_eq!(a.segments[0].gaps, 3);
        assert!(a.segments[0].gap_max.0 >= a.segments[0].gap_total.0 / 3);
        // The inter-segment flow parks 2 packages in the BU loaded by
        // segment 1.
        assert_eq!(a.bus_units.len(), 1);
        let bu = &a.bus_units[0];
        assert_eq!(bu.loading_segment, SegmentId(0));
        assert_eq!(bu.loads, 2);
        assert!(bu.occupied > Picos::ZERO);
        assert!(bu.fraction > 0.0 && bu.fraction <= 1.0);
    }

    #[test]
    fn bottlenecks_rank_by_wait() {
        let r = traced_run();
        let a = analyze_trace(r.trace.as_ref().unwrap(), r.sas.len());
        let ranked = a.bottlenecks();
        assert_eq!(ranked.len(), 2);
        // All waits happen at segment 1; it must rank first.
        assert_eq!(ranked[0].segment, SegmentId(0));
        assert!(ranked[0].total_wait >= ranked[1].total_wait);
    }

    #[test]
    fn empty_run_has_empty_stats() {
        let r = empty_run();
        let trace = r.trace.as_ref().unwrap();
        let stats = trace_latency_stats(trace);
        assert_eq!(stats, LatencyStats::default());
        assert_eq!(stats.min, None, "an empty run has no fastest package");
        assert!(wave_boundaries(&r).is_empty());
        assert_eq!(analyze_trace(trace, r.sas.len()).segments[0].fraction, 0.0);
    }

    #[test]
    fn zero_makespan_yields_finite_fractions() {
        // Regression: the old code divided by `makespan.max(1)` but
        // special-cased zero separately; the unified guard must keep
        // every fraction finite (no NaN) on a run with no activity.
        let r = empty_run();
        assert_eq!(r.makespan, Picos::ZERO);
        let a = analyze_trace(r.trace.as_ref().unwrap(), r.sas.len());
        for s in &a.segments {
            assert!(s.fraction.is_finite());
            assert_eq!(s.fraction, 0.0);
        }
        assert!(a.bus_units.is_empty());
    }

    #[test]
    #[should_panic(expected = "requires a traced run")]
    fn untraced_run_panics_with_guidance() {
        let mut app = Application::new("t");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, 36, 1, 10)).unwrap();
        let mut alloc = Allocation::new(1);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(0));
        let platform = Platform::builder("p")
            .uniform_segments(1, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        let psm = Psm::new(platform, app, alloc).unwrap();
        let r = run(&psm); // no trace
        let _ = wave_boundaries(&r);
    }

    #[test]
    fn mp3_utilisation_reflects_mapping() {
        let psm = segbus_apps::mp3::three_segment_psm();
        let r = estimate(EmulatorConfig::traced(), &psm, 1);
        let u = analyze_trace(r.trace.as_ref().unwrap(), r.sas.len()).segments;
        // Segment 3 hosts only P4: near-idle bus.
        assert!(u[2].fraction < u[0].fraction);
        assert!(u[2].fraction < u[1].fraction);
        let waves = wave_boundaries(&r);
        assert_eq!(waves.len(), 8, "the MP3 schedule has 8 waves");
    }
}
