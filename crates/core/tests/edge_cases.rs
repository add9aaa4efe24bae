//! Engine edge cases: degenerate costs, oversized packages, extreme
//! clock ratios, wide fan-in — things a designer will eventually type in.

use segbus_core::{EmulatorConfig, Engine, EnginePlan, ReferenceEmulator, SweepPool, TraceLog};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, CostModel, Flow, Process};
use segbus_model::time::{ClockDomain, Picos};
use segbus_model::ModelError;

mod common;
use common::{estimate, run};

fn pair(items: u64, ticks: u64, s: u32, nseg: usize) -> Psm {
    let mut app = Application::new("edge");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::final_("B"));
    app.add_flow(Flow::new(a, b, items, 1, ticks)).unwrap();
    let mut alloc = Allocation::new(nseg);
    alloc.assign(a, SegmentId(0));
    alloc.assign(b, SegmentId((nseg - 1) as u16));
    let platform = Platform::builder("p")
        .package_size(s)
        .uniform_segments(nseg, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    Psm::new(platform, app, alloc).unwrap()
}

#[test]
fn zero_tick_processing_cost() {
    // A pure-forwarding process: C = 0 means the transfer dominates.
    let r = run(&pair(2 * 36, 0, 36, 1));
    assert!(r.all_flags_raised());
    // Two back-to-back 40-tick transactions, nothing else.
    assert_eq!(r.makespan, Picos(80 * 10_000));
}

#[test]
fn package_larger_than_the_whole_flow() {
    // 10 items in 360-item packages: one padded package.
    let psm = pair(10, 50, 360, 2);
    let r = run(&psm);
    assert_eq!(r.fus[0].packages_sent, 1);
    assert_eq!(r.bus[0].total_in(), 1);
    assert!(r.all_flags_raised());
}

#[test]
fn single_item_packages() {
    // s = 1: every item is a package; protocol overhead dominates 36×.
    let tiny = run(&pair(36, 36, 1, 1));
    let normal = run(&pair(36, 36, 36, 1));
    assert_eq!(tiny.fus[0].packages_sent, 36);
    assert_eq!(normal.fus[0].packages_sent, 1);
    assert!(tiny.makespan > normal.makespan);
}

#[test]
fn extreme_clock_ratio_between_domains() {
    // Source segment 1000× slower than the destination.
    let mut app = Application::new("ratio");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::final_("B"));
    app.add_flow(Flow::new(a, b, 36, 10, 1)).unwrap();
    let mut alloc = Allocation::new(2);
    alloc.assign(a, SegmentId(0));
    alloc.assign(b, SegmentId(1));
    let platform = Platform::builder("p")
        .package_size(36)
        .ca_clock(ClockDomain::from_mhz(500.0))
        .segment("slow", ClockDomain::from_mhz(1.0))
        .segment("fast", ClockDomain::from_mhz(1000.0))
        .build()
        .unwrap();
    let psm = Psm::new(platform, app, alloc).unwrap();
    let r = run(&psm);
    assert!(r.all_flags_raised());
    // The slow segment's single transaction dominates the *busy* time
    // (its 40 bus ticks each cost 1 µs; the fast segment's cost 1 ns).
    let busy0 = r.sas[0].busy_ticks * 1_000_000;
    let busy1 = r.sas[1].busy_ticks * 1_000;
    assert!(busy0 > 100 * busy1, "{busy0} vs {busy1}");
    // And the destination's activity ends last (it delivers).
    assert!(r.sas[1].last_activity >= r.sas[0].last_activity);
}

#[test]
fn wide_fan_in_to_one_sink() {
    // 12 producers, one segment, one sink: heavy arbitration pressure.
    let mut app = Application::new("fan");
    let producers: Vec<_> = (0..12)
        .map(|i| app.add_process(Process::initial(format!("A{i}"))))
        .collect();
    let sink = app.add_process(Process::final_("SINK"));
    for &p in &producers {
        app.add_flow(Flow::new(p, sink, 36, 1, 20)).unwrap();
    }
    let mut alloc = Allocation::new(1);
    for p in producers.iter().chain(std::iter::once(&sink)) {
        alloc.assign(*p, SegmentId(0));
    }
    let platform = Platform::builder("p")
        .uniform_segments(1, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    let r = estimate(
        EmulatorConfig::traced(),
        &Psm::new(platform, app, alloc).unwrap(),
        1,
    );
    assert_eq!(r.fus[sink.index()].packages_received, 12);
    // All ready at tick 20; 12 serialized 40-tick transactions follow.
    assert_eq!(r.makespan, Picos((20 + 12 * 40) * 10_000));
    // The trace shows no overlapping bus intervals.
    let iv = r.trace.as_ref().unwrap().bus_intervals(SegmentId(0));
    for w in iv.windows(2) {
        assert!(w[0].1 <= w[1].0, "bus intervals must not overlap");
    }
}

#[test]
fn per_package_cost_model_is_size_independent() {
    let mut app = Application::new("pp");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::final_("B"));
    app.add_flow(Flow::new(a, b, 4 * 36, 1, 100)).unwrap();
    app.set_cost_model(CostModel::PerPackage);
    let mut alloc = Allocation::new(1);
    alloc.assign(a, SegmentId(0));
    alloc.assign(b, SegmentId(0));
    let platform = Platform::builder("p")
        .package_size(36)
        .uniform_segments(1, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    let p36 = Psm::new(platform, app, alloc).unwrap();
    let p18 = p36.with_package_size(18).unwrap();
    let r36 = run(&p36);
    let r18 = run(&p18);
    // Per-package: compute doubles with the package count.
    let compute36: u64 = r36.fus.iter().map(|f| f.compute_ticks).sum();
    let compute18: u64 = r18.fus.iter().map(|f| f.compute_ticks).sum();
    assert_eq!(compute18, 2 * compute36);
}

#[test]
fn many_waves_chain() {
    // A 40-stage chain: 39 waves, all barriers honoured.
    let app = segbus_apps::generators::chain(
        40,
        segbus_apps::generators::GeneratorConfig {
            items_per_flow: 36,
            ticks_per_package: 7,
        },
    );
    let alloc = segbus_apps::generators::block_allocation(&app, 2);
    let platform = segbus_apps::generators::uniform_platform(2, 36);
    let psm = Psm::new(platform, app, alloc).unwrap();
    let r = estimate(EmulatorConfig::traced(), &psm, 1);
    assert!(r.all_flags_raised());
    let waves = segbus_core::wave_boundaries(&r);
    assert_eq!(waves.len(), 39);
    assert!(waves.windows(2).all(|w| w[0] < w[1]));
}

/// Plan compilation derives per-package compute ticks in checked
/// arithmetic: a cost that overflows `u64` under the default per-item
/// cost model is a typed `C008`, as `strict_validate` reports it, not a
/// debug-build panic or a silently wrapped value.
#[test]
fn plan_compile_reports_compute_tick_overflow_as_c008() {
    let psm = pair(72, u64::MAX / 2, 72, 2);
    let e = EnginePlan::try_new(&psm).unwrap_err();
    assert_eq!(e.code, "C008", "{e}");
    assert!(
        e.message.contains("overflow the 64-bit compute time"),
        "{e}"
    );
    let pre = segbus_core::strict_validate(&psm, 1, &EmulatorConfig::default()).unwrap_err();
    assert_eq!(pre.code, "C008", "{pre}");
}

/// A cost whose `u64` compute-tick product overflows although the run
/// fits the horizon budget (a huge per-item reference keeps the quotient
/// small): `strict_validate` rejects it with the same `C008` the plan
/// compiler reports, so a model that passes the pre-flight always
/// compiles.
#[test]
fn strict_validate_rejects_what_plan_compile_rejects() {
    let mut app = Application::new("wide").with_cost_model(CostModel::per_item(u32::MAX).unwrap());
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::final_("B"));
    app.add_flow(Flow::new(a, b, 1 << 20, 1, 1 << 44)).unwrap();
    let mut alloc = Allocation::new(1);
    alloc.assign(a, SegmentId(0));
    alloc.assign(b, SegmentId(0));
    let platform = Platform::builder("p")
        .package_size(1 << 20)
        .uniform_segments(1, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    let psm = Psm::new(platform, app, alloc).unwrap();
    let compile = EnginePlan::try_new(&psm).unwrap_err();
    let pre = segbus_core::strict_validate(&psm, 1, &EmulatorConfig::default()).unwrap_err();
    assert_eq!((compile.code, pre.code), ("C008", "C008"));
    assert_eq!(pre.message, compile.message);
}

/// Every fallible entry refuses bad input with its typed code and never
/// panics: zero frames is `C001` and a compute cost overflowing `u64` is
/// `C008`, through the fast core (collected and streamed traces), the
/// reference, and — for the one-frame input it can carry — the sweep
/// pool, whose neighbouring jobs still run.
#[test]
fn every_entry_refuses_bad_input_with_a_code() {
    let valid = pair(72, 50, 36, 2);
    let overflow = pair(72, u64::MAX / 2, 72, 2);
    for (psm, frames, code) in [(&valid, 0, "C001"), (&overflow, 1, "C008")] {
        let config = EmulatorConfig::default();
        let mut engine = Engine::new(config);
        let e = engine.try_run_frames(psm, frames).unwrap_err();
        assert_eq!(e.code, code, "try_run_frames: {e}");
        let mut sink = TraceLog::new();
        let e = engine
            .try_run_frames_with_sink(psm, frames, &mut sink)
            .unwrap_err();
        assert_eq!(e.code, code, "try_run_frames_with_sink: {e}");
        assert!(sink.is_empty(), "a refused run emits no event");
        let e = ReferenceEmulator::new(config)
            .try_run_frames(psm, frames)
            .unwrap_err();
        assert_eq!(e.code, code, "reference try_run_frames: {e}");
    }
    let out = SweepPool::with_threads(EmulatorConfig::default(), 2).sweep(&[
        valid.clone(),
        overflow,
        valid,
    ]);
    assert_eq!(out[1].as_ref().unwrap_err().code, "C008");
    assert_eq!(
        out[0].as_ref().unwrap().makespan,
        out[2].as_ref().unwrap().makespan
    );
}

/// An unplaced process never reaches an entry: a `Psm` refuses it at
/// construction (V003), so `C002` is left to the plan patch, which
/// refuses a process or a segment the plan does not have and stays
/// unchanged.
#[test]
fn unplaced_process_is_refused_before_any_entry() {
    let mut app = Application::new("unplaced");
    let a = app.add_process(Process::initial("A"));
    let b = app.add_process(Process::final_("B"));
    app.add_flow(Flow::new(a, b, 36, 1, 10)).unwrap();
    let mut alloc = Allocation::new(1);
    alloc.assign(a, SegmentId(0));
    let platform = Platform::builder("p")
        .uniform_segments(1, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    match Psm::new(platform, app, alloc) {
        Err(ModelError::Invalid { first_code, .. }) => assert_eq!(first_code, "V003"),
        other => panic!("an unplaced process must be V003, got {other:?}"),
    }

    let psm = pair(72, 50, 36, 2);
    let mut plan = EnginePlan::try_new(&psm).unwrap();
    let e = plan.try_remap(ProcessId(2), SegmentId(0)).unwrap_err();
    assert_eq!(e.code, "C002", "{e}");
    let e = plan.try_remap(ProcessId(1), SegmentId(2)).unwrap_err();
    assert_eq!(e.code, "C002", "{e}");
    assert_eq!(plan.segment_of(ProcessId(1)), SegmentId(1));
}
