//! `emulate-front` and `emulate-stream`: one caller turning `.sbd` text
//! into a paper-style report, request after request.
//!
//! Requests come in blocks: every scenario at every package size of
//! [`PACKAGE_SIZES`] once (60 requests), in a seeded order per block.
//! Every block therefore does the same work, which keeps the per-block
//! rates comparable across seeds, while the order still follows the seed.

use std::hint::black_box;
use std::time::Instant;

use segbus_core::{
    strict_validate, BuCounters, CaCounters, EmulationReport, EmulatorConfig, Engine, EnginePlan,
    FuTimes, ReferenceEmulator, SaCounters,
};
use segbus_model::SegbusError;

use crate::corpus::{PACKAGE_SIZES, SCENARIOS};
use crate::rng::{mix, Rng};
use crate::trace::Tracer;
use crate::{
    mismatch, ns_since, peak_rss_mb, timed_setup, total_latency_ns, Config, Measured, Traced,
    Window, Workload, OP,
};

/// One in this many requests is re-run on the reference emulator.
const CHECK_ONE_IN: u64 = 16;

/// At most this many requests are re-run on the reference emulator: about
/// a second of reference runs at either frame count.
fn max_checks(w: Workload) -> usize {
    if w == Workload::EmulateStream {
        32
    } else {
        256
    }
}

/// A window closes at the first block boundary after this many seconds.
const WINDOW_S: f64 = 0.25;

fn frames(w: Workload) -> u64 {
    if w == Workload::EmulateStream {
        64
    } else {
        1
    }
}

/// A request: a scenario index and a package size.
#[derive(Clone, Copy, Debug)]
struct Request {
    scenario: usize,
    package_size: u32,
}

/// Block `block` of the stream over the first `scenarios` scenarios: a
/// seeded permutation of every scenario × package size.
fn block(seed: u64, block: u64, scenarios: usize) -> Vec<Request> {
    let mut out: Vec<Request> = (0..scenarios)
        .flat_map(|scenario| {
            PACKAGE_SIZES.map(|package_size| Request {
                scenario,
                package_size,
            })
        })
        .collect();
    Rng::new(mix(seed, block)).shuffle(&mut out);
    out
}

/// The first `count` requests, one line each.
pub(crate) fn stream(w: Workload, seed: u64, count: usize, scenarios: usize) -> Vec<String> {
    (0..)
        .flat_map(|b| block(seed, b, scenarios))
        .take(count)
        .map(|r| {
            format!(
                "{} package_size={} frames={}",
                SCENARIOS[r.scenario].0,
                r.package_size,
                frames(w)
            )
        })
        .collect()
}

/// `true` if request `i` is re-checked on the reference emulator.
fn checked(seed: u64, i: u64) -> bool {
    mix(seed ^ 0xc4ec_4ed0, i) % CHECK_ONE_IN == 0
}

/// The caller's reusable state: one engine and one report buffer, as a
/// serve worker holds them.
struct Caller {
    engine: Engine,
    report: EmulationReport,
}

impl Caller {
    fn new() -> Caller {
        Caller {
            engine: Engine::new(EmulatorConfig::default()),
            report: EmulationReport::empty(),
        }
    }

    /// One request: text → model → checked plan → run → report text.
    /// Returns the makespan; the rendered text is discarded.
    fn request(&mut self, tr: &mut Tracer, r: Request, frames: u64) -> Result<u64, SegbusError> {
        let text = SCENARIOS[r.scenario].1;
        let psm = tr.time("dsl.parse", || {
            segbus_dsl::parse_source(text).and_then(|s| s.into_psm())
        })?;
        let psm = tr.time("model.package_size", || {
            psm.with_package_size(r.package_size)
        })?;
        let engine = &mut self.engine;
        tr.time("precheck.validate", || {
            strict_validate(&psm, frames, engine.config())
        })?;
        let plan = tr.time("plan.compile", || EnginePlan::try_new(&psm))?;
        let report = &mut self.report;
        tr.time("engine.run", || engine.run_plan_into(&plan, frames, report));
        black_box(tr.time("report.format", || report.paper_style()));
        Ok(self.report.makespan.0)
    }
}

/// Every counter the reference must reproduce.
#[derive(Clone, PartialEq, Debug)]
struct Counters {
    makespan: u64,
    sas: Vec<SaCounters>,
    ca: CaCounters,
    bus: Vec<BuCounters>,
    fus: Vec<FuTimes>,
}

impl Counters {
    fn of(r: &EmulationReport) -> Counters {
        Counters {
            makespan: r.makespan.0,
            sas: r.sas.clone(),
            ca: r.ca,
            bus: r.bus.clone(),
            fus: r.fus.clone(),
        }
    }

    /// The first differing field, if any.
    fn diff(&self, reference: &Counters) -> Option<String> {
        let field = if self.makespan != reference.makespan {
            "makespan"
        } else if self.sas != reference.sas {
            "SA counters"
        } else if self.ca != reference.ca {
            "CA counters"
        } else if self.bus != reference.bus {
            "BU counters"
        } else if self.fus != reference.fus {
            "FU counters"
        } else {
            return None;
        };
        Some(format!(
            "{field}: engine {self:?} vs reference {reference:?}"
        ))
    }
}

/// Re-run the kept requests on [`ReferenceEmulator`] and compare.
fn reference_check(w: Workload, kept: &[(u64, Request, Counters)], out: &mut Vec<String>) {
    let reference = ReferenceEmulator::new(EmulatorConfig::default());
    for (i, r, got) in kept {
        let want = crate::parse_at(SCENARIOS[r.scenario].1, r.package_size)
            .and_then(|psm| reference.try_run_frames(&psm, frames(w)));
        match want {
            Ok(report) => {
                if let Some(d) = got.diff(&Counters::of(&report)) {
                    mismatch(out, w, *i, d);
                }
            }
            Err(e) => mismatch(out, w, *i, format!("reference rejected the model: {e}")),
        }
    }
}

/// Warm-up: every scenario × package size once, which also proves that no
/// request of the workload fails.
fn setup(w: Workload, scenarios: usize) -> Result<Caller, String> {
    let mut caller = Caller::new();
    let mut tr = Tracer::new(false);
    for r in block(0, 0, scenarios) {
        caller
            .request(&mut tr, r, frames(w))
            .map_err(|e| format!("{}: {e}", SCENARIOS[r.scenario].0))?;
    }
    Ok(caller)
}

/// The untraced run's results.
struct Run {
    windows: Vec<Window>,
    /// Every request's makespan, in request order.
    makespans: Vec<u64>,
    failed: u64,
    /// Requests kept for the reference check.
    kept: Vec<(u64, Request, Counters)>,
}

/// Whole blocks until `cfg.seconds × share` have passed (at least one).
fn run_blocks(caller: &mut Caller, cfg: &Config, share: f64) -> Run {
    let w = cfg.workload;
    let mut tr = Tracer::new(false);
    let mut run = Run {
        windows: Vec::new(),
        makespans: Vec::new(),
        failed: 0,
        kept: Vec::new(),
    };
    let start = Instant::now();
    let mut window = Window::default();
    let mut t_window = Instant::now();
    let mut b = 0u64;
    while b == 0 || start.elapsed().as_secs_f64() < cfg.seconds * share {
        for r in block(cfg.seed, b, cfg.scenarios) {
            let i = run.makespans.len() as u64;
            let t = Instant::now();
            let result = caller.request(&mut tr, r, frames(w));
            window.latencies_ns.push(ns_since(t));
            window.ops += 1;
            match result {
                Ok(makespan) => {
                    run.makespans.push(makespan);
                    if checked(cfg.seed, i) && run.kept.len() < max_checks(w) {
                        run.kept.push((i, r, Counters::of(&caller.report)));
                    }
                }
                Err(_) => {
                    run.failed += 1;
                    run.makespans.push(u64::MAX);
                }
            }
        }
        b += 1;
        window.secs = t_window.elapsed().as_secs_f64();
        if window.secs >= WINDOW_S {
            run.windows.push(std::mem::take(&mut window));
            t_window = Instant::now();
        }
    }
    if window.ops > 0 {
        run.windows.push(window);
    }
    run
}

pub(crate) fn measured(cfg: &Config) -> Result<Measured, String> {
    let w = cfg.workload;
    let (mut caller, setup_s) = timed_setup(|| setup(w, cfg.scenarios))?;
    let run = run_blocks(&mut caller, cfg, 1.0);
    let mut mismatches = Vec::new();
    reference_check(w, &run.kept, &mut mismatches);
    Ok(Measured {
        setup_s,
        windows: run.windows,
        attempted: run.makespans.len() as u64,
        failed: run.failed,
        mismatches,
    })
}

/// Half the time runs untraced; the same requests are then replayed inside
/// spans, and every replayed makespan must equal the untraced one.
pub(crate) fn traced(cfg: &Config) -> Result<Traced, String> {
    let w = cfg.workload;
    let mut caller = setup(w, cfg.scenarios)?;
    let run = run_blocks(&mut caller, cfg, 0.5);
    let peak_rss_mb = peak_rss_mb()?;
    let mut mismatches = Vec::new();
    reference_check(w, &run.kept, &mut mismatches);

    let mut tr = Tracer::new(true);
    let mut packages = 0u64;
    let blocks = (0..).flat_map(|b| block(cfg.seed, b, cfg.scenarios));
    for (i, (r, &want)) in blocks.zip(&run.makespans).enumerate() {
        let i = i as u64;
        tr.set_request(i);
        let root = tr.enter(OP);
        let got = caller.request(&mut tr, r, frames(w)).unwrap_or(u64::MAX);
        tr.exit(root);
        if got != want {
            mismatch(
                &mut mismatches,
                w,
                i,
                format!("makespan: replay {got} vs run {want}"),
            );
        }
        packages += caller
            .report
            .fus
            .iter()
            .map(|f| f.packages_sent)
            .sum::<u64>();
    }
    Ok(Traced {
        spans: tr.spans().to_vec(),
        ops: run.makespans.len() as u64,
        untraced_ns: total_latency_ns(&run.windows),
        packages,
        attempted: run.makespans.len() as u64,
        failed: run.failed,
        extra: vec![("mem.peak_rss_mb", peak_rss_mb)],
        mismatches,
    })
}
