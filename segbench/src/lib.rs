//! # segbench
//!
//! The SegBus benchmark: five workloads over the fifteen corpus scenarios,
//! each timed from outside through the repository's public entry points,
//! with the outputs checked after every timed window.
//!
//! | workload | one operation | what dominates |
//! |---|---|---|
//! | `emulate-front` | `.sbd` text → report, 1 frame | DSL parse, validate, plan, report |
//! | `emulate-stream` | the same path, 64 frames | the engine's event loop |
//! | `mc` | one Monte-Carlo sample (`run_monte_carlo`, 400 per scenario) | sampling and per-sample set-up |
//! | `serve` | one request line → response line over TCP | protocol, cache tiers, batching |
//! | `place` | one `Portfolio` makespan search | the placement search layer |
//!
//! An untraced run ([`run`] with `trace: false`) reports the end-to-end
//! metrics of [`END_TO_END`]; a traced run replays its inputs one call at
//! a time inside [`trace::Tracer`] spans and reports [`PER_LAYER`]. The
//! `README.md` next to this crate documents every workload and metric.

use std::path::PathBuf;
use std::time::Instant;

use segbus_core::{EmulatorConfig, Engine};
use segbus_model::mapping::Psm;

pub mod compare;
pub mod corpus;
mod emulate;
mod mc;
mod place;
pub mod rng;
mod serve;
pub mod stats;
pub mod trace;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Text to report at one frame: the front end dominates.
    EmulateFront,
    /// Text to report at 64 frames: the event loop dominates.
    EmulateStream,
    /// Monte-Carlo estimation of every scenario.
    Mc,
    /// An in-process TCP server under a two-connection closed loop.
    Serve,
    /// Makespan placement search on every scenario.
    Place,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::EmulateFront,
        Workload::EmulateStream,
        Workload::Mc,
        Workload::Serve,
        Workload::Place,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmulateFront => "emulate-front",
            Workload::EmulateStream => "emulate-stream",
            Workload::Mc => "mc",
            Workload::Serve => "serve",
            Workload::Place => "place",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_us` reports: the highest that leaves at
    /// least ten latencies beyond it, even on a host running at half speed.
    /// The tail is taken over the run's faster half of windows, which hold
    /// thousands of requests on `emulate-*` and `serve`, about 250
    /// estimations on `mc` and all 30 searches on `place`.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::EmulateFront | Workload::EmulateStream | Workload::Serve => 99.0,
            Workload::Mc => 90.0,
            Workload::Place => 66.0,
        }
    }
}

/// `(name, unit)` of every end-to-end metric an untraced run prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("rtl_accuracy_pct", "%"),
];

/// How many times an untraced run sets its workload up; `setup_s` is the
/// median.
const SETUP_REPS: usize = 7;

/// `(name, unit)` of every per-layer metric a traced run prints. A
/// `<layer>_pct` metric is the layer's self time as a share of the traced
/// wall time; it reads 0 on a workload that never calls the layer.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.op_us", "us"),
    ("mem.peak_rss_mb", "MB"),
    ("dsl.parse_pct", "%"),
    ("model.package_size_pct", "%"),
    ("precheck.validate_pct", "%"),
    ("plan.compile_pct", "%"),
    ("engine.run_pct", "%"),
    ("report.format_pct", "%"),
    ("stochastic.sample_pct", "%"),
    ("digest.job_pct", "%"),
    ("mc.stats_pct", "%"),
    ("protocol.decode_pct", "%"),
    ("protocol.encode_pct", "%"),
    ("cache.lookup_pct", "%"),
    ("cache.insert_pct", "%"),
    ("place.search_pct", "%"),
    ("engine.mpackages_per_s", "M/s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("mc.distinct_ratio", "ratio"),
    ("mc.parallel_efficiency", "ratio"),
    ("serve.sheds", "count"),
    ("serve.batch_jobs_mean", "jobs"),
    ("serve.outside_pct", "%"),
    ("place.evaluations", "count"),
    ("place.memo_hit_ratio", "ratio"),
    ("place.bound_skip_ratio", "ratio"),
    ("place.emulations", "count"),
    ("place.plan_patches", "count"),
    ("place.evals_per_s", "1/s"),
    ("place.makespan_ratio", "ratio"),
];

/// The root span of one operation; everything else is a layer call.
pub(crate) const OP: &str = "op";

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured part of the run, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// How many corpus scenarios the workload uses: all fifteen for a
    /// measurement, fewer for a quick smoke run.
    pub scenarios: usize,
    /// Directory for scratch files (the serve workload's report store).
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans (`None`: not written).
    pub spans_path: Option<PathBuf>,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that returned an error, were shed or got no response.
    pub failed: u64,
    /// Operation latencies `latency_tail_us` was taken from (0 for a
    /// traced run).
    pub latency_samples: usize,
    /// Every metric, in table order.
    pub metrics: Vec<Metric>,
    /// Output mismatches found by the checks (`workload`, request, field).
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` with all its digits (`{}` prints the shortest string
/// that reads back to the same value); non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Checks collect mismatches; at most this many are kept verbatim.
const MAX_MISMATCHES: usize = 20;

/// Record one mismatch (`workload`, request, field and both values).
pub(crate) fn mismatch(out: &mut Vec<String>, workload: Workload, request: u64, what: String) {
    if out.len() < MAX_MISMATCHES {
        out.push(format!("{}: request {request}: {what}", workload.name()));
    }
}

/// One measured window: a fixed amount of work (a pass, a few blocks of
/// requests) or, for the server, a fixed slice of time.
#[derive(Default)]
pub(crate) struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// The window's length, in seconds.
    pub secs: f64,
    /// Latency of every request answered in the window, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

/// Σ latency over every window, in nanoseconds.
pub(crate) fn total_latency_ns(windows: &[Window]) -> u64 {
    windows.iter().flat_map(|w| &w.latencies_ns).sum()
}

/// What an untraced workload run hands back to the runner.
pub(crate) struct Measured {
    /// Seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// The measured windows.
    pub windows: Vec<Window>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Check failures.
    pub mismatches: Vec<String>,
}

/// What a traced workload run hands back to the runner.
pub(crate) struct Traced {
    /// Spans of the traced replay.
    pub spans: Vec<trace::Span>,
    /// Operations replayed.
    pub ops: u64,
    /// Σ operation wall time of the untraced replay, in nanoseconds.
    pub untraced_ns: u64,
    /// Packages the replay's engine runs sent (for the engine rate).
    pub packages: u64,
    /// Operations attempted by the untraced run.
    pub attempted: u64,
    /// Operations failed by the untraced run.
    pub failed: u64,
    /// Workload-specific per-layer metrics (memory, cache, mc, serve,
    /// place).
    pub extra: Vec<(&'static str, f64)>,
    /// Check failures, replay-versus-run mismatches included.
    pub mismatches: Vec<String>,
}

/// Run one workload as configured.
///
/// `Err` means the run could not be made at all (a socket or directory
/// that could not be opened); output mismatches are reported in
/// [`Outcome::mismatches`] instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        let t = match cfg.workload {
            Workload::EmulateFront | Workload::EmulateStream => emulate::traced(cfg)?,
            Workload::Mc => mc::traced(cfg)?,
            Workload::Serve => serve::traced(cfg)?,
            Workload::Place => place::traced(cfg)?,
        };
        if let Some(path) = &cfg.spans_path {
            trace::write_spans(path, cfg.workload.name(), cfg.seed, &t.spans)
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        }
        return Ok(layer_outcome(t));
    }
    let m = match cfg.workload {
        Workload::EmulateFront | Workload::EmulateStream => emulate::measured(cfg)?,
        Workload::Mc => mc::measured(cfg)?,
        Workload::Serve => serve::measured(cfg)?,
        Workload::Place => place::measured(cfg)?,
    };
    let accuracy = rtl_accuracy_pct(cfg.scenarios)?;
    // Interference from other tenants of a shared host only ever slows a
    // window down, so the rate and the median latency are read at the
    // boundary of the run's faster quarter of windows: the 75th percentile
    // of the window rates and the 25th of the window medians. On a noisy
    // 2-core VM this halves the run-to-run spread the median of windows
    // gives (see README.md).
    let over_windows = |p: f64, f: &dyn Fn(&Window) -> Option<f64>| {
        let mut per: Vec<f64> = m.windows.iter().filter_map(f).collect();
        per.sort_by(f64::total_cmp);
        if per.is_empty() {
            0.0
        } else {
            stats::nearest_rank(&per, p)
        }
    };
    let median_us = over_windows(25.0, &|w: &Window| {
        let mut l = w.latencies_ns.clone();
        l.sort_unstable();
        (!l.is_empty()).then(|| stats::nearest_rank(&l, 50.0) as f64 / 1e3)
    });
    // A window holds too few operations for a tail, so the tail is taken
    // over every latency of the run's faster half of windows: those at or
    // above the median window rate.
    let rate = |w: &Window| w.ops as f64 / w.secs;
    let median_rate = over_windows(50.0, &|w: &Window| Some(rate(w)));
    let mut pooled: Vec<u64> = m
        .windows
        .iter()
        .filter(|w| rate(w) >= median_rate)
        .flat_map(|w| w.latencies_ns.clone())
        .collect();
    pooled.sort_unstable();
    let tail_us = if pooled.is_empty() {
        0.0
    } else {
        stats::nearest_rank(&pooled, cfg.workload.tail_percentile()) as f64 / 1e3
    };
    let values = [
        stats::median(&m.setup_s),
        over_windows(75.0, &|w: &Window| Some(rate(w))),
        median_us,
        tail_us,
        accuracy,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        latency_samples: pooled.len(),
        metrics,
        mismatches: m.mismatches,
    })
}

/// Turn a traced replay into the [`PER_LAYER`] metrics.
fn layer_outcome(t: Traced) -> Outcome {
    let totals = trace::self_time_by_name(&t.spans);
    let self_ns = |name: &str| totals.get(name).copied().unwrap_or(0);
    let wall = t
        .spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| s.end_ns - s.start_ns)
        .sum::<u64>()
        .max(1) as f64;
    let covered: u64 = PER_LAYER
        .iter()
        .filter_map(|(name, _)| span_of(name))
        .map(self_ns)
        .sum();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.coverage" => covered as f64 / wall,
                "trace.overhead" => wall / t.untraced_ns.max(1) as f64 - 1.0,
                "trace.op_us" => wall / 1e3 / t.ops.max(1) as f64,
                "engine.mpackages_per_s" => match self_ns("engine.run") {
                    0 => 0.0,
                    ns => t.packages as f64 / ns as f64 * 1e3,
                },
                _ => match span_of(name) {
                    Some(span) => 100.0 * self_ns(span) as f64 / wall,
                    None => t
                        .extra
                        .iter()
                        .find(|(k, _)| *k == name)
                        .map_or(0.0, |&(_, v)| v),
                },
            };
            Metric { name, value, unit }
        })
        .collect();
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        latency_samples: 0,
        metrics,
        mismatches: t.mismatches,
    }
}

/// The span a `<layer>_pct` metric measures (`serve.outside_pct` is
/// derived, not spanned).
fn span_of(metric: &str) -> Option<&str> {
    metric
        .strip_suffix("_pct")
        .filter(|&span| span != "serve.outside")
}

/// The estimator's accuracy against the `segbus-rtl` reference simulator
/// (the stand-in for the paper's silicon), computed the way `segbus
/// accuracy` does — estimated ÷ simulated execution time, in percent —
/// and averaged over the first `scenarios` corpus scenarios at every
/// package size of [`corpus::PACKAGE_SIZES`]. Runs outside any timed
/// window; the same models on every workload and seed, so it changes only
/// when the estimator's or the reference's timing does.
fn rtl_accuracy_pct(scenarios: usize) -> Result<f64, String> {
    let rtl = segbus_rtl::RtlSimulator::default();
    let mut engine = Engine::new(EmulatorConfig::default());
    let mut sum = 0.0;
    let mut n = 0u32;
    for (name, text) in &corpus::SCENARIOS[..scenarios] {
        for size in corpus::PACKAGE_SIZES {
            let psm = parse_at(text, size).map_err(|e| format!("{name}: {e}"))?;
            let est = engine
                .try_run(&psm)
                .map_err(|e| format!("{name}: {e}"))?
                .execution_time();
            let act = rtl
                .run(&psm)
                .map_err(|e| format!("{name}: reference simulator: {e}"))?
                .execution_time();
            sum += 100.0 * est.0 as f64 / act.0 as f64;
            n += 1;
        }
    }
    Ok(sum / n as f64)
}

/// The first `count` inputs `run` would generate for `workload` from
/// `seed`, one line per operation: the scenario and parameters of each
/// emulate request, mc estimation and placement search, and the literal
/// request line of each serve request.
pub fn request_stream(
    workload: Workload,
    seed: u64,
    count: usize,
    scenarios: usize,
) -> Vec<String> {
    match workload {
        Workload::EmulateFront | Workload::EmulateStream => {
            emulate::stream(workload, seed, count, scenarios)
        }
        Workload::Mc => mc::stream(seed, count, scenarios),
        Workload::Serve => serve::stream(seed, count, scenarios),
        Workload::Place => place::stream(seed, count, scenarios),
    }
}

/// Parse a scenario and set its package size.
pub(crate) fn parse_at(text: &str, package_size: u32) -> Result<Psm, segbus_model::SegbusError> {
    Ok(segbus_dsl::parse_system(text)?.with_package_size(package_size)?)
}

/// The process's peak resident set (`VmHWM`), in MB. A traced run reads
/// it after its untraced part, before any span is recorded.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run `setup` [`SETUP_REPS`] times and keep the last state.
pub(crate) fn timed_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first, so repetitions never overlap.
        drop(last.take());
        let t = Instant::now();
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Nanoseconds elapsed since `t`.
pub(crate) fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
