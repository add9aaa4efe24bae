//! `mc`: `run_monte_carlo` over every scenario, pass after pass.
//!
//! Each pass estimates all fifteen scenarios with 400 samples, one frame,
//! 200 bootstrap resamples and a two-thread pool — what `segbus mc
//! --samples 400 --threads 2` does per model. Pass `p` uses the sample
//! seed `mix(seed, p)`, so passes draw different systems but the same
//! amount of work.

use std::collections::HashMap;
use std::time::Instant;

use segbus_core::montecarlo::{bootstrap_ci, percentile};
use segbus_core::{
    run_monte_carlo, strict_validate, BatchJob, CachedPool, EmulationReport, EmulatorConfig,
    Engine, EnginePlan, McOptions, McReport, SweepPool,
};
use segbus_model::mapping::Psm;
use segbus_model::stochastic::{mix_seed, sample_psm};
use segbus_model::SegbusError;

use crate::corpus::SCENARIOS;
use crate::rng::mix;
use crate::trace::Tracer;
use crate::{
    mismatch, ns_since, peak_rss_mb, timed_setup, total_latency_ns, Config, Measured, Traced,
    Window, Workload, OP,
};

const SAMPLES: u64 = 400;
const BOOTSTRAP: u32 = 200;
const THREADS: usize = 2;
/// The report-cache capacity `segbus mc` uses by default.
const CACHE: usize = 1024;

fn options(seed: u64, pass: u64, samples: u64) -> McOptions {
    McOptions {
        samples,
        seed: mix(seed, pass),
        frames: 1,
        bootstrap: BOOTSTRAP,
    }
}

/// One estimation exactly as `segbus mc` runs it: a fresh cached pool.
fn estimate(psm: &Psm, opts: &McOptions) -> Result<McReport, SegbusError> {
    let config = EmulatorConfig::default();
    let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, THREADS), CACHE);
    run_monte_carlo(&mut pool, psm, config, opts)
}

/// The first `count` estimations, one line each.
pub(crate) fn stream(seed: u64, count: usize, scenarios: usize) -> Vec<String> {
    (0..)
        .flat_map(|pass| {
            SCENARIOS[..scenarios]
                .iter()
                .map(move |(name, _)| format!("{name} seed={}", options(seed, pass, SAMPLES).seed))
        })
        .take(count)
        .collect()
}

/// Parse every scenario and estimate each once with a few samples, which
/// also proves that no estimation of the workload fails.
fn setup(scenarios: usize) -> Result<Vec<Psm>, String> {
    let mut models = Vec::new();
    for (i, (name, text)) in SCENARIOS[..scenarios].iter().enumerate() {
        let psm = segbus_dsl::parse_system(text).map_err(|e| format!("{name}: {e}"))?;
        estimate(&psm, &options(0, i as u64, 16)).map_err(|e| format!("{name}: {e}"))?;
        models.push(psm);
    }
    Ok(models)
}

/// The untraced run: one window per pass.
struct Run {
    /// `reports[pass][scenario]`.
    reports: Vec<Vec<Option<McReport>>>,
    windows: Vec<Window>,
    failed: u64,
}

/// Whole passes until `seconds` have passed (at least one).
fn run_passes(models: &[Psm], seed: u64, seconds: f64) -> Run {
    let mut run = Run {
        reports: Vec::new(),
        windows: Vec::new(),
        failed: 0,
    };
    let start = Instant::now();
    while run.reports.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let opts = options(seed, run.reports.len() as u64, SAMPLES);
        let t_pass = Instant::now();
        let mut window = Window::default();
        let mut pass = Vec::new();
        for psm in models {
            let t = Instant::now();
            let r = estimate(psm, &opts);
            window.latencies_ns.push(ns_since(t));
            window.ops += SAMPLES;
            if r.is_err() {
                run.failed += SAMPLES;
            }
            pass.push(r.ok());
        }
        window.secs = t_pass.elapsed().as_secs_f64();
        run.windows.push(window);
        run.reports.push(pass);
    }
    run
}

/// What a replay reproduces of an `McReport`, plus its engine work.
struct Replayed {
    makespans: Vec<u64>,
    /// `(p50, p95, p99)`.
    quantiles: (u64, u64, u64),
    ci95: (f64, f64),
    distinct: u64,
    packages: u64,
}

/// One estimation replayed a call at a time on one thread, through the
/// same public functions `run_monte_carlo` and `CachedPool::run_batch`
/// use: sample, digest, in-batch dedupe, cache lookup, validate, plan,
/// run, cache insert, then the statistics.
fn replay(tr: &mut Tracer, psm: &Psm, opts: &McOptions) -> Result<Replayed, SegbusError> {
    let config = EmulatorConfig::default();
    let mut pool = CachedPool::with_pool(SweepPool::with_threads(config, 1), CACHE);
    let mut engine = Engine::new(config);
    let mut report = EmulationReport::empty();
    let mut first: HashMap<u64, u64> = HashMap::new();
    let mut makespans = Vec::with_capacity(opts.samples as usize);
    let mut packages = 0;
    for i in 0..opts.samples {
        let sampled = tr.time("stochastic.sample", || {
            sample_psm(psm, mix_seed(opts.seed, i))
        })?;
        let job = BatchJob {
            psm: sampled,
            config,
            frames: opts.frames,
        };
        let key = tr.time("digest.job", || job.digest());
        if let Some(&m) = first.get(&key) {
            makespans.push(m);
            continue;
        }
        let m = match tr.time("cache.lookup", || pool.lookup(key)) {
            Some(r) => r.makespan.0,
            None => {
                tr.time("precheck.validate", || {
                    strict_validate(&job.psm, job.frames, &config)
                })?;
                let plan = tr.time("plan.compile", || EnginePlan::try_new(&job.psm))?;
                tr.time("engine.run", || {
                    engine.run_plan_into(&plan, job.frames, &mut report)
                });
                tr.time("cache.insert", || pool.insert(key, &report));
                packages += report.fus.iter().map(|f| f.packages_sent).sum::<u64>();
                report.makespan.0
            }
        };
        first.insert(key, m);
        makespans.push(m);
    }
    let (quantiles, ci95) = tr.time("mc.stats", || {
        let mut sorted = makespans.clone();
        sorted.sort_unstable();
        (
            (
                percentile(&sorted, 50.0),
                percentile(&sorted, 95.0),
                percentile(&sorted, 99.0),
            ),
            bootstrap_ci(&makespans, opts.bootstrap, mix_seed(opts.seed, u64::MAX)),
        )
    });
    Ok(Replayed {
        makespans,
        quantiles,
        ci95,
        distinct: first.len() as u64,
        packages,
    })
}

/// Compare a replay with the estimation it mirrors.
fn check(
    out: &mut Vec<String>,
    request: u64,
    scenario: &str,
    got: &Result<Replayed, SegbusError>,
    want: &Option<McReport>,
) {
    let w = Workload::Mc;
    let (got, want) = match (got, want) {
        (Ok(g), Some(r)) => (g, r),
        (Err(e), _) => return mismatch(out, w, request, format!("{scenario}: replay failed: {e}")),
        (_, None) => return mismatch(out, w, request, format!("{scenario}: estimation failed")),
    };
    let m = &want.makespan;
    let field = if got.makespans != want.makespans {
        "makespans"
    } else if got.quantiles != (m.p50, m.p95, m.p99) {
        "percentiles"
    } else if got.ci95 != m.ci95 {
        "ci95"
    } else if got.distinct != want.distinct {
        "distinct"
    } else {
        return;
    };
    mismatch(out, w, request, format!("{scenario}: {field} differ"));
}

/// Totals of a replay over whole passes.
#[derive(Default)]
struct Totals {
    /// Σ operation wall time, in nanoseconds.
    wall_ns: u64,
    samples: u64,
    distinct: u64,
    packages: u64,
}

/// Replay the first `passes` passes of `run` (traced or not), checking
/// every estimation against the report `run_monte_carlo` returned.
fn replay_passes(
    tr: &mut Tracer,
    models: &[Psm],
    seed: u64,
    run: &Run,
    passes: usize,
    out: &mut Vec<String>,
) -> Totals {
    let mut totals = Totals::default();
    for (p, reports) in run.reports.iter().take(passes).enumerate() {
        let opts = options(seed, p as u64, SAMPLES);
        for (s, (psm, want)) in models.iter().zip(reports).enumerate() {
            let request = (p * models.len() + s) as u64;
            tr.set_request(request);
            let t = Instant::now();
            let root = tr.enter(OP);
            let got = replay(tr, psm, &opts);
            tr.exit(root);
            totals.wall_ns += ns_since(t);
            check(out, request, SCENARIOS[s].0, &got, want);
            if let Ok(g) = &got {
                totals.samples += opts.samples;
                totals.distinct += g.distinct;
                totals.packages += g.packages;
            }
        }
    }
    totals
}

pub(crate) fn measured(cfg: &Config) -> Result<Measured, String> {
    let (models, setup_s) = timed_setup(|| setup(cfg.scenarios))?;
    let run = run_passes(&models, cfg.seed, cfg.seconds);
    // The first pass, replayed on one thread, must reproduce every report.
    let mut mismatches = Vec::new();
    replay_passes(
        &mut Tracer::new(false),
        &models,
        cfg.seed,
        &run,
        1,
        &mut mismatches,
    );
    Ok(Measured {
        setup_s,
        attempted: run.windows.iter().map(|w| w.ops).sum(),
        windows: run.windows,
        failed: run.failed,
        mismatches,
    })
}

/// A third of the time runs untraced on the two-thread pool; every
/// estimation is then replayed on one thread, untraced and then traced.
pub(crate) fn traced(cfg: &Config) -> Result<Traced, String> {
    let models = setup(cfg.scenarios)?;
    let run = run_passes(&models, cfg.seed, cfg.seconds / 3.0);
    let peak_rss_mb = peak_rss_mb()?;
    let passes = run.reports.len();
    let mut mismatches = Vec::new();
    let untraced = replay_passes(
        &mut Tracer::new(false),
        &models,
        cfg.seed,
        &run,
        passes,
        &mut mismatches,
    );
    let mut tr = Tracer::new(true);
    let traced = replay_passes(&mut tr, &models, cfg.seed, &run, passes, &mut mismatches);
    let e2e_ns = total_latency_ns(&run.windows);
    let distinct_ratio = traced.distinct as f64 / traced.samples.max(1) as f64;
    Ok(Traced {
        spans: tr.spans().to_vec(),
        ops: (passes * models.len()) as u64,
        untraced_ns: untraced.wall_ns,
        packages: traced.packages,
        attempted: run.windows.iter().map(|w| w.ops).sum(),
        failed: run.failed,
        extra: vec![
            ("mem.peak_rss_mb", peak_rss_mb),
            ("mc.distinct_ratio", distinct_ratio),
            // `run_batch` answers an in-batch duplicate as a cache hit.
            ("cache.hit_ratio", 1.0 - distinct_ratio),
            (
                "mc.parallel_efficiency",
                untraced.wall_ns as f64 / (e2e_ns as f64 * THREADS as f64),
            ),
        ],
        mismatches,
    })
}
